"""Closed-form average reconstruction error for the three transmission schemes.

Each sensor samples the correlated Gaussian source once per period T.  The
server rebuilds the target sensor's state by conditional-mean estimation
from the freshest useful packet, and the long-run time-averaged mean
squared error (MSE) admits closed forms:

* no inference       -- only the target's own packets are used;
* syn inference      -- all sensors transmit together at the period start,
                        the server uses the most spatially correlated packet
                        of the newest successful round;
* asyn inference     -- sensors transmit staggered by a time shift h, the
                        server always uses the latest success.

Throughout, eps denotes the fading-averaged block error probability, E the
squared temporal correlation over one period exp(-2 a T), and q its analog
over one time shift exp(-2 a h).  Spatial weights enter as exp(-2 b r_mn).

The module also provides the error bounds with respect to eps and with
respect to the spatial weights, the shape classifier for the asynchronous
error as a function of eps, and the analytic eps-derivative used to locate
the interior minimum when packet loss actually helps.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.optimize import brentq

from .blep import LinkParams, blep_average
from .errors import InvalidConfigError
from .field import SensorField, SourceParams


class Scheme(str, enum.Enum):
    NO_INFER = "no-infer"
    SYN_INFER = "syn-infer"
    ASYN_INFER = "asyn-infer"


@dataclass(frozen=True)
class SchemeConfig:
    """Transmission-scheme settings.

    scheme : one of the Scheme tags
    T      : transmission period in seconds (> packet delay tau)
    h      : time shift in seconds (asyn only; T_s <= h <= (T - tau)/(M-1))
    M      : number of sensors taking part (no-infer behaves as M = 1)
    m      : 1-based index of the target sensor / transmission slot
    """

    scheme: Scheme
    T: float = 0.150
    h: float | None = None
    M: int = 5
    m: int = 1

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        if not self.T > 0:
            raise InvalidConfigError(f"period T must be > 0, got {self.T}")
        if self.M < 1:
            raise InvalidConfigError(f"M must be >= 1, got {self.M}")
        if not 1 <= self.m <= self.M:
            raise InvalidConfigError(f"target index {self.m} outside 1..{self.M}")
        if self.scheme is Scheme.ASYN_INFER:
            if self.M < 2:
                raise InvalidConfigError("asynchronous scheme needs M >= 2")
            if self.h is None:
                raise InvalidConfigError("asynchronous scheme needs a time shift h")
            if not self.h > 0:
                raise InvalidConfigError(f"time shift must be > 0, got {self.h}")


@dataclass(frozen=True)
class MseValue:
    """Average MSE plus an optional breakdown of named intermediate terms."""

    value: float
    components: dict = dc_field(default_factory=dict)

    def __float__(self):
        return self.value


@dataclass(frozen=True)
class ReindexedField:
    """Sensors sorted by descending squared spatial weight to the target.

    order   : 1-based sensor indices; the target comes first, ties broken
              by ascending index
    factors : exp(-2 b r_m,order[k]), non-increasing
    """

    order: tuple
    factors: tuple


def reindex_by_correlation(params: SourceParams, field: SensorField) -> ReindexedField:
    """Rank sensors by spatial usefulness for inferring the target."""
    m = field.target_index
    fac = field.target_factors(params.b, power=2.0)
    idx = sorted(range(1, field.n_sensors + 1),
                 key=lambda n: (-fac[n - 1], n != m, n))
    return ReindexedField(order=tuple(idx),
                          factors=tuple(float(fac[n - 1]) for n in idx))


# ---------------------------------------------------------------------------
# validation / shared pieces
# ---------------------------------------------------------------------------

def _check_timing(link: LinkParams, scheme: SchemeConfig, need_h: bool = False):
    if scheme.T <= link.tau:
        raise InvalidConfigError(
            f"period T={scheme.T} must exceed the packet delay tau={link.tau}"
        )
    if need_h:
        h_max = (scheme.T - link.tau) / (scheme.M - 1)
        if not (link.T_s <= scheme.h <= h_max + 1e-15):
            raise InvalidConfigError(
                f"time shift h={scheme.h} outside feasible band "
                f"[{link.T_s}, {h_max}]"
            )


def _eps(link: LinkParams, eps_bar) -> float:
    e = blep_average(link) if eps_bar is None else float(eps_bar)
    if not 0.0 <= e <= 1.0:
        raise InvalidConfigError(f"average BLEP must lie in [0, 1], got {e}")
    return e


# ---------------------------------------------------------------------------
# array kernel: every closed form below is a thin wrapper over it
# ---------------------------------------------------------------------------

def _prefactor(source: SourceParams, tau, T: float):
    """sigma2 gamma_o exp(-2 a tau) / (2 a T (gamma_o + 1)), elementwise in tau."""
    return (source.sigma2_x * source.gamma_o * np.exp(-2.0 * source.a * tau)
            / (2.0 * source.a * T * (source.gamma_o + 1.0)))


def _dquot(u, du, v, dv):
    """Derivative of u / v from the derivatives of u and v."""
    return (du * v - u * dv) / v ** 2


# sum over the last axis of an elementwise product, broadcasting the rest
_vecdot = getattr(np, "vecdot", None) or (lambda x, y: (x * y).sum(axis=-1))


@functools.lru_cache(maxsize=None)
def _eps_powers(M: int, asyn: bool):
    """Slot numbers n = 1..M, the eps power of rank n (synchronous) or slot
    n (asynchronous), and the power in its derivative (whose coefficient is
    0 where it clips at 0)."""
    n = np.arange(1.0, M + 1)
    p = M - n if asyn else n - 1.0
    out = (n, p, np.maximum(p - 1.0, 0.0))
    for arr in out:
        arr.flags.writeable = False  # shared by every caller through the cache
    return out


def _lift(x):
    """x, and x with a trailing axis for the M per-sensor terms.

    A float stays a float, which keeps the scalar wrappers cheap.
    """
    if isinstance(x, float):
        return x, x
    x = np.asarray(x, dtype=float)
    return x, x[..., None]


class ClosedForm:
    """Closed-form average MSE as an array kernel in the average BLEP eps.

    The constructor computes everything that does not depend on eps, so a
    search over eps (a grid scan, a root finder) pays for it once.

    T, M : period and number of sensors
    tau  : packet delay; it only scales :meth:`mse` and :meth:`dmse`
    h    : time shift for the asynchronous form, or None for the
           synchronous form (M = 1 is the no-inference form)

    tau and h may be arrays.  They broadcast against each other, against
    the ``eps`` passed to the methods and against ``weights[..., 0]``,
    whose last axis runs over the M sensors: in descending order for the
    synchronous form (target first), in transmission-slot order for the
    asynchronous one.  Every form is a quotient with a positive
    denominator on eps in [0, 1], so eps = 1 needs no special case.
    """

    def __init__(self, source: SourceParams, T: float, tau, M: int, h=None):
        a = source.a
        self.s2, self.M, self.h = source.sigma2_x, M, h
        self.E = math.exp(-2.0 * a * T)
        self.c = _prefactor(source, tau, T)
        n, self.p, self.p1 = _eps_powers(M, h is not None)
        if h is not None:
            h, hn = _lift(h)
            self.q = np.exp(-2.0 * a * h)
            self.one_q = 1.0 - _lift(self.q)[1]
            # exp(2 a h (n-1)) (q^M - E)
            self.slot = np.exp(2.0 * a * hn * (n - 1.0)) * (np.exp(-2.0 * a * hn * M) - self.E)

    def psi(self, eps, deriv: bool = False):
        """Asynchronous slot weights Psi_n on a new last axis n = 1..M.

        Psi_n = 1 - q + exp(2ah(n-1)) (q^M - E) eps^(M-n) (1-eps) / (1 - E eps^M).
        With ``deriv`` returns (Psi, d Psi / d eps).
        """
        M, E = self.M, self.E
        e = _lift(eps)[1]
        pw, one_e = e ** self.p, 1.0 - e
        u, den = pw * one_e, 1.0 - E * e ** M
        psi = self.one_q + self.slot * u / den
        if not deriv:
            return psi
        du = self.p * one_e * e ** self.p1 - pw
        return psi, self.slot * _dquot(u, du, den, -M * E * e ** (M - 1))

    def _reduction(self, eps, weights, deriv=False):
        """R with MSE = sigma2 - c R; with ``deriv`` returns (R, dR / d eps)."""
        e, en = _lift(eps)
        if self.h is None:
            # R = (1-E) (1-eps) sum_s w_s eps^(s-1) / (1 - E eps^M)
            M, E = self.M, self.E
            series = _vecdot(weights, en ** self.p)
            u, den = (1.0 - e) * series, 1.0 - E * e ** M
            R = (1.0 - E) * u / den
            if not deriv:
                return R
            dseries = _vecdot(weights, self.p * en ** self.p1)
            du = (1.0 - e) * dseries - series
            return R, (1.0 - E) * _dquot(u, du, den, -M * E * e ** (M - 1))
        # R = (1-eps) sum_n w_n Psi_n / (1 - q eps)
        q = self.q
        if not deriv:
            return (1.0 - e) * _vecdot(weights, self.psi(eps)) / (1.0 - q * e)
        psi, dpsi = self.psi(eps, deriv=True)
        S, dS = _vecdot(weights, psi), _vecdot(weights, dpsi)
        u = (1.0 - e) * S
        return u / (1.0 - q * e), _dquot(u, (1.0 - e) * dS - S, 1.0 - q * e, -q)

    def mse(self, eps, weights):
        """Average MSE sigma2 - c R(eps)."""
        return self.s2 - self.c * self._reduction(eps, weights)

    def dmse(self, eps, weights):
        """d MSE / d eps."""
        return -self.c * self._reduction(eps, weights, deriv=True)[1]


# the weight vector of the M = 1 (no-inference) form: the target's own
_OWN = np.ones(1)


def mssc_weights(M: int, target: int, mssc_value: float) -> np.ndarray:
    """Squared spatial weights with every non-target entry set to the MSSC."""
    w = np.empty(M)
    w.fill(mssc_value)
    w[target - 1] = 1.0
    return w


def psi_values(source: SourceParams, scheme: SchemeConfig, eps: float) -> np.ndarray:
    """Slot weights Psi_n, n = 1..M, for the asynchronous scheme.

    Psi_n = 1 - q + exp(2 a h (n-1)) eps^(M-n) (1-eps) (q^M - E) / (1 - E eps^M)

    is the conditional expectation of 1 - exp(-2 a D) times (1 - q eps),
    where D is the gap until the next successful reception given the last
    success came from transmission slot n.
    """
    return ClosedForm(source, scheme.T, 0.0, scheme.M, scheme.h).psi(eps)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def mse_no_infer(source: SourceParams, link: LinkParams, scheme: SchemeConfig,
                 eps_bar=None) -> MseValue:
    """Average MSE when only the target's own packets are used (M = 1 form)."""
    _check_timing(link, scheme)
    eps = _eps(link, eps_bar)
    val = ClosedForm(source, scheme.T, link.tau, 1).mse(eps, _OWN)
    return MseValue(float(val), {"eps_bar": eps})


def mse_syn_infer(source: SourceParams, field: SensorField, link: LinkParams,
                  scheme: SchemeConfig, eps_bar=None) -> MseValue:
    """Average MSE of the synchronous inference scheme.

    sigma2 - c (1-E) (1-eps) sum_s fac_s eps^(s-1) / (1 - E eps^M)
    with fac_s the squared spatial weights in descending order (the server
    picks the most correlated packet of the newest successful round).
    """
    _check_timing(link, scheme)
    eps = _eps(link, eps_bar)
    factors = _weights_of(reindex_by_correlation(source, field).factors, source, scheme)
    val = ClosedForm(source, scheme.T, link.tau, scheme.M).mse(eps, factors)
    return MseValue(float(val), {"eps_bar": eps})


def mse_syn_infer_approx(source: SourceParams, mssc_value: float, link: LinkParams,
                         scheme: SchemeConfig, eps_bar=None) -> MseValue:
    """Synchronous closed form with every non-target weight set to the MSSC."""
    if scheme.M < 2:
        raise InvalidConfigError("the MSSC approximation needs M >= 2")
    _check_timing(link, scheme)
    eps = _eps(link, eps_bar)
    # the target leads the descending order
    val = ClosedForm(source, scheme.T, link.tau, scheme.M).mse(
        eps, mssc_weights(scheme.M, 1, mssc_value))
    return MseValue(float(val), {"eps_bar": eps, "mssc": mssc_value})


def mse_asyn_infer(source: SourceParams, field: SensorField, link: LinkParams,
                   scheme: SchemeConfig, eps_bar=None) -> MseValue:
    """Average MSE of the asynchronous inference scheme.

    sigma2 - c (1-eps) sum_n w_n Psi_n / (1 - q eps), with w_n the squared
    spatial weight of the sensor transmitting in slot n (slot order is the
    sensor index order).
    """
    _check_timing(link, scheme, need_h=True)
    eps = _eps(link, eps_bar)
    w = _weights_of(field, source, scheme)
    val = ClosedForm(source, scheme.T, link.tau, scheme.M, scheme.h).mse(eps, w)
    return MseValue(float(val), {"eps_bar": eps})


def mse_asyn_infer_approx(source: SourceParams, mssc_value: float, link: LinkParams,
                          scheme: SchemeConfig, eps_bar=None) -> MseValue:
    """Asynchronous closed form with every non-target weight set to the MSSC."""
    if scheme.M < 2:
        raise InvalidConfigError("the MSSC approximation needs M >= 2")
    _check_timing(link, scheme, need_h=True)
    eps = _eps(link, eps_bar)
    val = ClosedForm(source, scheme.T, link.tau, scheme.M, scheme.h).mse(
        eps, mssc_weights(scheme.M, scheme.m, mssc_value))
    return MseValue(float(val), {"eps_bar": eps, "mssc": mssc_value})


def average_mse(source, field, link, scheme, eps_bar=None) -> MseValue:
    """Dispatch to the closed form matching ``scheme.scheme``."""
    if scheme.scheme is Scheme.NO_INFER:
        return mse_no_infer(source, link, scheme, eps_bar)
    if scheme.scheme is Scheme.SYN_INFER:
        return mse_syn_infer(source, field, link, scheme, eps_bar)
    return mse_asyn_infer(source, field, link, scheme, eps_bar)


# ---------------------------------------------------------------------------
# eps-derivative of the asynchronous form, interior minimizer, shape classifier
# ---------------------------------------------------------------------------

def dpsi_deps(source: SourceParams, scheme: SchemeConfig, eps: float) -> np.ndarray:
    """d Psi_n / d eps for n = 1..M, the derivative of :func:`psi_values`."""
    return ClosedForm(source, scheme.T, 0.0, scheme.M, scheme.h).psi(eps, deriv=True)[1]


def dmse_asyn_deps(source: SourceParams, field_or_weights, link: LinkParams,
                   scheme: SchemeConfig, eps: float) -> float:
    """Analytic d MSE / d eps for the asynchronous scheme.

    With S(eps) = sum_n w_n Psi_n(eps) and q = exp(-2ah):

        d MSE / d eps = -c [ (1-eps)(1-q eps) S' - (1-q) S ] / (1-q eps)^2
    """
    w = _weights_of(field_or_weights, source, scheme)
    cf = ClosedForm(source, scheme.T, link.tau, scheme.M, scheme.h)
    return float(cf.dmse(eps, w))


def _weights_of(field_or_weights, source, scheme):
    if isinstance(field_or_weights, SensorField):
        w = field_or_weights.target_factors(source.b, power=2.0)
    else:
        w = np.asarray(field_or_weights, dtype=float)
    if len(w) != scheme.M:
        raise InvalidConfigError(f"need {scheme.M} spatial weights, got {len(w)}")
    return w


def eps_star_asyn(source, field_or_weights, link, scheme, grid_size=512,
                  tol=1e-10):
    """Global minimizer of the asynchronous MSE over eps in [0, 1).

    Scores a dense grid of ``grid_size`` points in one :class:`ClosedForm`
    call, then refines the best interior cell by bracketed root finding
    (brentq) on the analytic eps-derivative.  Returns (eps_star, mse).  The
    error is not convex in eps for every geometry (it can rise, dip, then
    rise again), so a global scan rather than a single root chase is
    required for a valid bound.
    """
    w = _weights_of(field_or_weights, source, scheme)
    cf = ClosedForm(source, scheme.T, link.tau, scheme.M, scheme.h)
    grid = np.linspace(0.0, 1.0 - 1e-9, grid_size)
    vals = cf.mse(grid, w)
    k = int(np.argmin(vals))
    if k == 0:
        return 0.0, float(vals[0])

    lo = grid[k - 1]
    hi = grid[min(k + 1, grid_size - 1)]
    d_lo, d_hi = cf.dmse(np.array([lo, hi]), w)
    if d_lo < 0.0 < d_hi:
        root = float(brentq(lambda e: float(cf.dmse(e, w)), lo, hi, xtol=tol))
        return root, float(cf.mse(root, w))
    return float(grid[k]), float(vals[k])


def upsilon(source: SourceParams, field: SensorField, link: LinkParams,
            scheme: SchemeConfig, ordering: str = "transmission") -> float:
    """Spatial-correlation threshold separating the two eps-shapes.

    For h != T/M the asynchronous error dips then rises in eps when the
    MSSC is below this value, and is monotone increasing otherwise.  The
    formula uses the squared spatial weights of the sensors in the last two
    transmission slots (M-1 and M); with ``ordering='reindexed'`` the two
    weakest weights are used instead.  The transmission-order reading is the
    one consistent with the sign of the eps-derivative at eps -> 0, which is
    driven by who covers the wrap-around gap at the period boundary.
    """
    _check_timing(link, scheme, need_h=True)
    a, h, T, M = source.a, scheme.h, scheme.T, scheme.M
    if ordering == "transmission":
        w = field.target_factors(source.b, power=2.0)
        w_pen, w_last = float(w[M - 2]), float(w[M - 1])
    elif ordering == "reindexed":
        ranked = reindex_by_correlation(source, field)
        w_pen, w_last = ranked.factors[-2], ranked.factors[-1]
    else:
        raise InvalidConfigError(f"unknown ordering {ordering!r}")
    q = math.exp(-2.0 * a * h)
    W = 1.0 - math.exp(-2.0 * a * (T - M * h))
    num = W * (w_pen - w_last * (1.0 - q))
    den = math.exp(2.0 * a * h) * (M - 1) * (1.0 - q) ** 2
    return num / den - 1.0 / (M - 1)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

class BoundAxis(str, enum.Enum):
    BLEP = "blep"
    SPATIAL = "spatial"


def bounds(source, field_or_weights, link, scheme, axis, eps_bar=None):
    """Lower/upper bounds of the average MSE along one axis.

    axis = BLEP    : extremes over the average block error probability
                     (upper bound sigma2 in both schemes; the asynchronous
                     lower bound sits at the global eps-minimizer of the
                     given spatial weights, which is eps = 0 in the
                     monotone case)
    axis = SPATIAL : extremes over the non-target spatial weights in [0, 1]

    ``field_or_weights`` is a field or the squared spatial weights in slot
    order (e.g. MSSC-substituted ones); only the asynchronous BLEP axis
    reads it.  Returns (lower, upper) as MseValue with the defining pieces
    in ``components``.  The no-inference scheme is treated as the
    synchronous scheme with M = 1.
    """
    axis = BoundAxis(axis)
    eff = scheme
    if scheme.scheme is Scheme.NO_INFER:
        eff = SchemeConfig(Scheme.SYN_INFER, T=scheme.T, h=None, M=1, m=1)
    _check_timing(link, eff, need_h=eff.scheme is Scheme.ASYN_INFER)
    eps = _eps(link, eps_bar)
    s2 = source.sigma2_x
    if axis is BoundAxis.BLEP:
        if eff.scheme is Scheme.ASYN_INFER:
            e_star, lower = eps_star_asyn(source, field_or_weights, link, eff)
            return (MseValue(lower, {"at": f"eps={e_star:.6g}", "eps_star": e_star}),
                    MseValue(s2, {"at": "eps=1"}))
        # synchronous: at eps = 0 only the target's own term survives,
        # sigma2 - c (1 - E)
        E = math.exp(-2.0 * source.a * eff.T)
        lower = float(s2 - _prefactor(source, link.tau, eff.T) * (1.0 - E))
        return (MseValue(lower, {"at": "eps=0"}), MseValue(s2, {"at": "eps=1"}))

    M = eff.M
    cf = ClosedForm(source, eff.T, link.tau, M, eff.h)
    # spatial axis: every non-target weight at 1, then at 0
    target = 1 if eff.scheme is Scheme.SYN_INFER else eff.m
    extremes = np.array([np.ones(M), mssc_weights(M, target, 0.0)])
    lower, upper = (float(v) for v in cf.mse(eps, extremes))
    comp = {"eps_bar": eps}
    if eff.scheme is Scheme.SYN_INFER:
        # reduction by the target's own packets; sensor s adds beta_syn eps^(s-1)
        comp["beta_syn"] = s2 - upper
    return (MseValue(lower, dict(comp, at="weights=1")),
            MseValue(upper, dict(comp, at="weights=0")))


__all__ = [
    "Scheme", "SchemeConfig", "MseValue", "ReindexedField", "BoundAxis",
    "reindex_by_correlation", "ClosedForm", "mssc_weights", "psi_values",
    "dpsi_deps", "mse_no_infer", "mse_syn_infer", "mse_syn_infer_approx",
    "mse_asyn_infer", "mse_asyn_infer_approx", "average_mse",
    "dmse_asyn_deps", "eps_star_asyn", "upsilon", "bounds",
]
