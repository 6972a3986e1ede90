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
import sys
from dataclasses import dataclass, field as dc_field

import numpy as np

from .blep import LinkParams, blep_average
from .errors import BracketError, InvalidConfigError
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

    scheme: Scheme = Scheme.SYN_INFER
    T: float = 0.150
    h: float | None = None
    M: int = 5
    m: int = 1

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        if not (self.T > 0 and math.isfinite(self.T)):
            raise InvalidConfigError(f"period T must be finite and > 0, got {self.T}")
        if self.h is not None and not math.isfinite(self.h):
            raise InvalidConfigError(f"time shift must be finite, got {self.h}")
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

# the timing rule N T_s + (M - 1) h <= T (N T_s < T without shifts) holds
# to this many symbol durations
_TIMING_TOL = 1e-9


def max_blocklength(T: float, T_s: float, shift=0.0):
    """Largest blocklength N with N T_s + shift <= T, where ``shift`` (a
    float or an array) is the shift time (M - 1) h.  Without shifts the
    delay must stay below the period, N T_s < T, and a ratio T / T_s within
    the tolerance of an integer counts as that integer."""
    if np.ndim(shift) == 0 and shift == 0:
        return math.ceil(T / T_s - _TIMING_TOL) - 1
    n = np.floor((T - shift) / T_s + _TIMING_TOL).astype(int)
    return int(n) if n.ndim == 0 else n


def shift_count(T: float, T_s: float, M: int, N):
    """Number of grid shifts h = T_s, 2 T_s, ... that fit blocklength(s) N:
    those with N <= max_blocklength(T, T_s, (M - 1) h).  Broadcasts over N."""
    k = np.arange(1, int(T / T_s) // (M - 1) + 2)
    caps = max_blocklength(T, T_s, (M - 1) * (k * T_s))  # non-increasing in k
    return np.searchsorted(-caps, -np.asarray(N), side="right")


def _check_timing(link: LinkParams, scheme: SchemeConfig, need_h: bool = False):
    """InvalidConfigError unless the link's blocklength fits the period
    (:func:`max_blocklength`) and, with ``need_h``, T_s <= h."""
    T, T_s = scheme.T, link.T_s
    if link.N > max_blocklength(T, T_s):
        raise InvalidConfigError(
            f"period T={T} must exceed the packet delay tau={link.tau}"
        )
    if need_h and not (T_s <= scheme.h
                       and link.N <= max_blocklength(T, T_s, (scheme.M - 1) * scheme.h)):
        raise InvalidConfigError(
            f"time shift h={scheme.h} outside feasible band "
            f"[{T_s}, {(T - link.tau) / (scheme.M - 1)}]"
        )


def _eps(link: LinkParams, eps_bar):
    """eps_bar (the link's own average BLEP when None) checked to lie in
    [0, 1]: a float for a scalar, else a float array."""
    e = blep_average(link) if eps_bar is None else eps_bar
    if isinstance(e, (int, float)) or np.ndim(e) == 0:
        e = float(e)
        outside = [] if 0.0 <= e <= 1.0 else [e]
    else:
        e = np.asarray(e, dtype=float)
        outside = e[~((e >= 0.0) & (e <= 1.0))]  # NaN too
    if len(outside):
        raise InvalidConfigError(f"average BLEP must lie in [0, 1], got {outside[0]}")
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
        self.a, self.s2, self.M, self.h = a, source.sigma2_x, M, h
        self.E = math.exp(-2.0 * a * T)
        self.c = _prefactor(source, tau, T)
        self.n, self.p, self.p1 = _eps_powers(M, h is not None)
        if h is not None:
            h, hn = _lift(h)
            self.q = np.exp(-2.0 * a * h)
            self.one_q = 1.0 - _lift(self.q)[1]
            # exp(2 a h (n-1)) (q^M - E)
            self.slot = (np.exp(2.0 * a * hn * (self.n - 1.0))
                         * (np.exp(-2.0 * a * hn * M) - self.E))

    def _eps_factor(self, eps, deriv: bool = False):
        """A_n = eps^(M-n) (1-eps) / (1 - E eps^M) on a new last axis
        n = 1..M, the eps part of Psi_n; with ``deriv`` returns (A, dA/deps)."""
        M, E = self.M, self.E
        e = _lift(eps)[1]
        pw, one_e = e ** self.p, 1.0 - e
        u, den = pw * one_e, 1.0 - E * e ** M
        if not deriv:
            return u / den
        du = self.p * one_e * e ** self.p1 - pw
        return u / den, _dquot(u, du, den, -M * E * e ** (M - 1))

    def psi(self, eps, deriv: bool = False):
        """Asynchronous slot weights Psi_n on a new last axis n = 1..M.

        Psi_n = 1 - q + slot_n A_n(eps), with slot_n = exp(2ah(n-1)) (q^M - E)
        the h part and A_n the eps part (:meth:`_eps_factor`).
        With ``deriv`` returns (Psi, d Psi / d eps).
        """
        if not deriv:
            return self.one_q + self.slot * self._eps_factor(eps)
        A, dA = self._eps_factor(eps, deriv=True)
        return self.one_q + self.slot * A, self.slot * dA

    def _reduction(self, eps, weights, deriv=False):
        """R with MSE = sigma2 - c R; with ``deriv`` returns (R, dR / d eps)."""
        if self.h is None:
            # R = (1-E) sum_s w_s A_s, A_s = eps^(s-1) (1-eps) / (1 - E eps^M)
            if not deriv:
                return (1.0 - self.E) * _vecdot(weights, self._eps_factor(eps))
            return tuple((1.0 - self.E) * _vecdot(weights, A)
                         for A in self._eps_factor(eps, deriv=True))
        # R = (1-eps) sum_n w_n Psi_n / (1 - q eps)
        e, q = _lift(eps)[0], self.q
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

    def dmse_dh(self, eps, weights):
        """d MSE / dh of the asynchronous form at fixed eps and delay.

        From the same factors as :meth:`psi`: dq/dh = -2a q and
        d slot_n / dh = 2a [(n-1) slot_n - M q^(M-n+1)], then the quotient
        rule on R = (1-eps) S / (1 - q eps).
        """
        a, M, n = self.a, self.M, self.n
        e = _lift(eps)[0]
        hn, qn = _lift(self.h)[1], _lift(self.q)[1]
        dslot = 2.0 * a * ((n - 1.0) * self.slot
                           - M * np.exp(-2.0 * a * hn * (M - n + 1.0)))
        A = self._eps_factor(eps)
        S = _vecdot(weights, self.one_q + self.slot * A)
        dS = _vecdot(weights, 2.0 * a * qn + dslot * A)
        one_e = 1.0 - e
        return -self.c * _dquot(one_e * S, one_e * dS, 1.0 - self.q * e,
                                2.0 * a * self.q * e)

    def mse_grid(self, eps, weights, rows=slice(None), width=None):
        """Asynchronous MSE on an outer grid: the delays tau (1-D, or one
        scalar) down the rows against the 1-D time shifts h across the
        columns, so tau and h need not broadcast here.  ``eps`` is 1-D and
        aligned with tau; the grid covers the ``rows`` slice of both and
        the first ``width`` shifts (all by default).

        The slot sum separates into an h part and an eps part,
        sum_n w_n Psi_n = (1-q) sum_n w_n + sum_n [w_n slot_n] A_n(eps),
        so c (1-eps) times it is one (rows x (M+1))((M+1) x width) product:
        the row factor c (1-eps) [A_1 .. A_M, 1] against the columns
        [w_1 slot_1 .. w_M slot_M, (1-q) sum_n w_n].  Two (rows x width)
        passes form 1 - eps q, and two more divide by it and subtract the
        quotient from sigma2.
        """
        e = np.asarray(eps, dtype=float)[rows]
        c = self.c[rows] if np.ndim(self.c) else self.c
        cols, M = slice(width), self.M
        q = self.q[cols]
        left = np.empty((e.size, M + 1))
        left[:, M] = c * (1.0 - e)
        np.multiply(self._eps_factor(e), left[:, M:], out=left[:, :M])
        right = np.empty((M + 1, q.size))
        np.multiply(weights[:, None], self.slot[cols].T, out=right[:M])
        np.multiply(1.0 - q, np.sum(weights), out=right[M])
        S = left @ right
        den = np.einsum("i,j->ij", e, q)  # the outer product, faster than ufunc.outer
        S /= np.subtract(1.0, den, out=den)
        return np.subtract(self.s2, S, out=S)


# the weight vector of the M = 1 (no-inference) form: the target's own
_OWN = np.ones(1)


def mssc_weights(M: int, target: int, mssc_value) -> np.ndarray:
    """Squared spatial weights with every non-target entry set to the MSSC
    (an array of MSSC values gives one weight vector per value)."""
    w = np.repeat(np.asarray(mssc_value, dtype=float)[..., None], M, axis=-1)
    w[..., target - 1] = 1.0
    return w


def scheme_weights(source: SourceParams, field_or_weights, scheme: SchemeConfig,
                   kind: Scheme | None = None, mssc_value=None) -> np.ndarray:
    """Squared spatial weights of the ``kind`` closed form (default
    ``scheme.scheme``), last axis over the sensors.

    no-infer : the target's own weight only (the M = 1 form)
    MSSC     : every non-target weight set to ``mssc_value`` (a float or an
               array), the target first (syn) or in slot m (asyn); M >= 2
    syn/asyn : the field's weights in descending / transmission-slot order,
               or ``field_or_weights`` itself when it is a weight vector
    Raises InvalidConfigError unless there are M weights.
    """
    kind = scheme.scheme if kind is None else Scheme(kind)
    if kind is Scheme.NO_INFER:
        return _OWN
    asyn = kind is Scheme.ASYN_INFER
    if mssc_value is not None:
        if scheme.M < 2:
            raise InvalidConfigError("the MSSC approximation needs M >= 2")
        return mssc_weights(scheme.M, scheme.m if asyn else 1, mssc_value)
    if not isinstance(field_or_weights, SensorField):
        w = np.asarray(field_or_weights, dtype=float)
    elif asyn:
        w = field_or_weights.target_factors(source.b, power=2.0)
    else:
        w = np.asarray(reindex_by_correlation(source, field_or_weights).factors)
    if w.ndim != 1 or len(w) != scheme.M:
        raise InvalidConfigError(f"need {scheme.M} spatial weights, got {w.size}")
    return w


def _scored(kind, source, field_or_weights, link, scheme, eps_bar=None,
            mssc_value=None):
    """(eps, weights, MSE) of the ``kind`` closed form at one geometry: the
    weights from :func:`scheme_weights`, the timing and eps checks, then one
    kernel call.  ``eps_bar`` and ``mssc_value`` may be arrays."""
    w = scheme_weights(source, field_or_weights, scheme, kind, mssc_value)
    asyn = kind == Scheme.ASYN_INFER
    _check_timing(link, scheme, need_h=asyn)
    eps = _eps(link, eps_bar)
    cf = ClosedForm(source, scheme.T, link.tau, w.shape[-1], scheme.h if asyn else None)
    return eps, w, cf.mse(eps, w)


def _mse_value(kind, source, field_or_weights, link, scheme, eps_bar,
               mssc_value=None) -> MseValue:
    eps, _, val = _scored(kind, source, field_or_weights, link, scheme, eps_bar,
                          mssc_value)
    extra = {} if mssc_value is None else {"mssc": mssc_value}
    return MseValue(float(val), {"eps_bar": eps, **extra})


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
    return _mse_value(Scheme.NO_INFER, source, None, link, scheme, eps_bar)


def mse_syn_infer(source: SourceParams, field: SensorField, link: LinkParams,
                  scheme: SchemeConfig, eps_bar=None) -> MseValue:
    """Average MSE of the synchronous inference scheme.

    sigma2 - c (1-E) (1-eps) sum_s fac_s eps^(s-1) / (1 - E eps^M)
    with fac_s the squared spatial weights in descending order (the server
    picks the most correlated packet of the newest successful round).
    """
    return _mse_value(Scheme.SYN_INFER, source, field, link, scheme, eps_bar)


def mse_syn_infer_approx(source: SourceParams, mssc_value: float, link: LinkParams,
                         scheme: SchemeConfig, eps_bar=None) -> MseValue:
    """Synchronous closed form with every non-target weight set to the MSSC."""
    return _mse_value(Scheme.SYN_INFER, source, None, link, scheme, eps_bar,
                      mssc_value)


def mse_asyn_infer(source: SourceParams, field: SensorField, link: LinkParams,
                   scheme: SchemeConfig, eps_bar=None) -> MseValue:
    """Average MSE of the asynchronous inference scheme.

    sigma2 - c (1-eps) sum_n w_n Psi_n / (1 - q eps), with w_n the squared
    spatial weight of the sensor transmitting in slot n (slot order is the
    sensor index order).
    """
    return _mse_value(Scheme.ASYN_INFER, source, field, link, scheme, eps_bar)


def mse_asyn_infer_approx(source: SourceParams, mssc_value: float, link: LinkParams,
                          scheme: SchemeConfig, eps_bar=None) -> MseValue:
    """Asynchronous closed form with every non-target weight set to the MSSC."""
    return _mse_value(Scheme.ASYN_INFER, source, None, link, scheme, eps_bar,
                      mssc_value)


def average_mse(source, field, link, scheme, eps_bar=None) -> MseValue:
    """The closed form matching ``scheme.scheme``."""
    return _mse_value(scheme.scheme, source, field, link, scheme, eps_bar)


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
    w = scheme_weights(source, field_or_weights, scheme, Scheme.ASYN_INFER)
    cf = ClosedForm(source, scheme.T, link.tau, scheme.M, scheme.h)
    return float(cf.dmse(eps, w))


# Brent's method stops at |step| < (xtol + _BRENT_RTOL |x|) / 2 and gives up
# after _BRENT_MAXITER iterations, SciPy's defaults for brentq
_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _brentq(f, lo, hi, xtol):
    """Root of the scalar function f on the bracket [lo, hi] (Brent 1973).

    A line-for-line port of SciPy's ``brentq`` (``brentq.c``): the same
    arithmetic in the same order, so it evaluates f at the same points and
    returns the same float.  A bracket whose ends have the same sign, a NaN
    value of f, or no convergence within _BRENT_MAXITER iterations raises
    BracketError.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise BracketError(f"brentq: f({x!r}) is NaN")
        return fx

    xpre, xcur = float(lo), float(hi)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise BracketError(f"brentq: f has the same sign at both ends of "
                           f"[{xpre!r}, {xcur!r}] ({fpre!r}, {fcur!r})")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                num, den = -fcur * (xcur - xpre), fcur - fpre
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num = -fcur * (fblk * dblk - fpre * dpre)
                den = dblk * dpre * (fblk - fpre)
            # C's x / 0 is inf or NaN, which fails the step test and bisects
            stry = num / den if den != 0.0 else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise BracketError(f"brentq: no convergence in {_BRENT_MAXITER} "
                       f"iterations on [{lo!r}, {hi!r}]")


def eps_star_asyn(source, field_or_weights, link, scheme, grid_size=512,
                  tol=1e-10):
    """Global minimizer of the asynchronous MSE over eps in [0, 1).

    Scores a dense grid of ``grid_size`` points in one :class:`ClosedForm`
    call, then refines the best interior cell by Brent's method
    (:func:`_brentq`, SciPy's iterates) on the analytic eps-derivative.
    Returns (eps_star, mse).  The error is not convex in eps for every
    geometry (it can rise, dip, then rise again), so a global scan rather
    than a single root chase is required for a valid bound.
    """
    w = scheme_weights(source, field_or_weights, scheme, Scheme.ASYN_INFER)
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
        root = _brentq(lambda e: cf.dmse(e, w), lo, hi, tol)
        return root, float(cf.mse(root, w))
    return float(grid[k]), float(vals[k])


def upsilon(source: SourceParams, field: SensorField, link: LinkParams,
            scheme: SchemeConfig) -> float:
    """MSSC threshold below which the asynchronous error falls as eps leaves 0.

    The sign of :meth:`ClosedForm.dmse` at eps = 0: only transmission
    slots M-1 and M enter the slope there, with slot weights q^2 W and q W,
    W = 1 - exp(-2a(T - M h)), and the weights sum to 1 + (M-1) MSSC, so
    the slope is negative exactly when

        MSSC < [W q (q w_{M-1} - (2 - q) w_M) / (1 - q)^2 - 1] / (M - 1)

    with w_n the squared spatial weight of the sensor in slot n.  The sign
    at 0 is not the whole shape: the error can rise, dip, then rise again,
    so :func:`eps_star_asyn` keeps its global scan.
    """
    _check_timing(link, scheme, need_h=True)
    a, M = source.a, scheme.M
    w = field.target_factors(source.b, power=2.0)
    q = math.exp(-2.0 * a * scheme.h)
    W = 1.0 - math.exp(-2.0 * a * (scheme.T - M * scheme.h))
    lead = W * q * (q * float(w[M - 2]) - (2.0 - q) * float(w[M - 1])) / (1.0 - q) ** 2
    return (lead - 1.0) / (M - 1)


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
    kind, s2 = scheme.scheme, source.sigma2_x
    asyn = kind is Scheme.ASYN_INFER
    if axis is BoundAxis.SPATIAL:
        # every non-target weight at 1, then at 0
        eps, _, vals = _scored(kind, source, None, link, scheme, eps_bar,
                               mssc_value=np.array([1.0, 0.0]))
        lower, upper = np.broadcast_to(vals, (2,)).tolist()
        comp = {"eps_bar": eps}
        if not asyn:
            # reduction by the target's own packets; sensor s adds beta_syn eps^(s-1)
            comp["beta_syn"] = s2 - upper
        return (MseValue(lower, dict(comp, at="weights=1")),
                MseValue(upper, dict(comp, at="weights=0")))

    _check_timing(link, scheme, need_h=asyn)
    _eps(link, eps_bar)
    if asyn:
        e_star, lower = eps_star_asyn(source, field_or_weights, link, scheme)
        return (MseValue(lower, {"at": f"eps={e_star:.6g}", "eps_star": e_star}),
                MseValue(s2, {"at": "eps=1"}))
    # synchronous: at eps = 0 only the target's own term survives, the
    # no-inference form sigma2 - c (1 - E)
    lower = float(_scored(Scheme.NO_INFER, source, None, link, scheme, 0.0)[2])
    return (MseValue(lower, {"at": "eps=0"}), MseValue(s2, {"at": "eps=1"}))


__all__ = [
    "Scheme", "SchemeConfig", "MseValue", "ReindexedField", "BoundAxis",
    "reindex_by_correlation", "ClosedForm", "mssc_weights", "scheme_weights",
    "psi_values", "dpsi_deps", "mse_no_infer", "mse_syn_infer",
    "mse_syn_infer_approx", "mse_asyn_infer", "mse_asyn_infer_approx",
    "average_mse", "dmse_asyn_deps", "eps_star_asyn", "upsilon", "bounds",
    "max_blocklength", "shift_count",
]
