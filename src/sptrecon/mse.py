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

Each also has an MSSC-substituted version (every non-target spatial weight
set to the mean squared spatial correlation).  :func:`average_mse` returns
all six as plain numbers, ``scheme.scheme`` picking the form, from the
array kernel :class:`ClosedForm`, which also gives Psi_n and d/d eps, the
complex step of the one value formula (:func:`_complex_step`).

Throughout, eps denotes the fading-averaged block error probability, E the
squared temporal correlation over one period exp(-2 a T), and q its analog
over one time shift exp(-2 a h).  Spatial weights enter as exp(-2 b r_mn).

The module also provides the error bounds with respect to eps and with
respect to the spatial weights, the MSSC threshold below which the
asynchronous error falls as eps leaves 0, and the interior eps-minimizer
for when packet loss actually helps.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

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
    fac = field.target_factors(params.b)
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
# array kernel: every closed form is one call of it
# ---------------------------------------------------------------------------

def _prefactor(source: SourceParams, tau, T: float):
    """sigma2 gamma_o exp(-2 a tau) / (2 a T (gamma_o + 1)), elementwise in tau."""
    return (source.sigma2_x * source.gamma_o * np.exp(-2.0 * source.a * tau)
            / (2.0 * source.a * T * (source.gamma_o + 1.0)))


# the complex step d: far below the rounding of any real part, which stays
# f(x) to the last bit, and far above the underflow of d f'
_STEP = 1e-150


def _complex_step(f, x):
    """f'(x) = Im f(x + i d) / d for f analytic at the real x (or array x),
    exact to rounding with no cancellation (Squire & Trapp 1998)."""
    return f(np.add(x, _STEP * 1j)).imag / _STEP


# sum over the last axis of an elementwise product, broadcasting the rest
_vecdot = getattr(np, "vecdot", None) or (lambda x, y: (x * y).sum(axis=-1))


@functools.lru_cache(maxsize=None)
def _eps_powers(M: int, asyn: bool):
    """Slot numbers n = 1..M and the eps power of rank n (synchronous) or
    slot n (asynchronous)."""
    n = np.arange(1.0, M + 1)
    out = (n, M - n if asyn else n - 1.0)
    for arr in out:
        arr.flags.writeable = False  # shared by every caller through the cache
    return out


def _lift(x):
    """x, and x with a trailing axis for the M per-sensor terms.

    A float or complex scalar stays a scalar, which keeps scalar calls cheap.
    """
    if isinstance(x, (float, complex)):
        return x, x
    x = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
    return x, x[..., None]


class ClosedForm:
    """Closed-form average MSE as an array kernel in the average BLEP eps.

    The constructor computes everything that does not depend on eps, so a
    search over eps (a grid scan, a root finder) pays for it once.

    T, M : period and number of sensors
    tau  : packet delay; it only scales :meth:`mse` and :meth:`dmse`
    h    : time shift for the asynchronous form, or None for the
           synchronous form (M = 1 is the no-inference form); a complex
           h carries a complex step in h

    tau and h may be arrays.  They broadcast against each other, against
    the ``eps`` passed to the methods and against ``weights[..., 0]``,
    whose last axis runs over the M sensors: in descending order for the
    synchronous form (target first), in transmission-slot order for the
    asynchronous one.  Every form is a quotient with a positive
    denominator on eps in [0, 1], so eps = 1 needs no special case.  Each
    form is written once, for its value; :meth:`dmse` is its complex step.
    """

    def __init__(self, source: SourceParams, T: float, tau, M: int, h=None):
        a = source.a
        self.s2, self.M, self.h = source.sigma2_x, M, h
        self.E = math.exp(-2.0 * a * T)
        self.c = _prefactor(source, tau, T)
        self.n, self.p = _eps_powers(M, h is not None)
        if h is not None:
            h, hn = _lift(h)
            self.q = np.exp(-2.0 * a * h)
            self.one_q = 1.0 - _lift(self.q)[1]
            # exp(2 a h (n-1)) (q^M - E)
            self.slot = (np.exp(2.0 * a * hn * (self.n - 1.0))
                         * (np.exp(-2.0 * a * hn * M) - self.E))

    def _eps_factor(self, eps):
        """A_n = eps^(M-n) (1-eps) / (1 - E eps^M) on a new last axis
        n = 1..M, the eps part of Psi_n."""
        e = _lift(eps)[1]
        return e ** self.p * (1.0 - e) / (1.0 - self.E * e ** self.M)

    def psi(self, eps):
        """Asynchronous slot weights Psi_n on a new last axis n = 1..M.

        Psi_n = 1 - q + slot_n A_n(eps), with slot_n = exp(2ah(n-1)) (q^M - E)
        the h part and A_n the eps part (:meth:`_eps_factor`).
        """
        return self.one_q + self.slot * self._eps_factor(eps)

    def _reduction(self, eps, weights):
        """R with MSE = sigma2 - c R.  The real weights come first in each
        ``_vecdot``, as ``np.vecdot`` conjugates its first argument."""
        if self.h is None:
            # R = (1-E) sum_s w_s A_s, A_s = eps^(s-1) (1-eps) / (1 - E eps^M)
            return (1.0 - self.E) * _vecdot(weights, self._eps_factor(eps))
        # R = (1-eps) sum_n w_n Psi_n / (1 - q eps)
        e = _lift(eps)[0]
        return (1.0 - e) * _vecdot(weights, self.psi(eps)) / (1.0 - self.q * e)

    def mse(self, eps, weights):
        """Average MSE sigma2 - c R(eps)."""
        return self.s2 - self.c * self._reduction(eps, weights)

    def dmse(self, eps, weights):
        """d MSE / d eps, the complex step of :meth:`mse` in eps."""
        return _complex_step(lambda e: self.mse(e, weights), eps)

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


# the weight vector of the M = 1 (no-inference) form: the target's own,
# read-only because every no-inference caller shares it
_OWN = np.broadcast_to(1.0, (1,))


def mssc_weights(M: int, target: int, mssc_value) -> np.ndarray:
    """Squared spatial weights with every non-target entry set to the MSSC
    (an array of MSSC values gives one weight vector per value)."""
    w = np.repeat(np.asarray(mssc_value, dtype=float)[..., None], M, axis=-1)
    w[..., target - 1] = 1.0
    return w


def scheme_weights(source: SourceParams, field_or_weights, scheme: SchemeConfig,
                   mssc_value=None) -> np.ndarray:
    """Squared spatial weights of the ``scheme.scheme`` closed form, last
    axis over the sensors.

    no-infer : the target's own weight only (the M = 1 form)
    MSSC     : every non-target weight set to ``mssc_value`` (a float or an
               array), the target first (syn) or in slot m (asyn); M >= 2
    syn/asyn : the field's weights in descending / transmission-slot order,
               or ``field_or_weights`` itself when it is a weight vector
    Raises InvalidConfigError unless there are M weights, or when a field's
    target is not the scheme's target m.
    """
    kind = scheme.scheme
    if kind is Scheme.NO_INFER:
        return _OWN
    asyn = kind is Scheme.ASYN_INFER
    if mssc_value is not None:
        if scheme.M < 2:
            raise InvalidConfigError("the MSSC approximation needs M >= 2")
        return mssc_weights(scheme.M, scheme.m if asyn else 1, mssc_value)
    if not isinstance(field_or_weights, SensorField):
        w = np.asarray(field_or_weights, dtype=float)
    elif field_or_weights.target_index != scheme.m:
        raise InvalidConfigError(f"field target {field_or_weights.target_index}"
                                 f" is not the scheme's m={scheme.m}")
    elif asyn:
        w = field_or_weights.target_factors(source.b)
    else:
        w = np.asarray(reindex_by_correlation(source, field_or_weights).factors)
    if w.ndim != 1 or len(w) != scheme.M:
        raise InvalidConfigError(f"need {scheme.M} spatial weights, got {w.size}")
    return w


def average_mse(source: SourceParams, field_or_weights, link: LinkParams,
                scheme: SchemeConfig, eps_bar=None, mssc_value=None):
    """Average MSE of the closed form that ``scheme.scheme`` names.

    no-infer : sigma2 - c (1-E) (1-eps) / (1 - E eps), the target's own packets
    syn      : sigma2 - c (1-E) (1-eps) sum_s w_s eps^(s-1) / (1 - E eps^M), w_s
               descending (the most correlated packet of the newest round)
    asyn     : sigma2 - c (1-eps) sum_n w_n Psi_n / (1 - q eps), w_n in slot
               (sensor index) order, Psi_n from :meth:`ClosedForm.psi`

    The weights come from :func:`scheme_weights` (``mssc_value`` gives the
    MSSC-substituted form), eps from ``eps_bar`` (default: the link's own
    average BLEP).  InvalidConfigError when the timing does not fit or eps
    leaves [0, 1].  A float, or an array for an array eps_bar or mssc_value.
    """
    w = scheme_weights(source, field_or_weights, scheme, mssc_value)
    asyn = scheme.scheme is Scheme.ASYN_INFER
    _check_timing(link, scheme, need_h=asyn)
    eps = _eps(link, eps_bar)
    cf = ClosedForm(source, scheme.T, link.tau, w.shape[-1], scheme.h if asyn else None)
    val = cf.mse(eps, w)
    return float(val) if np.ndim(val) == 0 else val


# ---------------------------------------------------------------------------
# interior minimizer and MSSC threshold of the asynchronous form
# ---------------------------------------------------------------------------

# the cap on the refine's steps; on random geometries it ends in 4-13
_REFINE_STEPS = 100


def eps_star_asyn(source, field_or_weights, link, scheme, grid_size=512):
    """Global minimizer of the asynchronous MSE over eps in [0, 1).

    Scores a dense grid of ``grid_size`` points in one :class:`ClosedForm`
    call.  Where the analytic eps-derivative changes sign across the best
    grid point's neighbours, its root is refined by Illinois false position
    (Dowell & Jarratt 1971): secant steps inside the bracket, halving the
    slope of an end kept twice in a row, until the slope is exactly 0 or a
    step lands on an end, so the root sits at the sign change to rounding.
    A NaN slope or no end within ``_REFINE_STEPS`` steps raises
    BracketError.  Returns (eps_star, mse).  The error is not convex in eps
    for every geometry (it can rise, dip, then rise again), so a global
    scan rather than a single root chase is required for a valid bound.
    A scheme that is not asynchronous raises InvalidConfigError.
    """
    if scheme.scheme is not Scheme.ASYN_INFER:
        raise InvalidConfigError("eps_star_asyn needs an asynchronous config")
    w = scheme_weights(source, field_or_weights, scheme)
    cf = ClosedForm(source, scheme.T, link.tau, scheme.M, scheme.h)
    grid = np.linspace(0.0, 1.0 - 1e-9, grid_size)
    vals = cf.mse(grid, w)
    k = int(np.argmin(vals))
    if k == 0:
        return 0.0, float(vals[0])

    lo, hi = float(grid[k - 1]), float(grid[min(k + 1, grid_size - 1)])
    d_lo, d_hi = cf.dmse(np.array([lo, hi]), w).tolist()
    if not d_lo < 0.0 < d_hi:
        return float(grid[k]), float(vals[k])
    kept = 0  # +1 or -1: the last step kept hi or lo
    for _ in range(_REFINE_STEPS):
        x = min(lo - d_lo * (hi - lo) / (d_hi - d_lo), hi)  # rounding can pass hi
        d_x = float(cf.dmse(x, w)) if lo < x < hi else 0.0  # on an end: done
        if math.isnan(d_x):
            raise BracketError(f"eps_star_asyn: NaN slope at eps = {x!r}")
        if d_x == 0.0:
            return x, float(cf.mse(x, w))
        if d_x < 0.0:
            lo, d_lo, d_hi, kept = x, d_x, (d_hi / 2 if kept == 1 else d_hi), 1
        else:
            hi, d_hi, d_lo, kept = x, d_x, (d_lo / 2 if kept == -1 else d_lo), -1
    raise BracketError(f"eps_star_asyn: the refine on [{lo!r}, {hi!r}] did not "
                       f"end in {_REFINE_STEPS} steps")


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
    w = field.target_factors(source.b)
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
    axis = SPATIAL : the MSSC-substituted form at MSSC 1 and at MSSC 0

    ``field_or_weights`` is a field or the squared spatial weights in slot
    order (e.g. MSSC-substituted ones); only the asynchronous BLEP axis
    reads it.  Returns (lower, upper) as floats.  The no-inference scheme
    is treated as the synchronous scheme with M = 1.
    """
    axis = BoundAxis(axis)
    if axis is BoundAxis.SPATIAL:
        # every non-target weight at 1, then at 0
        vals = average_mse(source, None, link, scheme, eps_bar, np.array([1.0, 0.0]))
        return tuple(np.broadcast_to(vals, (2,)).tolist())

    asyn = scheme.scheme is Scheme.ASYN_INFER
    _check_timing(link, scheme, need_h=asyn)
    _eps(link, eps_bar)
    if asyn:
        return eps_star_asyn(source, field_or_weights, link, scheme)[1], source.sigma2_x
    # synchronous: at eps = 0 only the target's own term survives, the
    # no-inference form sigma2 - c (1 - E)
    lower = float(ClosedForm(source, scheme.T, link.tau, 1).mse(0.0, _OWN))
    return lower, source.sigma2_x


__all__ = [
    "Scheme", "SchemeConfig", "ReindexedField", "BoundAxis",
    "reindex_by_correlation", "ClosedForm", "mssc_weights", "scheme_weights",
    "average_mse", "eps_star_asyn", "upsilon", "bounds",
    "max_blocklength", "shift_count",
]
