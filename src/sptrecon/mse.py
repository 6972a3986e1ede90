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
complex step of the one value formula (:func:`blep._complex_step`).

Every form is sigma2 (1 - k R(eps)), exactly linear in the source variance
sigma2, so the kernel works at unit variance and sigma2 is one multiply
where a value leaves the module: in :func:`average_mse`, in the minimum
:func:`eps_star_asyn` returns and in :func:`bounds`.

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

from .blep import LinkParams, _complex_step, blep_average
from .errors import BracketError, InvalidConfigError, _check_scale
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


def reindex_by_correlation(params: SourceParams, field: SensorField) -> np.ndarray:
    """Rank sensors by spatial usefulness for inferring the target.

    The 1-based sensor indices by descending squared spatial weight
    exp(-2 b r_mn); the target comes first among equal weights, then
    ascending index.
    """
    fac = field.target_factors(params.b)
    idx = np.arange(1, field.n_sensors + 1)
    return np.lexsort((idx, idx != field.target_index, -fac)) + 1


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
    the tolerance of an integer counts as that integer.  Raises
    InvalidConfigError where a shifted cap has no 64-bit integer value."""
    if np.ndim(shift) == 0 and shift == 0:
        return math.ceil(T / T_s - _TIMING_TOL) - 1
    ratio = (T - shift) / T_s + _TIMING_TOL
    if not np.all(np.abs(ratio) < 2.0 ** 63):  # NaN too
        raise InvalidConfigError(
            f"blocklength cap (T - (M - 1) h) / T_s at T={T}, T_s={T_s} and "
            f"(M - 1) h up to {np.max(shift)} is outside the 64-bit integer range")
    n = np.floor(ratio).astype(int)
    return int(n) if n.ndim == 0 else n


def shift_count(T: float, T_s: float, M: int, N):
    """Number of grid shifts h = T_s, 2 T_s, ... that fit blocklength(s) N:
    those with N <= max_blocklength(T, T_s, (M - 1) h).  Broadcasts over N."""
    _check_scale("range", T / T_s / (M - 1), "the time-shift range")
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


def _unit_interval(value, what: str):
    """value, an average BLEP or an MSSC, as a float (a scalar) or a float
    array; InvalidConfigError naming ``what`` unless it lies in [0, 1]."""
    v = np.asarray(value, dtype=float)
    outside = v[~((v >= 0.0) & (v <= 1.0))]
    if outside.size:
        raise InvalidConfigError(f"{what} takes values in [0, 1], got {float(outside[0])}")
    return float(v) if v.ndim == 0 else v


def _eps(link: LinkParams, eps_bar):
    """eps_bar, the link's own average BLEP when None, in [0, 1]."""
    return _unit_interval(blep_average(link) if eps_bar is None else eps_bar, "average BLEP")


# ---------------------------------------------------------------------------
# array kernel: every closed form is one call of it
# ---------------------------------------------------------------------------

# sum over the last axis of an elementwise product, broadcasting the rest
_vecdot = functools.partial(np.einsum, "...i,...i->...")


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
    """x as a float or complex array (0-d for a scalar, so a value does not
    depend on whether it is scored alone or in a batch), and x with a
    trailing axis for the M per-sensor terms."""
    x = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
    return x, x[..., None]


class ClosedForm:
    """Closed-form average MSE at unit source variance, as an array kernel
    in the average BLEP eps: 1 - k R(eps), with
    k = gamma_o exp(-2 a tau) / (2 a T (gamma_o + 1)).  The caller
    multiplies by sigma2, which the kernel never reads.

    The constructor computes everything that does not depend on eps, so a
    search over eps (a grid scan, a root finder) pays for it once.

    T, M : period and number of sensors
    tau  : packet delay; it enters through k only
    h    : time shift for the asynchronous form, or None for the
           synchronous form (M = 1 is the no-inference form); a complex
           h carries a complex step in h

    tau and h may be arrays.  They broadcast against each other, against
    the ``eps`` passed to the methods and against ``weights[..., 0]``,
    whose last axis runs over the M sensors: in descending order for the
    synchronous form (target first), in transmission-slot order for the
    asynchronous one.  Every denominator is positive on eps in [0, 1] while
    E = exp(-2 a T) < 1, so eps = 1 needs no special case; once 2 a T <=
    2^-54 (about 5.6e-17) E rounds to 1 and the form is 0/0 at eps = 1.
    Each form is written once, for its value; :meth:`dmse` is its complex step.
    """

    def __init__(self, source: SourceParams, T: float, tau, M: int, h=None):
        a = source.a
        self.M, self.h = M, h
        self.E = math.exp(-2.0 * a * T)
        self.k = (source.gamma_o * np.exp(-2.0 * a * tau)
                  / (2.0 * a * T * (source.gamma_o + 1.0)))
        self.n, self.p = _eps_powers(M, h is not None)
        if h is not None:
            h, hn = _lift(h)
            self.q = np.exp(-2.0 * a * h)
            self.one_q = 1.0 - _lift(self.q)[1]
            # exp(2 a h (n-1)) (q^M - E) as a difference of two terms in (0, 1]
            self.slot = (np.exp(-2.0 * a * hn * (M - self.n + 1.0))
                         - np.exp(-2.0 * a * (T - hn * (self.n - 1.0))))

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
        """R with MSE = 1 - k R."""
        if self.h is None:
            # R = (1-E) sum_s w_s A_s, A_s = eps^(s-1) (1-eps) / (1 - E eps^M)
            return (1.0 - self.E) * _vecdot(weights, self._eps_factor(eps))
        # R = (1-eps) sum_n w_n Psi_n / (1 - q eps); np.multiply, because at
        # one eps both factors are numpy scalars, whose complex product
        # rounds unlike the array loop's, which a complex step must match
        e = _lift(eps)[0]
        return np.multiply(1.0 - e, _vecdot(weights, self.psi(eps))) / (1.0 - self.q * e)

    def mse(self, eps, weights):
        """Average MSE 1 - k R(eps)."""
        return 1.0 - self.k * self._reduction(eps, weights)

    def dmse(self, eps, weights):
        """d MSE / d eps = -k R'(eps), R' the complex step of
        :meth:`_reduction` in eps."""
        return -self.k * _complex_step(lambda e: self._reduction(e, weights), eps)

    def mse_grid(self, eps, weights, rows=slice(None), width=None):
        """Asynchronous MSE on an outer grid, one grid per weight vector:
        the delays tau (1-D, or one scalar) down the rows against the 1-D
        time shifts h across the columns, so tau and h need not broadcast
        here.  ``eps`` is 1-D and aligned with tau; the grid covers the
        ``rows`` slice of both and the first ``width`` shifts (all by
        default).  ``weights`` is one vector or a (lanes, M) stack; yields
        one (rows x width) grid per vector, in order.

        The slot sum separates into an h part and an eps part,
        sum_n w_n Psi_n = (1-q) sum_n w_n + sum_n [w_n slot_n] A_n(eps),
        so k (1-eps) times it is one (rows x (M+1))((M+1) x width) product:
        the row factor k (1-eps) [A_1 .. A_M, 1] against the columns
        [w_1 slot_1 .. w_M slot_M, (1-q) sum_n w_n].  The row factor and
        1 - eps q read no weight, so they are formed once per call; each
        vector then takes its own product on a contiguous column factor,
        a division by 1 - eps q and a subtraction from 1.  The arrays have
        the shapes of a one-vector call, so a vector's grid has the same
        bits in a stack as alone.
        """
        e = np.asarray(eps, dtype=float)[rows]
        k = self.k[rows] if np.ndim(self.k) else self.k
        cols, M = slice(width), self.M
        q = self.q[cols]
        left = np.empty((e.size, M + 1))
        left[:, M] = k * (1.0 - e)
        np.multiply(self._eps_factor(e), left[:, M:], out=left[:, :M])
        den = np.einsum("i,j->ij", e, q)  # the outer product, faster than ufunc.outer
        np.subtract(1.0, den, out=den)
        slot, one_q = self.slot[cols].T, 1.0 - q
        right = np.empty((M + 1, q.size))
        for w in np.reshape(weights, (-1, M)):
            np.multiply(w[:, None], slot, out=right[:M])
            np.multiply(one_q, np.sum(w), out=right[M])
            S = left @ right
            S /= den
            yield np.subtract(1.0, S, out=S)


# the weight vector of the M = 1 (no-inference) form: the target's own,
# read-only because every no-inference caller shares it
_OWN = np.broadcast_to(1.0, (1,))


def scheme_weights(source: SourceParams, field_or_weights, scheme: SchemeConfig,
                   mssc_value=None) -> np.ndarray:
    """Squared spatial weights of the ``scheme.scheme`` closed form, last
    axis over the sensors.

    no-infer : the target's own weight only (the M = 1 form)
    MSSC     : every non-target weight set to ``mssc_value`` (a float or an
               array), the target first (syn) or in slot m (asyn); M >= 2
    syn/asyn : the field's weights in descending / transmission-slot order,
               or ``field_or_weights`` itself when it is a weight vector
               or a (..., M) stack of them
    Raises InvalidConfigError unless there are M weights, when a field's
    target is not the scheme's target m, or when an MSSC value leaves
    [0, 1], for every scheme.
    """
    rho = None if mssc_value is None else _unit_interval(mssc_value, "MSSC")
    kind = scheme.scheme
    if kind is Scheme.NO_INFER:
        return _OWN
    asyn = kind is Scheme.ASYN_INFER
    if rho is not None:
        if scheme.M < 2:
            raise InvalidConfigError("the MSSC approximation needs M >= 2")
        # an array of MSSC values gives one weight vector per value
        w = np.repeat(np.asarray(rho)[..., None], scheme.M, axis=-1)
        w[..., (scheme.m if asyn else 1) - 1] = 1.0
        return w
    if not isinstance(field_or_weights, SensorField):
        w = np.asarray(field_or_weights, dtype=float)
    elif field_or_weights.target_index != scheme.m:
        raise InvalidConfigError(f"field target {field_or_weights.target_index}"
                                 f" is not the scheme's m={scheme.m}")
    elif asyn:
        w = field_or_weights.target_factors(source.b)
    else:
        order = reindex_by_correlation(source, field_or_weights)
        w = field_or_weights.target_factors(source.b)[order - 1]
    if w.shape[-1:] != (scheme.M,):
        raise InvalidConfigError(f"need {scheme.M} spatial weights, "
                                 f"got {w.shape[-1] if w.ndim else 1}")
    return w


def average_mse(source: SourceParams, field_or_weights, link: LinkParams,
                scheme: SchemeConfig, eps_bar=None, mssc_value=None):
    """Average MSE of the closed form that ``scheme.scheme`` names.

    no-infer : sigma2 (1 - k (1-E) (1-eps) / (1 - E eps)), the target's own
               packets
    syn      : sigma2 (1 - k (1-E) (1-eps) sum_s w_s eps^(s-1) / (1 - E eps^M)),
               w_s descending (the most correlated packet of the newest round)
    asyn     : sigma2 (1 - k (1-eps) sum_n w_n Psi_n / (1 - q eps)), w_n in slot
               (sensor index) order, Psi_n from :meth:`ClosedForm.psi`

    with k = gamma_o exp(-2 a tau) / (2 a T (gamma_o + 1)).

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
    val = source.sigma2_x * cf.mse(eps, w)
    return float(val) if np.ndim(val) == 0 else val


# ---------------------------------------------------------------------------
# interior minimizer and MSSC threshold of the asynchronous form
# ---------------------------------------------------------------------------

# the cap on the refine's steps; on random geometries it ends in 4-13
_REFINE_STEPS = 100


def eps_star_asyn(source, field_or_weights, link, scheme, grid_size=512):
    """Global minimizer of the asynchronous MSE over eps in [0, 1).

    One minimizer per weight vector of ``field_or_weights``: a field, one
    vector or a (..., M) stack of them (:func:`scheme_weights`).  Scores a
    dense grid of ``grid_size`` points for every vector in one
    :class:`ClosedForm` call.  Where the analytic eps-derivative changes
    sign across the best grid point's neighbours, its root is refined by
    Illinois false position (Dowell & Jarratt 1971): secant steps inside the
    bracket, halving the slope of an end kept twice in a row, until the
    slope is exactly 0 or a step lands on an end, so the root sits at the
    sign change to rounding.  The brackets step together, lane by lane, and
    a lane leaves the refine when it ends.  A NaN slope or a lane with no
    end within ``_REFINE_STEPS`` steps raises BracketError.  Returns
    (eps_star, mse): two floats for a field or one vector, else two arrays
    of the stack's shape.  The error is not convex in eps for every
    geometry (it can rise, dip, then rise again), so a global scan rather
    than a single root chase is required for a valid bound.  The scan and
    the refine run at unit variance; only the returned minimum is scaled by
    sigma2.  A scheme that is not asynchronous raises InvalidConfigError, a
    (grid_size x M) scan past the sensor-array scale limit ScaleLimitError.
    """
    if scheme.scheme is not Scheme.ASYN_INFER:
        raise InvalidConfigError("eps_star_asyn needs an asynchronous config")
    _check_scale("sensor_bytes", 8 * grid_size * scheme.M,
                 f"the {grid_size}-point eps grid of {scheme.M} sensors")
    w = scheme_weights(source, field_or_weights, scheme)
    lanes = w.reshape(-1, scheme.M)
    cf = ClosedForm(source, scheme.T, link.tau, scheme.M, scheme.h)
    grid = np.linspace(0.0, 1.0 - 1e-9, grid_size)
    vals = cf.mse(grid, lanes[:, None])  # (lanes, grid_size)
    k = np.argmin(vals, axis=1)
    eps, out = grid[k], vals[np.arange(len(k)), k]

    # the lanes whose slope changes sign across an interior best point
    r = np.flatnonzero(k)
    lo, hi = grid[k[r] - 1], grid[np.minimum(k[r] + 1, grid_size - 1)]
    d_lo, d_hi = cf.dmse(np.stack([lo, hi], axis=1), lanes[r, None]).T
    inner = (d_lo < 0.0) & (d_hi > 0.0)
    r, lo, hi, d_lo, d_hi = r[inner], lo[inner], hi[inner], d_lo[inner], d_hi[inner]
    refined = r
    kept = np.zeros(r.size)  # +1 or -1: the last step kept hi or lo
    for _ in range(_REFINE_STEPS):
        if not r.size:
            break
        x = np.minimum(lo - d_lo * (hi - lo) / (d_hi - d_lo), hi)  # rounding can pass hi
        inside = (lo < x) & (x < hi)
        d_x = np.zeros(r.size)  # on an end: done
        d_x[inside] = cf.dmse(x[inside], lanes[r[inside]])
        if np.isnan(d_x).any():
            raise BracketError(f"eps_star_asyn: NaN slope at eps = "
                               f"{float(x[np.isnan(d_x)][0])!r}")
        done, neg = d_x == 0.0, d_x < 0.0
        eps[r[done]] = x[done]
        d_hi = np.where(neg, np.where(kept == 1, d_hi / 2, d_hi), d_x)
        d_lo = np.where(neg, d_x, np.where(kept == -1, d_lo / 2, d_lo))
        lo, hi, kept = np.where(neg, x, lo), np.where(neg, hi, x), np.where(neg, 1, -1)
        go = ~done
        r, lo, hi, d_lo, d_hi, kept = r[go], lo[go], hi[go], d_lo[go], d_hi[go], kept[go]
    if r.size:
        raise BracketError(f"eps_star_asyn: the refine on [{float(lo[0])!r}, "
                           f"{float(hi[0])!r}] did not end in {_REFINE_STEPS} steps")
    out[refined] = cf.mse(eps[refined], lanes[refined])
    out *= source.sigma2_x
    if w.ndim == 1:
        return float(eps[0]), float(out[0])
    return eps.reshape(w.shape[:-1]), out.reshape(w.shape[:-1])


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
    order (e.g. MSSC-substituted ones), one vector or a (..., M) stack;
    only the asynchronous BLEP axis reads it.  Returns (lower, upper) as
    floats, except that the asynchronous BLEP-axis lower bound of a stack
    is an array of the stack's shape (:func:`eps_star_asyn`).  The
    no-inference scheme is treated as the synchronous scheme with M = 1.
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
    # no-inference form sigma2 (1 - k (1 - E))
    unit = ClosedForm(source, scheme.T, link.tau, 1).mse(0.0, _OWN)
    return source.sigma2_x * float(unit), source.sigma2_x


__all__ = [
    "Scheme", "SchemeConfig", "BoundAxis",
    "reindex_by_correlation", "ClosedForm", "scheme_weights",
    "average_mse", "eps_star_asyn", "upsilon", "bounds",
    "max_blocklength", "shift_count",
]
