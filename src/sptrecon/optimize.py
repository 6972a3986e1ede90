"""Blocklength and time-shift adaptation.

Shorter packets age less but fail more, so the average reconstruction
error has an interior optimum in the blocklength N; the asynchronous
scheme adds a time shift h trading intra-period freshness against the
wrap-around gap at the period boundary.

Both coordinates are integer indices, N and the shift index k of
h = k T_s, so each adaptation step is the exact integer argmin of the
objective over its range, scored in one array call, ties to the smallest
index.  The objective uses the single-exponential simplified average
block error probability (BLEP), which is analytic in N, and the
stationarity functions

    H(N) = d MSE_syn / dN,   J(h) = d MSE_asyn / dh,   F(N) = d MSE_asyn / dN

are one slope rule, :func:`_dmse`: the complex step of the objective in N
or in h, exact to rounding.  A step reports |H|, |J| or |F| at the integer
it returns as a diagnostic.  The module also provides the alternating joint
optimizer and exhaustive-search baselines.  An exhaustive search scans a
stack of weight vectors as lanes of one pass over the geometry: the BLEP
vector, the kernel, the grid's left factor, denominator and shift mask are
formed once, and each lane takes its own matrix product on them, so a lane
gives the bits of a search with its vector alone.  Reported ``mse_star``
values are re-evaluated with the closed-form average BLEP model.

The MSE is exactly linear in the source variance sigma2, so every step
scores and compares the objective at unit variance.  sigma2 multiplies each
slope once and each result once, in ``objective_star`` and the trace's
``mse``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .blep import LinkParams, _complex_step, blep_average, blep_average_simplified
from .errors import BracketError, InvalidConfigError, ScaleLimitError
from .field import SensorField, SourceParams
from .mse import (_TIMING_TOL, ClosedForm, Scheme, SchemeConfig, _check_range,
                  average_mse, max_blocklength, scheme_weights, shift_count)

DEFAULT_N_MIN = 10

# (N, h) points the asynchronous exhaustive search scores per array call;
# bounds its (rows x width) temporaries to about 128 kB each
_GRID_CHUNK = 16384
# the most (N, h) points one asynchronous exhaustive search may score, about
# 240 times the largest bundled grid (277,140); at about 7 ns a point a full
# grid takes about half a second
_MAX_GRID = 1 << 26


@dataclass(frozen=True)
class OptimizerConfig:
    """Bounds and stopping rules for the adaptation routines.

    N_min / N_max : blocklength bounds in channel uses (N_max None = from
                    the period constraint); N_min is the only blocklength
                    floor
    I_max         : alternating-optimization iteration cap; ``jtsbo`` stops
                    earlier once an iteration leaves (N, h) unchanged
    """

    N_min: int = DEFAULT_N_MIN
    N_max: int | None = None
    I_max: int = 3

    def __post_init__(self):
        if self.N_min < 1 or self.I_max < 1:
            raise InvalidConfigError("N_min and I_max must be >= 1")
        if self.N_max is not None and self.N_max < self.N_min:
            raise InvalidConfigError(f"N_max={self.N_max} is below N_min={self.N_min}")


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    h_s: float | None
    N: int
    mse: float
    residual_h: float
    residual_N: float


@dataclass
class OptResult:
    # N_star, h_star, mse_star and objective_star are arrays of the stack's
    # shape for an exhaustive search over a stack of weight vectors
    scheme: Scheme
    N_star: int
    h_star: float | None
    mse_star: float
    objective_star: float
    iterations: int
    converged: bool
    branch: str
    trace: list = dc_field(default_factory=list)
    evaluations: int | None = None


# ---------------------------------------------------------------------------
# objectives under the simplified BLEP model (consistent with H, J, F)
# ---------------------------------------------------------------------------

def _objective(source, field, link, scheme, N, h=None, eps=None):
    """MSE at unit source variance, at blocklength(s) N and time shift(s) h
    (None for the synchronous form) under the simplified BLEP model, or at
    the average BLEP(s) ``eps``, aligned with N, when given.

    N broadcasts (with ``h``); a scalar N gives a float.
    """
    w = scheme_weights(source, field, scheme)
    cf = ClosedForm(source, scheme.T, N * link.T_s, len(w), h)
    val = cf.mse(blep_average_simplified(link, N=N) if eps is None else eps, w)
    return float(val) if np.ndim(val) == 0 else val


# ---------------------------------------------------------------------------
# stationarity functions
# ---------------------------------------------------------------------------

def _dmse(source, field, link, scheme, N, h=None, wrt="N"):
    """d MSE / dN, or d MSE / dh with ``wrt="h"``, at blocklength(s) N and
    time shift(s) h (None for the synchronous form).

    sigma2 times the complex step of the unit-variance :func:`_objective`.
    N and h broadcast; a scalar is stepped as a 1-element array, so it
    equals its batched entry, and gives a float.
    """
    if wrt == "N":
        x, step = N, lambda n: _objective(source, field, link, scheme, n, h)
    else:
        x, step = h, lambda hh: _objective(source, field, link, scheme, N, hh)
    val = source.sigma2_x * _complex_step(step, np.atleast_1d(x))
    return float(val[0]) if np.ndim(N) == np.ndim(h) == 0 else val


def eval_H(source: SourceParams, field: SensorField, link: LinkParams,
           scheme: SchemeConfig, N: float) -> float:
    """d MSE_syn / dN at real-valued N (simplified BLEP model inside)."""
    return _dmse(source, field, link, scheme, N)


def eval_J(source: SourceParams, field: SensorField, link: LinkParams,
           scheme: SchemeConfig, h: float) -> float:
    """d MSE_asyn / dh at the link's blocklength (simplified BLEP inside)."""
    return _dmse(source, field, link, scheme, link.N, h, wrt="h")


def eval_F(source: SourceParams, field: SensorField, link: LinkParams,
           scheme: SchemeConfig, N: float) -> float:
    """d MSE_asyn / dN at the time shift scheme.h (simplified BLEP inside)."""
    return _dmse(source, field, link, scheme, N, scheme.h)


# ---------------------------------------------------------------------------
# single-coordinate optimizers
# ---------------------------------------------------------------------------

def _blocklength_cap(T, T_s, cfg, shift=0.0) -> int:
    """Largest blocklength of a step or a search: :func:`max_blocklength`
    at the shift time ``shift`` = (M - 1) h, lowered to ``cfg.N_max``.
    Raises InvalidConfigError when it lies below ``cfg.N_min``, and
    ScaleLimitError past the range budget of :func:`mse._check_range`."""
    n_hi = max_blocklength(T, T_s, shift)
    if cfg.N_max is not None:
        n_hi = min(n_hi, cfg.N_max)
    if n_hi < cfg.N_min:
        raise InvalidConfigError(f"empty blocklength range [{cfg.N_min}, {n_hi}]")
    _check_range(n_hi - cfg.N_min + 1, f"the blocklength range from N_min = {cfg.N_min}")
    return n_hi


def _argmin_step(obj, lo, hi, edge=None):
    """Integer minimizer of the objective ``obj`` over [edge, hi] (edge =
    lo by default), scored in one array call; ties go to the smallest.

    Returns (x, obj(x), branch), the branch named by where x lies:
    "lower-boundary" at lo, "upper-boundary" at hi, "plateau-edge" at an
    edge above lo, otherwise "interior-root".
    """
    start = lo if edge is None else edge
    vals = obj(np.arange(start, hi + 1))
    i = int(np.argmin(vals))  # a NaN anywhere is its own argmin
    x, val = start + i, float(vals[i])
    if not math.isfinite(val):
        raise BracketError(f"objective is {val} at {x} on [{start}, {hi}]")
    return x, val, ("lower-boundary" if x == lo else "upper-boundary" if x == hi
                    else "plateau-edge" if x == start else "interior-root")


def _blocklength_step(source, field, link, scheme, cfg, hh):
    """Blocklength step at the time shift hh (None for no/syn): (N, its
    objective, branch).

    The step starts at the plateau edge, the first N whose simplified BLEP
    is below 1: below it the BLEP is saturated at 1, the objective is flat
    at 1 and H and F vanish.  Raises BracketError when the whole range
    is saturated.
    """
    n_lo = cfg.N_min
    n_hi = _blocklength_cap(scheme.T, link.T_s, cfg,
                            0.0 if hh is None else (scheme.M - 1) * hh)
    eps = blep_average_simplified(link, N=np.arange(n_lo, n_hi + 1))
    edge = int(np.argmax(eps < 1.0))  # 0 when every value is saturated
    if not eps[edge] < 1.0:
        raise BracketError(
            f"average BLEP saturated at 1 over the whole range [{n_lo}, {n_hi}]")
    return _argmin_step(lambda n: _objective(source, field, link, scheme, n, hh,
                                             eps=eps[edge:]), n_lo, n_hi, n_lo + edge)


def _time_shift_step(source, field, link, scheme, n):
    """Time-shift step at blocklength n over the grid index k = 1 ..
    :func:`mse.shift_count`: (h = k T_s, its objective, branch)."""
    k_hi = int(shift_count(scheme.T, link.T_s, scheme.M, n))
    if k_hi < 1:
        raise InvalidConfigError(f"no feasible time shift at blocklength N={n}")
    k, val, branch = _argmin_step(
        lambda k: _objective(source, field, link, scheme, n, k * link.T_s), 1, k_hi)
    return k * link.T_s, val, branch


def optimize_blocklength(source, field, link, scheme, cfg=None) -> OptResult:
    """Optimal integer blocklength at a fixed time shift, for every scheme.

    The asynchronous scheme keeps its time shift ``scheme.h``.  The step is
    the integer argmin of the objective from the plateau edge to the cap
    (:func:`_argmin_step`); the trace row's residual is |H| or |F| there.
    """
    cfg = cfg or OptimizerConfig()
    hh = scheme.h if scheme.scheme is Scheme.ASYN_INFER else None
    n_star, val, branch = _blocklength_step(source, field, link, scheme, cfg, hh)
    res = _dmse(source, field, link, scheme, float(n_star), hh)
    mse = average_mse(source, field, link.with_blocklength(n_star), scheme)
    val *= source.sigma2_x
    return OptResult(scheme.scheme, n_star, hh, mse, val, 1, True, branch,
                     trace=[TraceRow(1, hh, n_star, val, 0.0, abs(res))])


def optimize_time_shift(source, field, link, scheme) -> OptResult:
    """Optimal time shift at the link's blocklength, asynchronous scheme.

    The step is the integer argmin over the grid index k = 1 ..
    :func:`mse.shift_count`, so the returned shift is h = k T_s; the trace
    row's residual is |J| there.
    """
    n = int(link.N)
    h_star, val, branch = _time_shift_step(source, field, link, scheme, n)
    res = _dmse(source, field, link, scheme, n, h_star, wrt="h")
    mse = average_mse(source, field, link, replace(scheme, h=h_star))
    val *= source.sigma2_x
    return OptResult(scheme.scheme, n, h_star, mse, val, 1, True, branch,
                     trace=[TraceRow(1, h_star, n, val, abs(res), 0.0)])


# ---------------------------------------------------------------------------
# joint optimization
# ---------------------------------------------------------------------------

def jtsbo(source, field, link, scheme, cfg=None) -> OptResult:
    """Alternating time-shift / blocklength optimization.

    Starts from N = 80 channel uses (clamped to the feasible range) and the
    midpoint grid shift at that N, then repeats an h-step at fixed N, an
    N-step at fixed h and a face step until the iteration cap or until an
    iteration leaves (N, h) exactly unchanged (``converged``).  The face
    step takes the best point of the constraint face on the grid, every N
    at its last grid shift, scored once per call; it moves the iterate off
    a corner where both coordinate steps stall.  Every candidate comparison
    keeps the incumbent, so the internal objective is non-increasing
    across iterations by construction.
    Each trace row holds |J| and |F| at the row's own (h, N).
    """
    cfg = cfg or OptimizerConfig()
    T, Ts, M = scheme.T, link.T_s, scheme.M
    n_cap = _blocklength_cap(T, Ts, cfg, (M - 1) * Ts)

    # n_cur <= n_cap, the cap at the first grid shift, so at least one shift fits
    n_cur = min(max(80, cfg.N_min), n_cap)
    h_cur = max(1, int(shift_count(T, Ts, M, n_cur)) // 2) * Ts

    cur_val = _objective(source, field, link, scheme, n_cur, h_cur)
    face_n = np.arange(cfg.N_min, n_cap + 1)
    face_h = shift_count(T, Ts, M, face_n) * Ts
    face_vals = _objective(source, field, link, scheme, face_n, face_h)
    face = int(np.argmin(face_vals))

    rows, converged = [], False
    for i in range(1, cfg.I_max + 1):
        h_prev, n_prev = h_cur, n_cur
        h, val, _ = _time_shift_step(source, field, link, scheme, n_cur)
        if val <= cur_val:
            h_cur, cur_val = h, val
        n, val, _ = _blocklength_step(source, field, link, scheme, cfg, h_cur)
        if val <= cur_val:
            n_cur, cur_val = n, val
        if face_vals[face] < cur_val:
            n_cur, h_cur = int(face_n[face]), float(face_h[face])
            cur_val = float(face_vals[face])

        rows.append((i, h_cur, n_cur, cur_val))
        # exact: N is an int and every step's h is the product k T_s
        converged = (n_cur, h_cur) == (n_prev, h_prev)
        if converged:
            break

    hs, ns = np.array([row[1:3] for row in rows]).T
    res_h, res_n = (np.abs(_dmse(source, field, link, scheme, ns, hs, wrt)).tolist()
                    for wrt in ("h", "N"))
    s2 = source.sigma2_x
    trace = [TraceRow(i, h, n, s2 * val, r_h, r_n)
             for (i, h, n, val), r_h, r_n in zip(rows, res_h, res_n)]
    mse = average_mse(source, field, link.with_blocklength(n_cur),
                      replace(scheme, h=h_cur))
    return OptResult(scheme.scheme, n_cur, h_cur, mse, s2 * cur_val, len(trace),
                     converged, "jtsbo", trace=trace)


# ---------------------------------------------------------------------------
# exhaustive baselines
# ---------------------------------------------------------------------------

def exhaustive_search(source, field_or_weights, link, scheme, cfg=None,
                      objective="simplified") -> OptResult:
    """Full grid scan: integer N, time shifts on the T_s grid.

    One scan per weight vector of ``field_or_weights``: a field, one
    vector or a (lanes, M) stack of them (:func:`mse.scheme_weights`; the
    no-inference form reads no weight, so it is one scan).  The lanes
    share the geometry, so every scored array that reads no weight is
    formed once for all of them.
    ``objective`` picks the BLEP model used for the scanned values
    ("simplified" matches the stationarity functions, "exact" the
    closed-form average; any other value raises InvalidConfigError),
    evaluated over the whole blocklength range in one call.  The syn/no
    range is one :class:`ClosedForm` call over [N_min, cap] that scores
    the (lanes, N) matrix, each lane's argmin taken on its own row, ties
    to the smallest N.  A NaN or an infinite minimum raises BracketError.
    The asynchronous (N, h) grid is scored by one kernel over all N and
    shifts, in row-major chunks of at most ``_GRID_CHUNK`` points: each
    chunk is a block of N rows against the shift count of its first row,
    one :meth:`ClosedForm.mse_grid` call, which forms the row factor and
    the denominator once and yields one rank-(M+1) matrix product per
    lane, with the shifts past a row's own count masked out.  Ties break
    toward smaller N, then smaller h, independent of chunking.  The
    product's summation order follows the BLAS kernel picked for the
    block shape, so a point's value can move by one ulp with the chunking;
    only points that close to the minimum can trade places.  A lane's
    product has the shape of a one-vector call, so a lane's result has the
    same bits in a stack as alone.
    ``N_star``, ``h_star`` (None for syn/no), ``mse_star`` (re-scored per
    lane with the closed-form average BLEP) and ``objective_star`` are
    numbers for a field or one vector, else arrays of the stack's shape.
    ``evaluations`` counts scored points over every lane; a grid of more
    than ``_MAX_GRID`` points raises ScaleLimitError before any is scored.
    """
    cfg = cfg or OptimizerConfig()
    T, Ts, M = scheme.T, link.T_s, scheme.M
    eps_of = {"simplified": blep_average_simplified, "exact": blep_average}.get(objective)
    if eps_of is None:
        raise InvalidConfigError(f"objective must be 'simplified' or 'exact', "
                                 f"got {objective!r}")
    w = scheme_weights(source, field_or_weights, scheme)
    lanes = w.reshape(-1, w.shape[-1])
    syn = scheme.scheme in (Scheme.NO_INFER, Scheme.SYN_INFER)
    n_hi = _blocklength_cap(T, Ts, cfg, 0.0 if syn else (M - 1) * Ts)
    Ns = np.arange(cfg.N_min, n_hi + 1)
    if syn:
        cf = ClosedForm(source, T, Ns * Ts, lanes.shape[1])
        vals = cf.mse(eps_of(link, N=Ns), lanes[:, None])  # (lanes, N)
        at = np.argmin(vals, axis=1)  # a NaN anywhere is its own argmin
        best = vals[np.arange(len(lanes)), at]
        bad = np.flatnonzero(~np.isfinite(best))
        if bad.size:
            raise BracketError(f"objective is {best[bad[0]]} at {Ns[at[bad[0]]]} "
                               f"on [{cfg.N_min}, {n_hi}]")
        n_star, h_star, points = Ns[at], [None] * len(lanes), Ns.size
    else:
        steps = shift_count(T, Ts, M, Ns)  # feasible shifts T_s .. steps*T_s, non-increasing
        points = int(steps.sum())
        if points > _MAX_GRID:
            raise ScaleLimitError(f"the exhaustive (N, h) grid would hold {points} "
                                  f"points (> {_MAX_GRID}); raise the symbol "
                                  "duration or shorten the period")
        eps = eps_of(link, N=Ns)
        hs = Ts * np.arange(1, int(steps[0]) + 1)
        cf = ClosedForm(source, T, Ns * Ts, M, hs)
        best = np.full(len(lanes), math.inf)
        at = np.zeros((len(lanes), 2), dtype=int)  # each lane's best (N, h) index
        i = 0
        while i < Ns.size:
            width = int(steps[i])
            j = min(Ns.size, i + max(1, _GRID_CHUNK // width))
            # the shifts past each row's count: the chunk's last columns
            short = int(steps[j - 1])
            past = np.arange(short, width) >= steps[i:j, None]
            for lane, vals in enumerate(cf.mse_grid(eps, lanes, slice(i, j), width)):
                vals[:, short:][past] = np.inf
                k = int(np.argmin(vals))  # row-major: smallest N, then smallest h
                row, col = divmod(k, width)
                if vals.flat[k] < best[lane]:  # strict: an earlier chunk keeps a tie
                    best[lane], at[lane] = vals.flat[k], (i + row, col)
                elif math.isnan(vals.flat[k]):  # a NaN anywhere is its own argmin
                    raise BracketError(f"objective is nan at N = {Ns[i + row]}, "
                                       f"h = {hs[col]} on [{cfg.N_min}, {n_hi}]")
            i = j
        n_star, h_star = Ns[at[:, 0]], hs[at[:, 1]].tolist()
    n_star = n_star.tolist()
    mse = [average_mse(source, lane, link.with_blocklength(n),
                       scheme if syn else replace(scheme, h=h))
           for lane, n, h in zip(lanes, n_star, h_star)]

    def out(x):  # a number for one vector, else an array of the stack's shape
        return x[0] if w.ndim == 1 else np.reshape(x, w.shape[:-1])

    return OptResult(scheme.scheme, out(n_star), None if syn else out(h_star), out(mse),
                     out((source.sigma2_x * best).tolist()), 1, True, "exhaustive",
                     evaluations=len(lanes) * points)


def expected_evaluation_count(T, T_s, M, N_min=DEFAULT_N_MIN) -> int:
    """Closed-form size of the asynchronous exhaustive grid.

    sum over N of floor((T/T_s - N)/(M-1)) for N from N_min to
    T/T_s - (M-1); evaluated exactly via the floor-sum identity.
    """
    K = int(math.floor(T / T_s + _TIMING_TOL))
    d = M - 1
    n_hi = K - d
    if n_hi < N_min:
        return 0

    def S(n):  # sum_{j=0..n} floor(j/d)
        if n < 0:
            return 0
        t, r = divmod(n, d)
        return d * t * (t - 1) // 2 + (r + 1) * t

    return S(K - N_min) - S(d - 1)


__all__ = [
    "OptimizerConfig", "OptResult", "TraceRow",
    "eval_H", "eval_J", "eval_F",
    "optimize_blocklength", "optimize_time_shift",
    "jtsbo", "exhaustive_search",
    "expected_evaluation_count",
]
