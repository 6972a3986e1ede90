"""Blocklength and time-shift adaptation.

Shorter packets age less but fail more, so the average reconstruction
error has an interior optimum in the blocklength N; the asynchronous
scheme adds a time shift h trading intra-period freshness against the
wrap-around gap at the period boundary.

Both coordinates are integer indices, N and the shift index k of
h = k T_s, so each adaptation step is the exact integer argmin of the
objective over its range, scored in one array call, ties to the smallest
index.  The objective uses the single-exponential simplified average
block error probability (BLEP), whose N-derivative is elementary, and the
stationarity functions

    H(N) = d MSE_syn / dN,   J(h) = d MSE_asyn / dh,   F(N) = d MSE_asyn / dN

are its derivatives, exact to rounding by complex step: J in h, H and F
through the chain rule with d eps / dN (:func:`blep.dblep_dN`).  A step
reports |H|, |J| or |F| at the integer it returns as a diagnostic.  The
module also provides the alternating joint optimizer and exhaustive-search
baselines.  Reported ``mse_star`` values are re-evaluated with the
closed-form average BLEP model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .blep import LinkParams, blep_average, blep_average_simplified, dblep_dN
from .errors import BracketError, InvalidConfigError
from .field import SensorField, SourceParams
from .mse import (_TIMING_TOL, ClosedForm, Scheme, SchemeConfig, _complex_step,
                  average_mse, max_blocklength, scheme_weights, shift_count)

DEFAULT_N_MIN = 10

# (N, h) points the asynchronous exhaustive search scores per array call;
# bounds its (rows x width) temporaries to about 128 kB each
_GRID_CHUNK = 16384


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
    convexity_warning: bool = False
    projected_start: bool = False


# ---------------------------------------------------------------------------
# objectives under the simplified BLEP model (consistent with H, J, F)
# ---------------------------------------------------------------------------

def _kernel_at(source, field, link, scheme, N, h=None):
    """(ClosedForm, weights) of the scheme at blocklength(s) N and time
    shift h (None for the synchronous form)."""
    w = scheme_weights(source, field, scheme)
    return ClosedForm(source, scheme.T, N * link.T_s, len(w), h), w


def _objective(source, field, link, scheme, N, h=None, blep=None):
    """MSE at blocklength(s) N under the simplified BLEP model, or under
    the BLEP model ``blep`` (a function of (link, N=...)) when given.

    N broadcasts (with ``h``); a scalar N gives a float.
    """
    cf, w = _kernel_at(source, field, link, scheme, N, h)
    val = cf.mse((blep or blep_average_simplified)(link, N=N), w)
    return float(val) if np.ndim(val) == 0 else val


# ---------------------------------------------------------------------------
# stationarity functions
# ---------------------------------------------------------------------------

def _dmse_dN(source, field, link, scheme, N, h=None):
    """2 a T_s (sigma2 - MSE) + (d MSE / d eps) (d eps / dN) at real-valued N.

    The delay tau = N T_s scales sigma2 - MSE by exp(-2 a tau); eps is the
    simplified average BLEP.  N broadcasts (with ``h``); a scalar N gives a
    float.
    """
    cf, w = _kernel_at(source, field, link, scheme, N, h)
    eps = blep_average_simplified(link, N=N)
    deps = dblep_dN(link, N=N)
    gap = source.sigma2_x - cf.mse(eps, w)
    val = 2.0 * source.a * link.T_s * gap + cf.dmse(eps, w) * deps
    return float(val) if np.ndim(val) == 0 else val


def eval_H(source: SourceParams, field: SensorField, link: LinkParams,
           scheme: SchemeConfig, N: float) -> float:
    """d MSE_syn / dN at real-valued N (simplified BLEP model inside)."""
    return _dmse_dN(source, field, link, scheme, N)


def eval_J(source: SourceParams, field: SensorField, link: LinkParams,
           scheme: SchemeConfig, h: float) -> float:
    """d MSE_asyn / dh by complex step at the link's blocklength (simplified BLEP)."""
    eps, w = blep_average_simplified(link), scheme_weights(source, field, scheme)
    return float(_complex_step(
        lambda hh: _kernel_at(source, field, link, scheme, link.N, hh)[0].mse(eps, w), h))


def eval_F(source: SourceParams, field: SensorField, link: LinkParams,
           scheme: SchemeConfig, N: float) -> float:
    """d MSE_asyn / dN at the time shift scheme.h (simplified BLEP inside)."""
    return _dmse_dN(source, field, link, scheme, N, scheme.h)


# ---------------------------------------------------------------------------
# single-coordinate optimizers
# ---------------------------------------------------------------------------

def _blocklength_cap(T, T_s, cfg, shift=0.0) -> int:
    """Largest blocklength of a step or a search: :func:`max_blocklength`
    at the shift time ``shift`` = (M - 1) h, lowered to ``cfg.N_max``.
    Raises InvalidConfigError when it lies below ``cfg.N_min``."""
    n_hi = max_blocklength(T, T_s, shift)
    if cfg.N_max is not None:
        n_hi = min(n_hi, cfg.N_max)
    if n_hi < cfg.N_min:
        raise InvalidConfigError(f"empty blocklength range [{cfg.N_min}, {n_hi}]")
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
    at sigma2 and H and F vanish.  Raises BracketError when the whole range
    is saturated.
    """
    n_lo = cfg.N_min
    n_hi = _blocklength_cap(scheme.T, link.T_s, cfg,
                            0.0 if hh is None else (scheme.M - 1) * hh)
    below = blep_average_simplified(link, N=np.arange(n_lo, n_hi + 1)) < 1.0
    if not below.any():
        raise BracketError(
            f"average BLEP saturated at 1 over the whole range [{n_lo}, {n_hi}]")
    return _argmin_step(lambda n: _objective(source, field, link, scheme, n, hh),
                        n_lo, n_hi, n_lo + int(np.argmax(below)))


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
    res = (eval_H(source, field, link, scheme, float(n_star)) if hh is None
           else eval_F(source, field, link, scheme, float(n_star)))
    mse = average_mse(source, field, link.with_blocklength(n_star), scheme)
    return OptResult(scheme.scheme, n_star, hh, mse, val, 1, True, branch,
                     trace=[TraceRow(1, hh, n_star, val, 0.0, abs(res))],
                     convexity_warning=link.L < math.pi)


def optimize_time_shift(source, field, link, scheme) -> OptResult:
    """Optimal time shift at the link's blocklength, asynchronous scheme.

    The step is the integer argmin over the grid index k = 1 ..
    :func:`mse.shift_count`, so the returned shift is h = k T_s; the trace
    row's residual is |J| there.
    """
    n = int(link.N)
    h_star, val, branch = _time_shift_step(source, field, link, scheme, n)
    res = eval_J(source, field, link, scheme, h_star)
    mse = average_mse(source, field, link, replace(scheme, h=h_star))
    return OptResult(scheme.scheme, n, h_star, mse, val, 1, True, branch,
                     trace=[TraceRow(1, h_star, n, val, abs(res), 0.0)])


# ---------------------------------------------------------------------------
# joint optimization
# ---------------------------------------------------------------------------

def jtsbo(source, field, link, scheme, cfg=None, start_h=None, start_N=None) -> OptResult:
    """Alternating time-shift / blocklength optimization.

    Starts from N = 80 channel uses (clamped to the feasible range) and the
    midpoint time shift unless a warm start is given, then repeats an
    h-step at fixed N, an N-step at fixed h and a face step until the
    iteration cap or until an iteration leaves (N, h) exactly unchanged
    (``converged``).  The face step takes the best point of the constraint
    face on the grid, every N at its last grid shift, scored once per call;
    it moves the iterate off a corner where both coordinate steps stall.
    An infeasible start is projected onto the constraint set and flagged on
    the result.  Every candidate comparison keeps the incumbent, so the
    internal objective is non-increasing across iterations by construction.
    Each trace row holds |J| and |F| at the row's own (h, N).
    """
    cfg = cfg or OptimizerConfig()
    T, Ts, M = scheme.T, link.T_s, scheme.M
    n_cap = _blocklength_cap(T, Ts, cfg, (M - 1) * Ts)

    projected = False
    n_cur = 80 if start_N is None else int(start_N)
    if not cfg.N_min <= n_cur <= n_cap:
        n_cur = min(max(n_cur, cfg.N_min), n_cap)
        projected = start_N is not None
    steps = int(shift_count(T, Ts, M, n_cur))
    h_cur = max(1, steps // 2) * Ts if start_h is None else float(start_h)
    if not (Ts <= h_cur and n_cur <= max_blocklength(T, Ts, (M - 1) * h_cur)):
        h_cur = min(max(h_cur, Ts), steps * Ts)
        projected = True

    cur_val = _objective(source, field, link, scheme, n_cur, h_cur)
    face_n = np.arange(cfg.N_min, n_cap + 1)
    face_h = shift_count(T, Ts, M, face_n) * Ts
    face_vals = _objective(source, field, link, scheme, face_n, face_h)
    face = int(np.argmin(face_vals))

    trace, converged = [], False
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

        res_h = eval_J(source, field, link.with_blocklength(n_cur), scheme, h_cur)
        res_n = eval_F(source, field, link, replace(scheme, h=h_cur), float(n_cur))
        trace.append(TraceRow(i, h_cur, n_cur, cur_val, abs(res_h), abs(res_n)))
        # exact: N is an int and every step's h is the product k T_s
        converged = (n_cur, h_cur) == (n_prev, h_prev)
        if converged:
            break

    mse = average_mse(source, field, link.with_blocklength(n_cur),
                      replace(scheme, h=h_cur))
    return OptResult(scheme.scheme, n_cur, h_cur, mse, cur_val, len(trace), converged,
                     "jtsbo", trace=trace, convexity_warning=link.L < math.pi,
                     projected_start=projected)


# ---------------------------------------------------------------------------
# exhaustive baselines
# ---------------------------------------------------------------------------

def exhaustive_search(source, field, link, scheme, cfg=None,
                      objective="simplified") -> OptResult:
    """Full grid scan: integer N, time shifts on the T_s grid.

    ``objective`` picks the BLEP model used for the scanned values
    ("simplified" matches the stationarity functions, "exact" the
    closed-form average; any other value raises InvalidConfigError),
    evaluated over the whole blocklength range in one call.  The syn/no
    range is one :func:`_argmin_step` over [N_min, cap].
    The asynchronous (N, h) grid is scored by one kernel over all N and
    shifts, in row-major chunks of at most ``_GRID_CHUNK`` points: each
    chunk is a block of N rows against the shift count of its first row,
    one :meth:`ClosedForm.mse_grid` call (a rank-(M+1) matrix product),
    with the shifts past a row's own count masked out.  Ties break toward
    smaller N, then smaller h, independent of chunking.  The product's
    summation order follows the BLAS kernel picked for the block shape, so
    a point's value can move by one ulp with the chunking; only points
    that close to the minimum can trade places.
    ``evaluations`` counts scored grid points.
    """
    cfg = cfg or OptimizerConfig()
    T, Ts, M = scheme.T, link.T_s, scheme.M
    eps_of = {"simplified": blep_average_simplified, "exact": blep_average}.get(objective)
    if eps_of is None:
        raise InvalidConfigError(f"objective must be 'simplified' or 'exact', "
                                 f"got {objective!r}")
    syn = scheme.scheme in (Scheme.NO_INFER, Scheme.SYN_INFER)
    n_hi = _blocklength_cap(T, Ts, cfg, 0.0 if syn else (M - 1) * Ts)
    if syn:
        n_star, val, _ = _argmin_step(
            lambda n: _objective(source, field, link, scheme, n, blep=eps_of),
            cfg.N_min, n_hi)
        mse = average_mse(source, field, link.with_blocklength(n_star), scheme)
        return OptResult(scheme.scheme, n_star, None, mse, val, 1, True,
                         "exhaustive", evaluations=n_hi - cfg.N_min + 1)

    Ns = np.arange(cfg.N_min, n_hi + 1)
    eps = eps_of(link, N=Ns)
    w = scheme_weights(source, field, scheme)
    steps = shift_count(T, Ts, M, Ns)  # feasible shifts T_s .. steps*T_s, non-increasing
    hs = Ts * np.arange(1, int(steps[0]) + 1)
    cf = ClosedForm(source, T, Ns * Ts, M, hs)
    best = (math.inf, None, None)
    i = 0
    while i < Ns.size:
        width = int(steps[i])
        j = min(Ns.size, i + max(1, _GRID_CHUNK // width))
        vals = cf.mse_grid(eps, w, slice(i, j), width)
        # mask the shifts past each row's count: the chunk's last columns
        short = int(steps[j - 1])
        vals[:, short:][np.arange(short, width) >= steps[i:j, None]] = np.inf
        k = int(np.argmin(vals))  # row-major: smallest N, then smallest h
        if vals.flat[k] < best[0]:  # strict: an earlier chunk keeps a tie
            row, col = divmod(k, width)
            best = (float(vals.flat[k]), int(Ns[i + row]), float(hs[col]))
        i = j
    mse = average_mse(source, field, link.with_blocklength(best[1]),
                      replace(scheme, h=best[2]))
    return OptResult(scheme.scheme, best[1], best[2], mse, best[0], 1, True,
                     "exhaustive", evaluations=int(steps.sum()))


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


def complexity_estimate(T, T_s, M, N_min=DEFAULT_N_MIN) -> float:
    """Leading-order grid size (N_max - N_min)(2T/T_s - N_max - N_min)/(2(M-1))."""
    K = T / T_s
    n_max = K - (M - 1)
    return (n_max - N_min) * (2.0 * K - n_max - N_min) / (2.0 * (M - 1))


__all__ = [
    "OptimizerConfig", "OptResult", "TraceRow",
    "eval_H", "eval_J", "eval_F",
    "optimize_blocklength", "optimize_time_shift",
    "jtsbo", "exhaustive_search",
    "expected_evaluation_count", "complexity_estimate",
]
