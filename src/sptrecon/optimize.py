"""Blocklength and time-shift adaptation.

Shorter packets age less but fail more, so the average reconstruction
error has an interior optimum in the blocklength N; the asynchronous
scheme adds a time shift h trading intra-period freshness against the
wrap-around gap at the period boundary.  This module locates those optima
from the analytic stationarity functions

    H(N) = d MSE_syn / dN,   J(h) = d MSE_asyn / dh,   F(N) = d MSE_asyn / dN,

and provides the alternating joint optimizer plus exhaustive-search
baselines.  Inside H, J and F the average block error probability uses the
single-exponential simplified model, whose N-derivative is elementary, so
each function is the exact derivative of the objective it is paired with.
Reported ``mse_star`` values are re-evaluated with the closed-form average
BLEP model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .blep import LinkParams, blep_average, blep_average_simplified, dblep_dN
from .errors import BracketError, InvalidConfigError
from .field import SensorField, SourceParams
from .mse import (ClosedForm, Scheme, SchemeConfig, _brentq, average_mse,
                  max_blocklength, scheme_weights, shift_count)

DEFAULT_N_MIN = 10

# maximum |H|, |J| or |F| accepted at a reported root
_ROOT_TOL = 1e-9

# (N, h) points the asynchronous exhaustive search scores per array call;
# bounds its (rows x width) temporaries to about 128 kB each
_GRID_CHUNK = 16384


@dataclass(frozen=True)
class OptimizerConfig:
    """Bounds and stopping rules for the adaptation routines.

    N_min / N_max : blocklength bounds in channel uses (N_max None = from
                    the period constraint); N_min is the only blocklength
                    floor
    I_max         : alternating-optimization iteration cap
    tol_h, tol_N  : stop when both coordinates move less than this
    """

    N_min: int = DEFAULT_N_MIN
    N_max: int | None = None
    I_max: int = 3
    tol_h: float = 1e-4
    tol_N: float = 1.0

    def __post_init__(self):
        if self.N_min < 1 or self.I_max < 1:
            raise InvalidConfigError("N_min and I_max must be >= 1")
        if min(self.tol_h, self.tol_N) <= 0:
            raise InvalidConfigError("tolerances must be positive")


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


def _objective(source, field, link, scheme, N, h=None):
    """MSE at blocklength(s) N under the simplified BLEP model.

    N broadcasts (with ``h``); a scalar N gives a float.
    """
    cf, w = _kernel_at(source, field, link, scheme, N, h)
    val = cf.mse(blep_average_simplified(link, N=N), w)
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
           scheme: SchemeConfig, h: float, eps_bar=None) -> float:
    """d MSE_asyn / dh at fixed blocklength (simplified BLEP model inside
    unless ``eps_bar`` is given)."""
    eps = blep_average_simplified(link) if eps_bar is None else float(eps_bar)
    cf, w = _kernel_at(source, field, link, scheme, link.N, h)
    return float(cf.dmse_dh(eps, w))


def eval_F(source: SourceParams, field: SensorField, link: LinkParams,
           scheme: SchemeConfig, N: float, h: float | None = None) -> float:
    """d MSE_asyn / dN at fixed time shift (simplified BLEP model inside)."""
    return _dmse_dN(source, field, link, scheme, N, scheme.h if h is None else h)


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


def _effective_lower(link, n_lo, n_hi):
    """Skip the saturated plateau where the average BLEP underflows to 1.

    On that plateau the objective is flat at sigma2 and every stationarity
    function is identically zero, which would hand the root finder a
    spurious root at the boundary.  Returns the plateau edge, the first
    integer N in [n_lo, n_hi] whose simplified BLEP is below 1; raises
    BracketError when the whole range is saturated.
    """
    below = blep_average_simplified(link, N=np.arange(n_lo, n_hi + 1)) < 1.0
    if not below.any():
        raise BracketError(
            f"average BLEP saturated at 1 over the whole range [{n_lo}, {n_hi}]"
        )
    return n_lo + int(np.argmax(below))


def _evaluated_once(f):
    """f with one evaluation per point (10 and 10.0 are the same point)."""
    values = {}

    def once(x):
        if x not in values:
            values[x] = f(x)
        return values[x]

    return once


def _stationary_point(f, obj, lo, hi, label, edge=None):
    """Integer minimizer on [lo, hi] of the objective ``obj`` of a
    real-valued index, whose derivative has the sign of f.

    In order: f > 0 at lo is the "lower-boundary", f < 0 at hi the
    "upper-boundary"; a blocklength step passes the plateau edge, and
    f >= 0 there is the "plateau-edge"; otherwise the root of f on
    [edge, hi] (edge = lo for a time shift), found by Brent's method
    (:func:`mse._brentq`) to 1e-9, is the "interior-root", and the better
    of the two integers around it (the smaller on a tie) is returned.
    f is evaluated once per point: the solver re-evaluates its bracket
    ends and the residual check the root.
    Returns (x, branch, |f| where the branch was decided).
    """
    f = _evaluated_once(f)
    f_lo = f(lo)
    if f_lo > 0.0:
        return lo, "lower-boundary", abs(f_lo)
    f_hi = f(hi)
    if f_hi < 0.0:
        return hi, "upper-boundary", abs(f_hi)
    if edge is not None:
        lo, f_lo = edge, f(edge)
        if f_lo >= 0.0:
            return lo, "plateau-edge", abs(f_lo)
    if not (np.isfinite(f_lo) and np.isfinite(f_hi)):
        raise BracketError(f"{label}: non-finite values at bracket "
                           f"({f_lo} at {lo}, {f_hi} at {hi})")
    if f_lo == 0.0 or f_hi == 0.0:
        return (lo if f_lo == 0.0 else hi), "interior-root", 0.0
    root = _brentq(f, lo, hi, 1e-9)
    res = abs(f(root))
    if res > _ROOT_TOL:
        raise BracketError(f"{label}: residual {res:.3e} exceeds {_ROOT_TOL}")
    x = min({math.floor(root), math.ceil(root)}, key=lambda k: (obj(k), k))
    return x, "interior-root", res


def optimize_blocklength(source, field, link, scheme, cfg=None, h=None) -> OptResult:
    """Optimal integer blocklength at a fixed time shift, for every scheme.

    The asynchronous scheme uses the time shift ``h`` (default
    ``scheme.h``); no/syn ignore it.  Boundary rules first (d MSE / dN > 0
    at N_min, < 0 at the cap), otherwise the better of the two integers
    around the root of H (no/syn) or F (asyn).  Falls back to an integer
    grid scan when d MSE / dN, probed at 33 points in one array call,
    changes sign more than once on the feasible range (the asynchronous
    objective is provably convex in N only at h = T/M).
    """
    cfg = cfg or OptimizerConfig()
    hh = (scheme.h if h is None else h) if scheme.scheme is Scheme.ASYN_INFER else None
    n_lo = cfg.N_min
    n_hi = _blocklength_cap(scheme.T, link.T_s, cfg,
                            0.0 if hh is None else (scheme.M - 1) * hh)
    n_eff = _effective_lower(link, n_lo, n_hi)
    obj = lambda n: _objective(source, field, link, scheme, n, hh)
    if hh is None:
        dmse, label = lambda n: eval_H(source, field, link, scheme, n), "H(N)"
    else:
        dmse, label = lambda n: eval_F(source, field, link, scheme, n, h=hh), "F(N)"

    probe = np.linspace(n_eff, n_hi, min(33, n_hi - n_lo + 1))
    signs = np.sign(_dmse_dN(source, field, link, scheme, probe, hh))
    if int(np.sum(np.abs(np.diff(signs[signs != 0])) > 0)) > 1:
        n_star = n_lo + int(np.argmin(obj(np.arange(n_lo, n_hi + 1))))
        branch, res = "grid-fallback", abs(dmse(n_star))
    else:
        n_star, branch, res = _stationary_point(dmse, obj, n_lo, n_hi, label,
                                                edge=n_eff)
    val = obj(n_star)
    mse = average_mse(source, field, link.with_blocklength(n_star),
                      replace(scheme, h=hh)).value
    return OptResult(scheme.scheme, n_star, hh, mse, val, 1, True, branch,
                     trace=[TraceRow(1, hh, n_star, val, 0.0, res)],
                     convexity_warning=source_l_warn(link))


def optimize_time_shift(source, field, link, scheme, N=None) -> OptResult:
    """Optimal time shift at fixed blocklength for the asynchronous scheme.

    The step runs over the grid index k = 1 .. :func:`mse.shift_count`,
    so the returned shift is h = k T_s.
    """
    n = int(link.N if N is None else N)
    k_hi = int(shift_count(scheme.T, link.T_s, scheme.M, n))
    if k_hi < 1:
        raise InvalidConfigError(f"no feasible time shift at blocklength N={n}")
    link_n = link.with_blocklength(n)
    obj = lambda k: _objective(source, field, link_n, scheme, n, k * link.T_s)
    k, branch, res = _stationary_point(
        lambda k: eval_J(source, field, link_n, scheme, k * link.T_s), obj,
        1, k_hi, "J(h)")
    h_star = k * link.T_s
    val = obj(k)
    mse = average_mse(source, field, link_n, replace(scheme, h=h_star)).value
    return OptResult(scheme.scheme, n, h_star, mse, val, 1, True, branch,
                     trace=[TraceRow(1, h_star, n, val, res, 0.0)])


def source_l_warn(link) -> bool:
    return link.L < math.pi


# ---------------------------------------------------------------------------
# joint optimization
# ---------------------------------------------------------------------------

def jtsbo(source, field, link, scheme, cfg=None, start_h=None, start_N=None) -> OptResult:
    """Alternating time-shift / blocklength optimization.

    Starts from N = 80 channel uses (clamped to the feasible range) and the
    midpoint time shift unless a warm start is given, then repeats an
    h-step at fixed N followed by an N-step at fixed h until the iteration
    cap or until both coordinates stop moving.  An infeasible start is
    projected onto the constraint set and flagged on the result.  Every
    candidate comparison keeps the incumbent, so the internal objective is
    non-increasing across iterations by construction.
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

    obj = lambda n, hh: _objective(source, field, link, scheme, n, hh)
    result = OptResult(scheme.scheme, n_cur, h_cur, math.nan, obj(n_cur, h_cur),
                       0, False, "jtsbo", projected_start=projected,
                       convexity_warning=source_l_warn(link))

    cur_val = obj(n_cur, h_cur)
    for i in range(1, cfg.I_max + 1):
        h_prev, n_prev = h_cur, n_cur

        step_h = optimize_time_shift(source, field, link, scheme, N=n_cur)
        if step_h.objective_star <= cur_val:
            h_cur, cur_val = step_h.h_star, step_h.objective_star
        res_h = step_h.trace[-1].residual_h

        step_n = optimize_blocklength(source, field, link, scheme, cfg, h=h_cur)
        if step_n.objective_star <= cur_val:
            n_cur, cur_val = step_n.N_star, step_n.objective_star
        res_n = step_n.trace[-1].residual_N

        result.trace.append(TraceRow(i, h_cur, n_cur, cur_val, res_h, res_n))
        result.iterations = i
        if abs(h_cur - h_prev) < cfg.tol_h and abs(n_cur - n_prev) < cfg.tol_N:
            result.converged = True
            break

    result.N_star, result.h_star = n_cur, h_cur
    result.objective_star = cur_val
    result.mse_star = average_mse(source, field, link.with_blocklength(n_cur),
                                  replace(scheme, h=h_cur)).value
    return result


# ---------------------------------------------------------------------------
# exhaustive baselines
# ---------------------------------------------------------------------------

def exhaustive_search(source, field, link, scheme, cfg=None,
                      objective="simplified") -> OptResult:
    """Full grid scan: integer N, time shifts on the T_s grid.

    ``objective`` picks the BLEP model used for the scanned values
    ("simplified" matches the stationarity functions, "exact" the
    closed-form average), evaluated over the whole blocklength range in
    one call.  The syn/no range is scored in one :class:`ClosedForm` call.
    The asynchronous (N, h) grid is scored by one kernel over all N and
    shifts, in row-major chunks of at most ``_GRID_CHUNK`` points: each
    chunk is a block of N rows against the shift count of its first row,
    one :meth:`ClosedForm.mse_grid` call (a rank-M matrix product), with
    the shifts past a row's own count masked out.  Ties break toward
    smaller N, then smaller h, independent of chunking.  The product's
    summation order follows the BLAS kernel picked for the block shape, so
    a point's value can move by one ulp with the chunking; only points
    that close to the minimum can trade places.
    ``evaluations`` counts scored grid points.
    """
    cfg = cfg or OptimizerConfig()
    T, Ts, M = scheme.T, link.T_s, scheme.M
    eps_of = blep_average_simplified if objective == "simplified" else blep_average
    syn = scheme.scheme in (Scheme.NO_INFER, Scheme.SYN_INFER)
    n_hi = _blocklength_cap(T, Ts, cfg, 0.0 if syn else (M - 1) * Ts)
    Ns = np.arange(cfg.N_min, n_hi + 1)
    eps = eps_of(link, N=Ns)
    w = scheme_weights(source, field, scheme)

    if syn:
        vals = ClosedForm(source, T, Ns * Ts, len(w)).mse(eps, w)
        k = int(np.argmin(vals))  # first minimum: the smallest N among ties
        n_star = int(Ns[k])
        mse = average_mse(source, field, link.with_blocklength(n_star), scheme).value
        return OptResult(scheme.scheme, n_star, None, mse, float(vals[k]), 1, True,
                         "exhaustive", evaluations=int(Ns.size))

    steps = shift_count(T, Ts, M, Ns)  # feasible shifts T_s .. steps*T_s, non-increasing
    hs = Ts * np.arange(1, int(steps[0]) + 1)
    cf = ClosedForm(source, T, Ns * Ts, M, hs)
    best = (math.inf, None, None)
    i = 0
    while i < Ns.size:
        width = int(steps[i])
        j = min(Ns.size, i + max(1, _GRID_CHUNK // width))
        vals = cf.mse_grid(eps, w, slice(i, j), width)
        vals[np.arange(width) >= steps[i:j, None]] = np.inf
        k = int(np.argmin(vals))  # row-major: smallest N, then smallest h
        if vals.flat[k] < best[0]:  # strict: an earlier chunk keeps a tie
            row, col = divmod(k, width)
            best = (float(vals.flat[k]), int(Ns[i + row]), float(hs[col]))
        i = j
    mse = average_mse(source, field, link.with_blocklength(best[1]),
                      replace(scheme, h=best[2])).value
    return OptResult(scheme.scheme, best[1], best[2], mse, best[0], 1, True,
                     "exhaustive", evaluations=int(steps.sum()))


def expected_evaluation_count(T, T_s, M, N_min=DEFAULT_N_MIN) -> int:
    """Closed-form size of the asynchronous exhaustive grid.

    sum over N of floor((T/T_s - N)/(M-1)) for N from N_min to
    T/T_s - (M-1); evaluated exactly via the floor-sum identity.
    """
    K = int(math.floor(T / T_s + 1e-9))
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
