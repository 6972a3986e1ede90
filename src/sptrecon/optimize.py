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
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.optimize import brentq

from .blep import (
    DEFAULT_N_MIN,
    LinkParams,
    blep_average,
    blep_average_simplified,
    dblep_dN,
)
from .errors import BracketError, InvalidConfigError
from .field import SensorField, SourceParams
from .mse import (
    ClosedForm,
    Scheme,
    SchemeConfig,
    mse_asyn_infer,
    mse_no_infer,
    mse_syn_infer,
    reindex_by_correlation,
)

# (N, h) points the asynchronous exhaustive search scores per array call;
# bounds its temporaries to about M * 32 kB each
_GRID_CHUNK = 4096


@dataclass(frozen=True)
class OptimizerConfig:
    """Bounds and stopping rules for the adaptation routines.

    N_min / N_max : blocklength bounds in channel uses (N_max None = from
                    the period constraint)
    I_max         : alternating-optimization iteration cap
    tol_h, tol_N  : stop when both coordinates move less than this
    root_tol      : maximum |H|, |J| or |F| accepted at a reported root
    """

    N_min: int = DEFAULT_N_MIN
    N_max: int | None = None
    I_max: int = 3
    tol_h: float = 1e-4
    tol_N: float = 1.0
    root_tol: float = 1e-9

    def __post_init__(self):
        if self.N_min < 1 or self.I_max < 1:
            raise InvalidConfigError("N_min and I_max must be >= 1")
        if min(self.tol_h, self.tol_N, self.root_tol) <= 0:
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

def _syn_factors(source, field, scheme):
    """Descending squared spatial weights; just the target's own for M = 1."""
    if scheme.M == 1:
        return np.array([1.0])
    return np.asarray(reindex_by_correlation(source, field).factors)


def _syn_objective(source, field, link, scheme, N):
    eps = blep_average_simplified(link, N=N)
    cf = ClosedForm(source, scheme.T, N * link.T_s, scheme.M)
    return float(cf.mse(eps, _syn_factors(source, field, scheme)))


def _asyn_objective(source, field, link, scheme, N, h):
    eps = blep_average_simplified(link, N=N)
    w = field.target_factors(source.b, power=2.0)
    return float(ClosedForm(source, scheme.T, N * link.T_s, scheme.M, h).mse(eps, w))


def _exact_mse(source, field, link, scheme, N, h=None):
    """Final-report MSE under the closed-form average BLEP model."""
    link_n = link.with_blocklength(int(N))
    if scheme.scheme is Scheme.NO_INFER:
        return mse_no_infer(source, link_n, scheme).value
    if scheme.scheme is Scheme.SYN_INFER:
        return mse_syn_infer(source, field, link_n, scheme).value
    cfg = SchemeConfig(Scheme.ASYN_INFER, T=scheme.T, h=h, M=scheme.M, m=scheme.m)
    return mse_asyn_infer(source, field, link_n, cfg).value


# ---------------------------------------------------------------------------
# stationarity functions
# ---------------------------------------------------------------------------

def _dmse_dN(source, link, cf, weights, N):
    """2 a T_s (sigma2 - MSE) + (d MSE / d eps) (d eps / dN) at real-valued N.

    The delay tau = N T_s scales sigma2 - MSE by exp(-2 a tau); ``cf`` holds
    the geometry at that delay, eps is the simplified average BLEP.
    """
    eps = blep_average_simplified(link, N=N)
    deps = dblep_dN(link, N=N)
    gap = source.sigma2_x - cf.mse(eps, weights)
    return float(2.0 * source.a * link.T_s * gap + cf.dmse(eps, weights) * deps)


def eval_H(source: SourceParams, field: SensorField, link: LinkParams,
           scheme: SchemeConfig, N: float) -> float:
    """d MSE_syn / dN at real-valued N (simplified BLEP model inside)."""
    cf = ClosedForm(source, scheme.T, N * link.T_s, scheme.M)
    return _dmse_dN(source, link, cf, _syn_factors(source, field, scheme), N)


def eval_J(source: SourceParams, field: SensorField, link: LinkParams,
           scheme: SchemeConfig, h: float, eps_bar=None) -> float:
    """d MSE_asyn / dh at fixed blocklength.

    -c (1-eps)^2 q / (1 - q eps)^2 * 2a * sum_n w_n B_n, where B_n collapses
    the slot-n gap statistics; all exponentials are kept in bounded form.
    """
    a, T, M = source.a, scheme.T, scheme.M
    eps = blep_average_simplified(link) if eps_bar is None else float(eps_bar)
    w = field.target_factors(source.b, power=2.0)
    cf = ClosedForm(source, T, link.tau, M, h)
    q, E = cf.q, cf.E
    n = np.arange(1, M + 1)
    decay = np.exp(-2.0 * a * h * (M - n))            # e^{2ahn} q^M
    cross = np.exp(-2.0 * a * (T - h * n))            # e^{2ahn} E
    inner = ((1.0 - q * eps) * M * decay
             + (1.0 - n * (1.0 - q * eps)) * (decay - cross))
    B = 1.0 - eps ** (M - n) * inner / (1.0 - E * eps ** M)
    return float(-cf.c * (1.0 - eps) ** 2 * q / (1.0 - q * eps) ** 2
                 * 2.0 * a * np.dot(w, B))


def eval_F(source: SourceParams, field: SensorField, link: LinkParams,
           scheme: SchemeConfig, N: float, h: float | None = None) -> float:
    """d MSE_asyn / dN at fixed time shift (simplified BLEP model inside)."""
    cf = ClosedForm(source, scheme.T, N * link.T_s, scheme.M,
                    scheme.h if h is None else h)
    return _dmse_dN(source, link, cf, field.target_factors(source.b, power=2.0), N)


# ---------------------------------------------------------------------------
# single-coordinate optimizers
# ---------------------------------------------------------------------------

def _effective_lower(link, n_lo, n_hi):
    """Skip the saturated plateau where the average BLEP underflows to 1.

    On that plateau the objective is flat at sigma2 and every stationarity
    function is identically zero, which would hand the root finder a
    spurious root at the boundary.  Returns the plateau edge, or None when
    the whole range is saturated.
    """
    if blep_average_simplified(link, N=n_lo) < 1.0:
        return float(n_lo)
    if blep_average_simplified(link, N=n_hi) >= 1.0:
        return None
    lo, hi = float(n_lo), float(n_hi)
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if blep_average_simplified(link, N=mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def _syn_blocklength_cap(T, T_s):
    """Largest N whose delay N T_s stays below the period T.

    A ratio T / T_s within 1e-9 of an integer counts as that integer, so
    the blocklength that would fill the whole period is excluded.
    """
    return int(math.ceil(T / T_s - 1e-9)) - 1


def _blocklength_range(link, cfg, n_cap):
    """(N_min, upper bound, plateau edge) of a blocklength step.

    ``n_cap`` is the largest blocklength the timing allows; ``cfg.N_max``
    can lower it further.
    """
    n_lo = cfg.N_min
    n_hi = n_cap if cfg.N_max is None else min(n_cap, cfg.N_max)
    if n_hi < n_lo:
        raise InvalidConfigError(f"empty blocklength range [{n_lo}, {n_hi}]")
    n_eff = _effective_lower(link, n_lo, n_hi)
    if n_eff is None:
        raise BracketError(
            f"average BLEP saturated at 1 over the whole range [{n_lo}, {n_hi}]"
        )
    return n_lo, n_hi, n_eff


def _evaluated_once(f):
    """f with one evaluation per point (10 and 10.0 are the same point)."""
    values = {}

    def once(x):
        if x not in values:
            values[x] = f(x)
        return values[x]

    return once


def _stationary_point(f, lo, hi, snap, xtol, root_tol, label, edge=None):
    """Minimizer on [lo, hi] of a 1-D objective whose derivative is f.

    In order: f > 0 at lo is the "lower-boundary", f < 0 at hi the
    "upper-boundary"; a blocklength step passes the plateau edge, and
    f >= 0 there is the "plateau-edge", snapped to the grid; otherwise the
    root of f on [edge, hi] (edge = lo for a time shift), snapped to the
    grid, is the "interior-root".  f is evaluated once per point: brentq
    re-evaluates its bracket ends and the residual check the root.
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
            return snap(lo), "plateau-edge", abs(f_lo)
    if not (np.isfinite(f_lo) and np.isfinite(f_hi)):
        raise BracketError(f"{label}: non-finite values at bracket "
                           f"({f_lo} at {lo}, {f_hi} at {hi})")
    if f_lo == 0.0 or f_hi == 0.0:
        return snap(lo if f_lo == 0.0 else hi), "interior-root", 0.0
    root = brentq(f, lo, hi, xtol=xtol)
    res = abs(f(root))
    if res > root_tol:
        raise BracketError(f"{label}: residual {res:.3e} exceeds {root_tol}")
    return snap(root), "interior-root", res


def optimize_blocklength_syn(source, field, link, scheme, cfg=None) -> OptResult:
    """Closed-form-guided optimal blocklength for the synchronous scheme.

    Boundary rules first (H > 0 at the lower bound, H < 0 at the upper),
    otherwise the better of the two integers around the root of H.
    """
    cfg = cfg or OptimizerConfig()
    n_cap = _syn_blocklength_cap(scheme.T, link.T_s)
    n_lo, n_hi, n_eff = _blocklength_range(link, cfg, n_cap)
    obj = lambda n: _syn_objective(source, field, link, scheme, n)
    n_star, branch, res = _stationary_point(
        lambda n: eval_H(source, field, link, scheme, n), n_lo, n_hi,
        lambda x: _best_int(obj, x, n_lo, n_hi), 1e-9, cfg.root_tol, "H(N)",
        edge=n_eff)
    val = obj(n_star)
    return OptResult(scheme.scheme, n_star, None,
                     _exact_mse(source, field, link, scheme, n_star), val, 1, True,
                     branch, trace=[TraceRow(1, None, n_star, val, 0.0, res)],
                     convexity_warning=source_l_warn(link))


def optimize_time_shift(source, field, link, scheme, cfg=None, N=None) -> OptResult:
    """Optimal time shift at fixed blocklength for the asynchronous scheme."""
    cfg = cfg or OptimizerConfig()
    n = int(link.N if N is None else N)
    tau = n * link.T_s
    h_lo = link.T_s
    h_hi = (scheme.T - tau) / (scheme.M - 1)
    if h_hi < h_lo * (1.0 - 1e-9):
        raise InvalidConfigError(
            f"no feasible time shift: (T - tau)/(M-1) = {h_hi} < T_s"
        )
    h_hi = max(h_hi, h_lo)  # guard a band degenerate to one grid point
    link_n = link.with_blocklength(n)
    obj = lambda hh: _asyn_objective(source, field, link_n, scheme, n, hh)
    h_star, branch, res = _stationary_point(
        lambda hh: eval_J(source, field, link_n, scheme, hh), h_lo, h_hi,
        lambda x: _best_h(obj, x, link.T_s, h_lo, h_hi), 1e-13, cfg.root_tol,
        "J(h)")
    val = obj(h_star)
    return OptResult(scheme.scheme, n, h_star,
                     _exact_mse(source, field, link_n, scheme, n, h_star), val, 1,
                     True, branch, trace=[TraceRow(1, h_star, n, val, res, 0.0)])


def optimize_blocklength_asyn(source, field, link, scheme, cfg=None, h=None) -> OptResult:
    """Optimal blocklength at fixed time shift for the asynchronous scheme.

    Falls back to an integer grid scan when F changes sign more than once
    on the feasible range (the objective is provably convex in N only at
    h = T/M).
    """
    cfg = cfg or OptimizerConfig()
    hh = scheme.h if h is None else h
    n_cap = int(math.floor((scheme.T - (scheme.M - 1) * hh) / link.T_s + 1e-9))
    n_lo, n_hi, n_eff = _blocklength_range(link, cfg, n_cap)
    obj = lambda n: _asyn_objective(source, field, link, scheme, n, hh)
    # shared with the decision rule: the probe holds the plateau edge and N_max
    Ff = _evaluated_once(lambda n: eval_F(source, field, link, scheme, n, h=hh))

    probe = np.linspace(n_eff, n_hi, min(33, n_hi - n_lo + 1))
    signs = np.sign([Ff(p) for p in probe])
    if int(np.sum(np.abs(np.diff(signs[signs != 0])) > 0)) > 1:
        grid = np.arange(n_lo, n_hi + 1)
        n_star = int(grid[int(np.argmin([obj(int(n)) for n in grid]))])
        branch, res = "grid-fallback", abs(Ff(n_star))
    else:
        n_star, branch, res = _stationary_point(
            Ff, n_lo, n_hi, lambda x: _best_int(obj, x, n_lo, n_hi), 1e-9,
            cfg.root_tol, "F(N)", edge=n_eff)
    val = obj(n_star)
    return OptResult(scheme.scheme, n_star, hh,
                     _exact_mse(source, field, link, scheme, n_star, hh), val, 1,
                     True, branch, trace=[TraceRow(1, hh, n_star, val, 0.0, res)],
                     convexity_warning=source_l_warn(link))


def _best_int(obj, root, lo, hi):
    cands = sorted({min(max(int(math.floor(root)), lo), hi),
                    min(max(int(math.ceil(root)), lo), hi)})
    return min(cands, key=lambda n: (obj(n), n))


def _best_h(obj, root, step, lo, hi):
    k_lo = math.floor(root / step)
    cands = sorted({min(max(k_lo * step, lo), hi),
                    min(max((k_lo + 1) * step, lo), hi)})
    return min(cands, key=lambda hh: (obj(hh), hh))


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
    n_cap = int(math.floor(T / Ts + 1e-9)) - (M - 1)
    if cfg.N_max is not None:
        n_cap = min(n_cap, cfg.N_max)
    if n_cap < cfg.N_min:
        raise InvalidConfigError("joint constraint leaves no feasible blocklength")

    projected = False
    n_cur = 80 if start_N is None else int(start_N)
    if not cfg.N_min <= n_cur <= n_cap:
        n_cur = min(max(n_cur, cfg.N_min), n_cap)
        projected = start_N is not None
    if start_h is None:
        h_cur = (T - n_cur * Ts) / (2.0 * (M - 1))
        h_cur = max(Ts, math.floor(h_cur / Ts + 1e-9) * Ts)
    else:
        h_cur = float(start_h)
    h_max0 = (T - n_cur * Ts) / (M - 1)
    if not Ts <= h_cur <= h_max0 + 1e-15:
        h_cur = min(max(h_cur, Ts),
                    max(Ts, math.floor(h_max0 / Ts + 1e-9) * Ts))
        projected = True

    obj = lambda n, hh: _asyn_objective(source, field, link, scheme, n, hh)
    result = OptResult(scheme.scheme, n_cur, h_cur, math.nan, obj(n_cur, h_cur),
                       0, False, "jtsbo", projected_start=projected,
                       convexity_warning=source_l_warn(link))

    cur_val = obj(n_cur, h_cur)
    for i in range(1, cfg.I_max + 1):
        h_prev, n_prev = h_cur, n_cur

        step_h = optimize_time_shift(source, field, link, scheme, cfg, N=n_cur)
        if step_h.objective_star <= cur_val:
            h_cur, cur_val = step_h.h_star, step_h.objective_star
        res_h = step_h.trace[-1].residual_h

        step_n = optimize_blocklength_asyn(source, field, link, scheme, cfg, h=h_cur)
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
    result.mse_star = _exact_mse(source, field, link, scheme, n_cur, h_cur)
    return result


# ---------------------------------------------------------------------------
# exhaustive baselines
# ---------------------------------------------------------------------------

def exhaustive_search(source, field, link, scheme, cfg=None,
                      objective="simplified") -> OptResult:
    """Full grid scan: integer N, time shifts on the T_s grid.

    ``objective`` picks the BLEP model used for the scanned values
    ("simplified" matches the stationarity functions, "exact" the
    closed-form average).  The syn/no blocklength range is scored in one
    :class:`ClosedForm` call; the asynchronous (N, h) grid in row-major
    chunks of at most ``_GRID_CHUNK`` points, each one call.  Ties break
    toward smaller N, then smaller h, independent of chunking.
    ``evaluations`` counts scored grid points.
    """
    cfg = cfg or OptimizerConfig()
    T, Ts, M = scheme.T, link.T_s, scheme.M
    K = int(math.floor(T / Ts + 1e-9))
    eps_of = blep_average_simplified if objective == "simplified" else blep_average
    syn = scheme.scheme in (Scheme.NO_INFER, Scheme.SYN_INFER)
    n_hi = _syn_blocklength_cap(T, Ts) if syn else K - (M - 1)
    if cfg.N_max is not None:
        n_hi = min(n_hi, cfg.N_max)
    Ns = np.arange(cfg.N_min, n_hi + 1)
    if Ns.size == 0:
        raise InvalidConfigError("empty blocklength range" if syn else
                                 "constraint leaves no feasible (N, h) point")
    eps = np.array([eps_of(link, N=int(n)) for n in Ns])

    if syn:
        cf = ClosedForm(source, T, Ns * Ts, M)
        vals = cf.mse(eps, _syn_factors(source, field, scheme))
        k = int(np.argmin(vals))  # first minimum: the smallest N among ties
        n_star = int(Ns[k])
        mse = _exact_mse(source, field, link, scheme, n_star)
        return OptResult(scheme.scheme, n_star, None, mse, float(vals[k]), 1, True,
                         "exhaustive", evaluations=int(Ns.size))

    w = field.target_factors(source.b, power=2.0)
    steps = (K - Ns) // (M - 1)  # feasible shifts T_s .. steps*T_s, non-increasing
    best = (math.inf, None, None)
    i = 0
    while i < Ns.size:
        width = int(steps[i])
        j = min(Ns.size, i + max(1, _GRID_CHUNK // width))
        hs = Ts * np.arange(1, width + 1)
        cf = ClosedForm(source, T, Ns[i:j, None] * Ts, M, hs)
        vals = cf.mse(eps[i:j, None], w)
        vals[np.arange(width) >= steps[i:j, None]] = np.inf
        k = int(np.argmin(vals))  # row-major: smallest N, then smallest h
        if vals.flat[k] < best[0]:  # strict: an earlier chunk keeps a tie
            row, col = divmod(k, width)
            best = (float(vals.flat[k]), int(Ns[i + row]), float(hs[col]))
        i = j
    mse = _exact_mse(source, field, link, scheme, best[1], best[2])
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
    "optimize_blocklength_syn", "optimize_time_shift", "optimize_blocklength_asyn",
    "jtsbo", "exhaustive_search",
    "expected_evaluation_count", "complexity_estimate",
]
