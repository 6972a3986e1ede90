"""Blocklength and time-shift adaptation.

Shorter packets age less but fail more, so the average reconstruction
error has an interior optimum in the blocklength N; the asynchronous
scheme adds a time shift h trading intra-period freshness against the
wrap-around gap at the period boundary.

Both coordinates are integer indices, N and the shift index k of
h = k T_s, so each adaptation step is the exact integer argmin of the
objective over its range, scored in one array call per block of lanes
(below), ties to the smallest index.  The objective uses the
single-exponential simplified average block error probability (BLEP),
which is analytic in N, and the stationarity functions

    H(N) = d MSE_syn / dN,   J(h) = d MSE_asyn / dh,   F(N) = d MSE_asyn / dN

are one slope rule, :func:`_dmse`: the complex step of the objective in N
or in h, exact to rounding.  A step reports |H|, |J| or |F| at the integer
it returns as a diagnostic.  The module also provides the alternating joint
optimizer and exhaustive-search baselines.

Every optimizer takes a field, one weight vector or a stack of them, and
runs a stack's vectors as lanes of one pass over the geometry: what reads
no weight (the BLEP range, the plateau edge, the face step's points, the
exhaustive grid's left factor, denominator and shift mask) is formed once
per call.  A step scores the (lanes, range) matrix in blocks of lanes whose
(lanes x range x M) temporaries stay within ``mse._LANE_BUDGET`` values,
and each lane takes its argmin on its own row, the columns past its own
range masked out (:func:`mse._argmin_step`, which :func:`mse.eps_star_asyn`
shares).  A lane's entries go through the operations of a one-vector call,
so a lane gives the bits of a call with its vector alone.  In ``jtsbo`` a
lane freezes once an iteration leaves its point unchanged.
Every optimizer's result is made by ``_result``.  For a stack its points
and objectives are arrays of the stack's shape.  So is an adaptation's
``branch``; its ``trace`` holds one list per lane, ``iterations`` is the
total over the lanes and ``converged`` is true when every lane converged
(an exhaustive search is one scan).  ``mse_star`` is the objective at the
exact BLEP, :func:`blep.blep_average`, so it is :func:`mse.average_mse` at
the returned (N, h).

The MSE is exactly linear in the source variance sigma2, so every step
scores and compares the objective at unit variance.  sigma2 multiplies each
slope once and each result once, in ``mse_star`` and the trace's ``mse``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .blep import LinkParams, _complex_step, blep_average, blep_average_simplified
from .errors import BracketError, InvalidConfigError, _check_scale
from .field import SensorField, SourceParams
from .mse import (_TIMING_TOL, ClosedForm, Scheme, SchemeConfig, _argmin_step,
                  max_blocklength, scheme_weights, shift_count)

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
    # N_star, h_star and mse_star, and an adaptation's branch, are arrays
    # of the stack's shape for a stack of weight vectors; an adaptation's
    # trace is then one list per lane
    N_star: int
    h_star: float | None
    mse_star: float
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
    cf = ClosedForm(source, scheme.T, N * link.T_s, w.shape[-1], h)
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

def _blocklength_cap(T, T_s, cfg, shift=0.0):
    """Largest blocklength of a step or a search: :func:`max_blocklength`
    at the shift time ``shift`` = (M - 1) h (an array gives one cap per
    entry), lowered to ``cfg.N_max``.  Raises InvalidConfigError when a
    cap lies below ``cfg.N_min``, and ScaleLimitError past the range scale
    limit."""
    n_hi = max_blocklength(T, T_s, shift)
    if cfg.N_max is not None:
        n_hi = np.minimum(n_hi, cfg.N_max)
    if np.min(n_hi) < cfg.N_min:
        raise InvalidConfigError(f"empty blocklength range [{cfg.N_min}, {np.min(n_hi)}]")
    _check_scale("range", np.max(n_hi) - cfg.N_min + 1,
                 f"the blocklength range from N_min = {cfg.N_min}")
    return n_hi


def _blocklength_step(source, W, link, scheme, cfg, h, eps):
    """Blocklength step of each lane, a row of the weight stack ``W``, at
    its time shift h[lane] (h None for no/syn): (N, objective, branch), one
    entry per lane.  ``eps`` is the simplified BLEP from N_min to at least
    the largest cap.

    The step starts at the plateau edge, the first N whose simplified BLEP
    is below 1: below it the BLEP is saturated at 1, the objective is flat
    at 1 and H and F vanish.  The lanes share the columns from the edge to
    the largest cap; each takes its argmin up to its own cap.  Raises
    BracketError when a lane's whole range is saturated.
    """
    hi = np.broadcast_to(_blocklength_cap(scheme.T, link.T_s, cfg,
                                          0.0 if h is None else (scheme.M - 1) * h),
                         len(W))
    edge = int(np.argmax(eps < 1.0))  # 0 when every value is saturated
    start = cfg.N_min + edge
    flat = np.flatnonzero((not eps[edge] < 1.0) | (start > hi))
    if flat.size:
        raise BracketError(f"average BLEP saturated at 1 over the whole range "
                           f"[{cfg.N_min}, {hi[flat[0]]}]")
    n = np.arange(start, hi.max() + 1)
    x, val = _argmin_step(lambda s: _objective(source, W[s, None], link, scheme, n,
                                               None if h is None else h[s, None],
                                               eps=eps[edge:edge + n.size]),
                          len(W), W.shape[-1], start, hi)
    return x, val, _branch(x, cfg.N_min, start, hi)


def _time_shift_step(source, W, link, scheme, n, eps):
    """Time-shift step of each lane, a row of the weight stack ``W``, at
    its blocklength n[lane], whose simplified BLEP is eps[lane], over the
    grid index k = 1 .. :func:`mse.shift_count`: (k, objective, branch),
    one entry per lane.  The lanes share the columns up to the largest
    count; each takes its argmin up to its own."""
    k_hi = shift_count(scheme.T, link.T_s, scheme.M, n)
    bad = np.flatnonzero(k_hi < 1)
    if bad.size:
        raise InvalidConfigError(f"no feasible time shift at blocklength N={n[bad[0]]}")
    k = np.arange(1, k_hi.max() + 1)
    x, val = _argmin_step(lambda s: _objective(source, W[s, None], link, scheme, n[s, None],
                                               k * link.T_s, eps=eps[s, None]),
                          len(W), W.shape[-1], 1, k_hi)
    return x, val, _branch(x, 1, 1, k_hi)


def _branch(x, lo, start, hi):
    """Each lane's branch, named by where its step's minimizer x lies on
    the lane's range [lo, hi], scored from ``start``: "lower-boundary" at
    lo, "upper-boundary" at hi, "plateau-edge" at a start above lo,
    otherwise "interior-root"."""
    return np.select([x == lo, x == hi, x == start],
                     ["lower-boundary", "upper-boundary", "plateau-edge"], "interior-root")


def _result(source, link, scheme, w, n, h, branch, rows=None, slopes="",
            converged=True, evaluations=None):
    """The OptResult for the weights ``w``, one vector or a stack, of
    per-lane arrays: N, h (None for no/syn) and branch (one str for a
    scan).  ``rows`` are the trace's columns, lane, iteration, h, N and
    unit-variance objective, in any lane order, and ``iterations`` counts
    them (a scan is one); a row's |J| and |F| are one :func:`_dmse` call
    each over the rows for the coordinates in ``slopes``, else 0.
    ``mse_star``, the one value of an optimum, is one :func:`_objective`
    call at every lane's point, at one :func:`blep_average` call over their N.
    sigma2 multiplies each value; each field is a number for one vector,
    else an array of the stack's shape (a trace, one list per lane)."""
    s2, W = source.sigma2_x, w.reshape(-1, w.shape[-1])

    def per_lane(x):
        x = np.asarray(x).tolist()
        return x[0] if w.ndim == 1 else np.reshape(x, w.shape[:-1])

    trace, iterations = [], 1
    if rows is not None:
        lane, its, hs, ns, vals = rows
        res = [np.abs(_dmse(source, W[lane], link, scheme, ns, hs, x)) if x in slopes
               else np.zeros(lane.size) for x in "hN"]
        at = np.argsort(lane, kind="stable")
        flat = map(TraceRow, *(itertools.repeat(None) if c is None else c[at].tolist()
                               for c in (its, hs, ns, s2 * vals, *res)))
        trace = [list(itertools.islice(flat, c))
                 for c in np.bincount(lane, minlength=len(W)).tolist()]
        trace, iterations = trace[0] if w.ndim == 1 else trace, lane.size
    mse = s2 * _objective(source, W, link, scheme, n, h, eps=blep_average(link, N=n))
    return OptResult(per_lane(n), None if h is None else per_lane(h),
                     per_lane(mse), iterations, converged,
                     branch if isinstance(branch, str) else per_lane(branch), trace,
                     evaluations)


def optimize_blocklength(source, field_or_weights, link, scheme, cfg=None) -> OptResult:
    """Optimal integer blocklength at a fixed time shift, for every scheme.

    The asynchronous scheme keeps its time shift ``scheme.h``.  The step is
    the integer argmin of the objective from the plateau edge to the cap
    (:func:`_blocklength_step`); the trace row's residual is |H| or |F|
    there.  ``field_or_weights`` is a field, one weight vector or a
    (lanes, M) stack (the no-inference form reads no weight, so it is one
    lane); the lanes share one BLEP range and plateau edge, and one array
    call per block of lanes scores their rows, as in :func:`jtsbo`, whose
    result fields this follows.  A lane takes one iteration, so
    ``iterations`` counts the lanes.
    """
    cfg = cfg or OptimizerConfig()
    w = scheme_weights(source, field_or_weights, scheme)
    W = w.reshape(-1, w.shape[-1])
    hh = scheme.h if scheme.scheme is Scheme.ASYN_INFER else None
    n_hi = _blocklength_cap(scheme.T, link.T_s, cfg,
                            0.0 if hh is None else (scheme.M - 1) * hh)
    eps = blep_average_simplified(link, N=np.arange(cfg.N_min, n_hi + 1))
    h = None if hh is None else np.full(len(W), hh)
    n, val, branch = _blocklength_step(source, W, link, scheme, cfg, h, eps)
    lane = np.arange(len(W))
    return _result(source, link, scheme, w, n, h, branch,
                   (lane, np.ones_like(lane), h, n, val), "N")


def optimize_time_shift(source, field_or_weights, link, scheme) -> OptResult:
    """Optimal time shift at the link's blocklength, asynchronous scheme.

    The step is the integer argmin over the grid index k = 1 ..
    :func:`mse.shift_count`, so the returned shift is h = k T_s; the trace
    row's residual is |J| there.  ``field_or_weights`` and the result's
    fields are as in :func:`optimize_blocklength`.  A scheme that is not
    asynchronous raises InvalidConfigError.
    """
    if scheme.scheme is not Scheme.ASYN_INFER:
        raise InvalidConfigError("optimize_time_shift needs an asynchronous config")
    w = scheme_weights(source, field_or_weights, scheme)
    W = w.reshape(-1, w.shape[-1])
    n = np.full(len(W), int(link.N))
    k, val, branch = _time_shift_step(source, W, link, scheme, n,
                                      blep_average_simplified(link, N=n))
    h = k * link.T_s
    lane = np.arange(len(W))
    return _result(source, link, scheme, w, n, h, branch,
                   (lane, np.ones_like(lane), h, n, val), "h")


# ---------------------------------------------------------------------------
# joint optimization
# ---------------------------------------------------------------------------

def jtsbo(source, field_or_weights, link, scheme, cfg=None) -> OptResult:
    """Alternating time-shift / blocklength optimization.

    Starts from N = 80 channel uses (clamped to the feasible range) and the
    midpoint grid shift at that N, then repeats an h-step at fixed N, an
    N-step at fixed h and a face step until the iteration cap or until an
    iteration leaves (N, h) exactly unchanged (``converged``).  The face
    step takes the best point of the constraint face on the grid, every N
    from the plateau edge at its last grid shift, scored once per call
    (below the edge the objective is exactly 1); it moves the iterate off
    a corner where both coordinate steps stall.  Every candidate comparison
    keeps the incumbent, so the internal objective is non-increasing
    across iterations by construction.
    Each trace row holds |J| and |F| at the row's own (h, N).

    ``field_or_weights`` is what :func:`exhaustive_search` takes: a field,
    one weight vector or a (lanes, M) stack.  The lanes step together: the
    simplified BLEP over [N_min, cap], the plateau edge and the face step's
    N, h and BLEP are formed once per call, and each step scores the
    (lanes, range) matrix in blocks of lanes (:func:`_argmin_step`): the
    time-shift step each lane's own N against k = 1 .. the largest shift
    count, the blocklength step each lane's own h against N from the edge
    to the largest cap, with the columns past a lane's own count or cap
    masked out.  A lane freezes once an iteration leaves its (N, h)
    unchanged and gets no more trace rows; the steps run while any lane is
    still moving, up to ``I_max``.  A lane's entries take the operations of
    a one-vector call, so a lane gives the bits of a call with its vector
    alone; the result's fields are shaped as the module docstring says.
    When several lanes fail, the error is that of the first lane to fail in
    the stack's step order.  A scheme that is not asynchronous raises
    InvalidConfigError.
    """
    if scheme.scheme is not Scheme.ASYN_INFER:
        raise InvalidConfigError("jtsbo needs an asynchronous config")
    cfg = cfg or OptimizerConfig()
    T, Ts, M = scheme.T, link.T_s, scheme.M
    w = scheme_weights(source, field_or_weights, scheme)
    W = w.reshape(-1, M)
    n_cap = _blocklength_cap(T, Ts, cfg, (M - 1) * Ts)
    face_n = np.arange(cfg.N_min, n_cap + 1)
    eps = blep_average_simplified(link, N=face_n)

    # n0 <= n_cap, the cap at the first grid shift, so at least one shift fits
    n0 = min(max(80, cfg.N_min), n_cap)
    h0 = max(1, int(shift_count(T, Ts, M, n0)) // 2) * Ts
    n_cur, h_cur = np.full(len(W), n0), np.full(len(W), h0)
    cur = _objective(source, W, link, scheme, n0, h0)
    face_h = shift_count(T, Ts, M, face_n) * Ts
    # the face from the plateau edge: below it the objective is exactly 1
    edge = int(np.argmax(eps < 1.0))
    face, face_val = _argmin_step(
        lambda s: _objective(source, W[s, None], link, scheme, face_n[edge:],
                             face_h[edge:], eps=eps[edge:]),
        len(W), M, cfg.N_min + edge, np.full(len(W), n_cap))
    face -= cfg.N_min

    rows = []  # each iteration's (lane, iteration, h, N, objective) columns
    act = np.arange(len(W))  # the lanes still moving
    for i in range(1, cfg.I_max + 1):
        n_prev, h_prev = n_cur[act], h_cur[act]
        k, val, _ = _time_shift_step(source, W[act], link, scheme, n_prev,
                                     eps[n_prev - cfg.N_min])
        take = val <= cur[act]
        h_cur[act[take]], cur[act[take]] = k[take] * Ts, val[take]
        n, val, _ = _blocklength_step(source, W[act], link, scheme, cfg, h_cur[act], eps)
        take = val <= cur[act]
        n_cur[act[take]], cur[act[take]] = n[take], val[take]
        take = act[face_val[act] < cur[act]]
        n_cur[take], h_cur[take] = face_n[face[take]], face_h[face[take]]
        cur[take] = face_val[take]
        rows.append((act, np.full(act.size, i), h_cur[act], n_cur[act], cur[act]))
        # exact: N is an int and every step's h is the product k T_s
        act = act[(n_cur[act] != n_prev) | (h_cur[act] != h_prev)]
        if not act.size:
            break

    return _result(source, link, scheme, w, n_cur, h_cur, np.full(len(W), "jtsbo"),
                   tuple(map(np.concatenate, zip(*rows))), "hN", converged=not act.size)


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
    ``N_star``, ``h_star`` (None for syn/no) and ``mse_star`` (at the exact
    BLEP for either ``objective``) are numbers for a field or one vector,
    else arrays of the stack's shape.
    ``evaluations`` counts scored points over every lane; a grid past the
    grid scale limit raises ScaleLimitError before any point is scored.
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
        cf, eps = ClosedForm(source, T, Ns * Ts, lanes.shape[1]), eps_of(link, N=Ns)
        n_star, _ = _argmin_step(lambda s: cf.mse(eps, lanes[s, None]), len(lanes),
                                 lanes.shape[1], cfg.N_min, np.full(len(lanes), n_hi))
        h_star, points = None, Ns.size
    else:
        steps = shift_count(T, Ts, M, Ns)  # feasible shifts T_s .. steps*T_s, non-increasing
        points = int(steps.sum())
        _check_scale("grid", points, "the exhaustive (N, h) grid")
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
        n_star, h_star = Ns[at[:, 0]], hs[at[:, 1]]
    return _result(source, link, scheme, w, n_star, h_star, "exhaustive",
                   evaluations=len(lanes) * points)


def expected_evaluation_count(T, T_s, M, N_min=DEFAULT_N_MIN) -> int:
    """Closed-form size of the asynchronous exhaustive grid.

    sum over N of floor((T/T_s - N)/(M-1)) for N from N_min to
    T/T_s - (M-1); evaluated exactly via the floor-sum identity.
    InvalidConfigError unless M >= 2.
    """
    if M < 2:
        raise InvalidConfigError(f"a time-shift grid needs M >= 2, got M={M}")
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
