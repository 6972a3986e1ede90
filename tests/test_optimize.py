import math

import numpy as np
import pytest

import sptrecon as sp
from sptrecon import optimize
from sptrecon.optimize import _asyn_objective, _syn_objective


@pytest.fixture(scope="module")
def fig_blocklength():
    """Long-period, high-SNR setup with an interior blocklength optimum."""
    src = sp.SourceParams()
    field = sp.place_sensors(5, 10.0, seed=7)
    link = sp.LinkParams.from_db(gamma_r_bar_db=15.0)
    scheme = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.300, M=5, m=1)
    return src, field, link, scheme


@pytest.fixture(scope="module")
def fig_time_shift():
    """Fast-decaying source where the time shift has an interior optimum."""
    src = sp.SourceParams(a=4.0)
    field = sp.place_sensors(5, 10.0, seed=7)
    link = sp.LinkParams.from_db(gamma_r_bar_db=15.0)
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.005, M=5, m=1)
    return src, field, link, scheme


# ---------------------------------------------------------------------------
# stationarity functions vs central finite differences
# ---------------------------------------------------------------------------

def test_H_matches_finite_difference(fig_blocklength):
    src, field, link, scheme = fig_blocklength
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = float(rng.uniform(40.0, 2500.0))
        step = max(1e-5 * n, (np.finfo(float).eps ** (1 / 3)) * n)
        fd = (_syn_objective(src, field, link, scheme, n + step)
              - _syn_objective(src, field, link, scheme, n - step)) / (2 * step)
        assert sp.eval_H(src, field, link, scheme, n) == pytest.approx(fd, rel=1e-4)


def test_J_matches_finite_difference(source, field, link, asyn_scheme):
    rng = np.random.default_rng(32)
    h_hi = (asyn_scheme.T - link.tau) / (asyn_scheme.M - 1)
    for _ in range(50):
        h = float(rng.uniform(link.T_s, h_hi))
        step = 1e-7
        fd = (_asyn_objective(source, field, link, asyn_scheme, link.N, h + step)
              - _asyn_objective(source, field, link, asyn_scheme, link.N, h - step)
              ) / (2 * step)
        assert sp.eval_J(source, field, link, asyn_scheme, h) == pytest.approx(
            fd, rel=1e-4)


def test_F_matches_finite_difference(source, field, link, asyn_scheme):
    rng = np.random.default_rng(33)
    for _ in range(50):
        n = float(rng.uniform(40.0, 1400.0))
        step = max(1e-5 * n, (np.finfo(float).eps ** (1 / 3)) * n)
        fd = (_asyn_objective(source, field, link, asyn_scheme, n + step, asyn_scheme.h)
              - _asyn_objective(source, field, link, asyn_scheme, n - step, asyn_scheme.h)
              ) / (2 * step)
        assert sp.eval_F(source, field, link, asyn_scheme, n) == pytest.approx(
            fd, rel=1e-4)


def test_H_sign_change_straddles_grid_argmin(fig_blocklength):
    src, field, link, scheme = fig_blocklength
    ns = np.arange(10, int(scheme.T / link.T_s) + 1)
    vals = [_syn_objective(src, field, link, scheme, float(n)) for n in ns]
    n_hat = int(ns[int(np.argmin(vals))])
    assert sp.eval_H(src, field, link, scheme, n_hat - 1.0) < 0
    assert sp.eval_H(src, field, link, scheme, n_hat + 1.0) > 0


def test_H_positive_when_delay_dominates(fig_blocklength):
    src, field, link, scheme = fig_blocklength
    n_edge = scheme.T / link.T_s - 1.0
    assert sp.eval_H(src, field, link, scheme, n_edge) > 0


def test_J_sign_change_straddles_grid_argmin(fig_time_shift):
    src, field, link, scheme = fig_time_shift
    h_hi = (scheme.T - link.tau) / (scheme.M - 1)
    hs = np.linspace(link.T_s, h_hi, 400)
    vals = [_asyn_objective(src, field, link, scheme, link.N, float(h)) for h in hs]
    k = int(np.argmin(vals))
    assert 0 < k < len(hs) - 1  # interior optimum exists on this setup
    assert sp.eval_J(src, field, link, scheme, float(hs[k - 1])) < 0
    assert sp.eval_J(src, field, link, scheme, float(hs[k + 1])) > 0


def test_F_sign_change_straddles_grid_argmin(source, field, link, asyn_scheme):
    n_hi = int((asyn_scheme.T - 4 * asyn_scheme.h) / link.T_s)
    ns = np.arange(40, n_hi + 1)
    vals = [_asyn_objective(source, field, link, asyn_scheme, float(n), asyn_scheme.h)
            for n in ns]
    n_hat = int(ns[int(np.argmin(vals))])
    assert 40 < n_hat < n_hi
    assert sp.eval_F(source, field, link, asyn_scheme, n_hat - 1.0) < 0
    assert sp.eval_F(source, field, link, asyn_scheme, n_hat + 1.0) > 0


def test_optresult_reports_exact_model_mse(source, field, link, asyn_scheme):
    res = sp.jtsbo(source, field, link, asyn_scheme)
    cfg = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=asyn_scheme.T, h=res.h_star,
                          M=asyn_scheme.M, m=asyn_scheme.m)
    direct = sp.mse_asyn_infer(source, field,
                               link.with_blocklength(res.N_star), cfg).value
    assert res.mse_star == direct


def test_objective_convex_in_h(source, field, link):
    # second differences positive across the proven band T >= M h
    for T in (0.12, 0.2):
        scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=T, h=0.005, M=5, m=1)
        hs = np.linspace(link.T_s, T / scheme.M, 200)
        vals = np.array([_asyn_objective(source, field, link, scheme, 80, float(h))
                         for h in hs])
        assert np.all(np.diff(vals, 2) > -1e-15)


def test_objective_convex_in_n_at_balanced_shift(source, field):
    # convex on the operating region around the optimum; far in the tail,
    # where the error probability has flattened and only the delay factor
    # sigma2 - C exp(-2 a T_s N) moves, the exact curve turns (barely)
    # concave, which the first-order convexity argument ignores
    link = sp.LinkParams.from_db(gamma_r_bar_db=15.0)
    T = 0.300
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=T, h=T / 5, M=5, m=1)
    n_hi = (T - 4 * scheme.h) / link.T_s
    probe = np.linspace(40, n_hi, 561)
    pv = [_asyn_objective(source, field, link, scheme, float(n), scheme.h)
          for n in probe]
    n_opt = float(probe[int(np.argmin(pv))])
    ns = np.linspace(40, 2 * n_opt, 300)
    vals = np.array([_asyn_objective(source, field, link, scheme, float(n), scheme.h)
                     for n in ns])
    assert np.all(np.diff(vals, 2) > -1e-15)


# ---------------------------------------------------------------------------
# blocklength adaptation (synchronous)
# ---------------------------------------------------------------------------

def test_blocklength_boundary_branch(source, field):
    # very high SNR: errors vanish, delay dominates; with the floor raised
    # above the unconstrained optimum the first branch fires
    link = sp.LinkParams.from_db(gamma_r_bar_db=55.0)
    scheme = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.150, M=5, m=1)
    assert sp.eval_H(source, field, link, scheme, 60.0) > 0
    res = sp.optimize_blocklength_syn(source, field, link, scheme,
                                      sp.OptimizerConfig(N_min=60))
    assert res.branch == "lower-boundary"
    assert res.N_star == 60


def test_blocklength_matches_exhaustive(fig_blocklength):
    src, field, link, scheme = fig_blocklength
    res = sp.optimize_blocklength_syn(src, field, link, scheme)
    assert res.branch == "interior-root"
    ex_same = sp.exhaustive_search(src, field, link, scheme, objective="simplified")
    assert res.N_star == ex_same.N_star
    ex_exact = sp.exhaustive_search(src, field, link, scheme, objective="exact")
    assert abs(res.N_star - ex_exact.N_star) <= 1


def test_blocklength_local_optimality(fig_blocklength):
    src, field, link, scheme = fig_blocklength
    res = sp.optimize_blocklength_syn(src, field, link, scheme)
    star = _syn_objective(src, field, link, scheme, res.N_star)
    for d in (-5, -2, -1, 1, 2, 5):
        assert star <= _syn_objective(src, field, link, scheme, res.N_star + d) + 1e-15


# ---------------------------------------------------------------------------
# time-shift adaptation
# ---------------------------------------------------------------------------

def test_time_shift_lower_boundary_branch(field):
    # target in the last slot with barely-correlated neighbours and a lossy
    # link: staggering the useless neighbours later only hurts, so the
    # derivative is already positive at the smallest shift
    src = sp.SourceParams(a=0.2, b=0.5)
    link = sp.LinkParams.from_db(gamma_r_bar_db=0.0)
    f = sp.SensorField(positions=field.positions, target_index=5)
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.005, M=5, m=5)
    assert sp.eval_J(src, f, link, scheme, link.T_s) > 0
    res = sp.optimize_time_shift(src, f, link, scheme)
    assert res.h_star == link.T_s
    assert res.branch == "lower-boundary"


@pytest.fixture(scope="module")
def short_period():
    """Lossy short-payload link and a 50 ms period: both coordinates want to grow."""
    src = sp.SourceParams()
    field = sp.place_sensors(5, region_half_width=10, seed=7, target_index=1)
    link = sp.LinkParams.from_db(L=80, N=80, gamma_r_bar_db=-5.0)
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.050, h=0.0005, M=5, m=1)
    return src, field, link, scheme


def test_time_shift_upper_boundary_branch(short_period):
    src, field, link, scheme = short_period
    res = sp.optimize_time_shift(src, field, link, scheme)
    assert res.branch == "upper-boundary"
    assert (res.N_star, res.h_star) == (80, pytest.approx(0.0105, abs=1e-15))


def test_blocklength_asyn_upper_boundary_branch(short_period):
    src, field, link, scheme = short_period
    res = sp.optimize_blocklength_asyn(src, field, link, scheme, h=0.0094)
    assert (res.N_star, res.h_star, res.branch) == (124, 0.0094, "upper-boundary")


def test_blocklength_syn_upper_boundary_branch():
    src = sp.SourceParams()
    field = sp.place_sensors(2, region_half_width=10, seed=7, target_index=1)
    link = sp.LinkParams.from_db(L=20, N=80, gamma_r_bar_db=-10.0)
    scheme = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.010, M=2, m=1)
    res = sp.optimize_blocklength_syn(src, field, link, scheme,
                                      sp.OptimizerConfig(N_max=30))
    assert (res.N_star, res.h_star, res.branch) == (30, None, "upper-boundary")


def test_blocklength_asyn_grid_fallback_branch():
    # F changes sign more than once on the feasible range: the integer scan
    # takes over from the root finder
    src = sp.SourceParams(a=0.5, b=0.01)
    field = sp.place_sensors(M=7, region_half_width=10, seed=7, target_index=1)
    link = sp.LinkParams.from_db(L=50, N=10, T_s=1e-4, gamma_r_bar_db=14.0)
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.020, h=0.0005, M=7, m=1)
    res = sp.optimize_blocklength_asyn(src, field, link, scheme,
                                       sp.OptimizerConfig(N_min=10))
    assert (res.N_star, res.h_star, res.branch) == (13, 0.0005, "grid-fallback")
    grid = [_asyn_objective(src, field, link, scheme, n, 0.0005) for n in range(10, 171)]
    assert res.N_star == 10 + int(np.argmin(grid))


def test_time_shift_matches_dense_grid(fig_time_shift):
    src, field, link, scheme = fig_time_shift
    res = sp.optimize_time_shift(src, field, link, scheme)
    h_hi = (scheme.T - link.tau) / (scheme.M - 1)
    ks = np.arange(1, int(math.floor(h_hi / link.T_s)) + 1)
    vals = [_asyn_objective(src, field, link, scheme, link.N, float(k * link.T_s))
            for k in ks]
    best = float(ks[int(np.argmin(vals))] * link.T_s)
    assert res.h_star == pytest.approx(best, abs=link.T_s / 2 + 1e-12)


def test_time_shift_interior_on_fast_source(fig_time_shift):
    src, field, link, scheme = fig_time_shift
    res = sp.optimize_time_shift(src, field, link, scheme)
    h_hi = (scheme.T - link.tau) / (scheme.M - 1)
    assert link.T_s < res.h_star < h_hi


# ---------------------------------------------------------------------------
# joint optimization
# ---------------------------------------------------------------------------

def test_jtsbo_fixed_point_converges_immediately(source, field, link, asyn_scheme):
    cfg = sp.OptimizerConfig(I_max=8, tol_h=1e-9, tol_N=0.5)
    ref = sp.jtsbo(source, field, link, asyn_scheme, cfg)
    # warm-starting at the reached optimum stops after a single sweep
    again = sp.jtsbo(source, field, link, asyn_scheme, cfg,
                     start_h=ref.h_star, start_N=ref.N_star)
    assert again.iterations == 1
    assert again.converged
    assert (again.N_star, again.h_star) == (ref.N_star, ref.h_star)


def test_jtsbo_infeasible_start_projected(source, field, link, asyn_scheme):
    res = sp.jtsbo(source, field, link, asyn_scheme, start_h=10.0, start_N=10**6)
    assert res.projected_start
    h_max = (asyn_scheme.T - res.N_star * link.T_s) / (asyn_scheme.M - 1)
    assert link.T_s <= res.h_star <= h_max + 1e-15


def test_jtsbo_objective_monotone_non_increasing(source, field, link, asyn_scheme):
    res = sp.jtsbo(source, field, link, asyn_scheme, sp.OptimizerConfig(I_max=5))
    vals = [t.mse for t in res.trace]
    assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))


def test_jtsbo_close_to_exhaustive(source, field, link, asyn_scheme):
    res = sp.jtsbo(source, field, link, asyn_scheme, sp.OptimizerConfig(I_max=3))
    ex = sp.exhaustive_search(source, field, link, asyn_scheme, objective="exact")
    assert res.mse_star <= ex.mse_star * 1.01


def test_jtsbo_beats_time_shift_only(source, field, link):
    # across the spatial-correlation sweep, joint adaptation is never worse
    # than adapting the shift alone at the default blocklength
    for b in (0.0, 0.005, 0.01, 0.02, 0.05, 0.15):
        src = sp.SourceParams(b=b)
        scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.005, M=5, m=1)
        joint = sp.jtsbo(src, field, link, scheme, sp.OptimizerConfig(I_max=3))
        h_only = sp.optimize_time_shift(src, field, link, scheme, N=80)
        assert joint.mse_star <= h_only.mse_star + 1e-12


def test_jtsbo_residuals_small(source, field, link, asyn_scheme):
    res = sp.jtsbo(source, field, link, asyn_scheme, sp.OptimizerConfig(I_max=3))
    last = res.trace[-1]
    assert last.residual_h < 1e-9 or res.trace[-1].h_s in (
        link.T_s, (asyn_scheme.T - res.N_star * link.T_s) / (asyn_scheme.M - 1))
    assert last.residual_N < 1e-6


# ---------------------------------------------------------------------------
# exhaustive baseline
# ---------------------------------------------------------------------------

def test_exhaustive_count_matches_closed_form(source, field, link):
    for T, M in ((0.05, 5), (0.08, 3), (0.15, 5)):
        scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=T, h=link.T_s, M=M, m=1)
        fld = sp.place_sensors(M, 10.0, seed=1)
        ex = sp.exhaustive_search(source, fld, link, scheme)
        predicted = sp.expected_evaluation_count(T, link.T_s, M)
        assert abs(ex.evaluations - predicted) <= 1
        # leading-order estimate is within a few percent of the exact count
        assert sp.complexity_estimate(T, link.T_s, M) == pytest.approx(
            predicted, rel=0.05)


def test_exhaustive_argmin_independent_of_scan_order(source, field, link, monkeypatch):
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.05, h=link.T_s, M=5, m=1)
    # independent rescan, shuffled candidate order, explicit tie-break
    rng = np.random.default_rng(8)
    K = int(round(scheme.T / link.T_s))
    cands = [(n, k) for n in range(10, K - 4 + 1)
             for k in range(1, (K - n) // 4 + 1)]
    rng.shuffle(cands)
    best = (math.inf, None, None)
    for n, k in cands:
        h = k * link.T_s
        v = _asyn_objective(source, field, link, scheme, n, h)
        if v < best[0] or (v == best[0] and (n, h) < (best[1], best[2])):
            best = (v, n, h)
    # one N per chunk, chunks of several N rows, the default chunk
    for chunk in (1, 300, optimize._GRID_CHUNK):
        monkeypatch.setattr(optimize, "_GRID_CHUNK", chunk)
        ex = sp.exhaustive_search(source, field, link, scheme)
        assert (ex.N_star, ex.h_star) == (best[1], best[2])


def test_exhaustive_exact_ties_break_to_smallest_n_then_h(source, field, monkeypatch):
    # a payload far above capacity saturates the BLEP at 1, so every grid
    # point ties at sigma2 within and across chunks
    link = sp.LinkParams.from_db(L=2000.0)
    T, M = 0.015, 5
    asyn = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=T, h=link.T_s, M=M, m=1)
    syn = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=T, M=M, m=1)
    for chunk in (1, 7, 300, optimize._GRID_CHUNK):
        monkeypatch.setattr(optimize, "_GRID_CHUNK", chunk)
        ex = sp.exhaustive_search(source, field, link, asyn)
        assert (ex.N_star, ex.h_star) == (10, link.T_s)
        assert ex.objective_star == source.sigma2_x
        assert ex.evaluations == sp.expected_evaluation_count(T, link.T_s, M)
    assert sp.exhaustive_search(source, field, link, syn).N_star == 10


def test_small_information_payload_warns(source, field):
    link = sp.LinkParams(L=2.0, N=40)
    scheme = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.150, M=5, m=1)
    with pytest.warns(UserWarning):
        res = sp.optimize_blocklength_syn(source, field, link, scheme)
    assert res.convexity_warning


def test_syn_blocklength_range_stops_before_the_period():
    # T / T_s = 500 and the upper end wins: N = 500 would make the delay
    # equal to the period, so the range ends at N = 499
    src = sp.SourceParams(a=1)
    field = sp.place_sensors(2, 10.0, seed=7)
    link = sp.LinkParams.from_db(L=100, T_s=1e-3, gamma_r_bar_db=-14.5)
    for scheme, M in ((sp.Scheme.SYN_INFER, 2), (sp.Scheme.NO_INFER, 1)):
        cfg = sp.SchemeConfig(scheme, T=0.5, M=M, m=1)
        opt = sp.optimize_blocklength_syn(src, field, link, cfg)
        ex = sp.exhaustive_search(src, field, link, cfg)
        assert opt.branch == "upper-boundary"
        assert opt.N_star == ex.N_star == 499
        assert math.isfinite(opt.mse_star) and math.isfinite(ex.mse_star)
        assert ex.evaluations == 499 - 10 + 1


def test_stationarity_points_evaluated_once(source, field, link, syn_scheme,
                                            asyn_scheme, monkeypatch):
    calls = []
    for name in ("eval_H", "eval_J", "eval_F"):
        def counted(*args, _fn=getattr(optimize, name), _name=name, **kw):
            calls.append((_name, float(args[4]), kw.get("h")))
            return _fn(*args, **kw)
        monkeypatch.setattr(optimize, name, counted)
    steps = [
        lambda: sp.optimize_blocklength_syn(source, field, link, syn_scheme),
        lambda: sp.optimize_time_shift(source, field, link, asyn_scheme),
        lambda: sp.optimize_blocklength_asyn(source, field, link, asyn_scheme),
    ]
    for step in steps:
        calls.clear()
        assert step().branch == "interior-root"
        assert calls and len(set(calls)) == len(calls)
