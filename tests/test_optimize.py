import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sptrecon as sp
from sptrecon import optimize
from sptrecon.mse import max_blocklength, shift_count
from sptrecon.optimize import _objective


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
        fd = (_objective(src, field, link, scheme, n + step)
              - _objective(src, field, link, scheme, n - step)) / (2 * step)
        assert sp.eval_H(src, field, link, scheme, n) == pytest.approx(fd, rel=1e-4)


def test_J_matches_finite_difference(source, field, link, asyn_scheme):
    rng = np.random.default_rng(32)
    h_hi = (asyn_scheme.T - link.tau) / (asyn_scheme.M - 1)
    for _ in range(50):
        h = float(rng.uniform(link.T_s, h_hi))
        step = 1e-7
        fd = (_objective(source, field, link, asyn_scheme, link.N, h + step)
              - _objective(source, field, link, asyn_scheme, link.N, h - step)
              ) / (2 * step)
        assert sp.eval_J(source, field, link, asyn_scheme, h) == pytest.approx(
            fd, rel=1e-4)


def test_F_matches_finite_difference(source, field, link, asyn_scheme):
    rng = np.random.default_rng(33)
    for _ in range(50):
        n = float(rng.uniform(40.0, 1400.0))
        step = max(1e-5 * n, (np.finfo(float).eps ** (1 / 3)) * n)
        fd = (_objective(source, field, link, asyn_scheme, n + step, asyn_scheme.h)
              - _objective(source, field, link, asyn_scheme, n - step, asyn_scheme.h)
              ) / (2 * step)
        assert sp.eval_F(source, field, link, asyn_scheme, n) == pytest.approx(
            fd, rel=1e-4)


def test_H_sign_change_straddles_grid_argmin(fig_blocklength):
    src, field, link, scheme = fig_blocklength
    ns = np.arange(10, int(scheme.T / link.T_s) + 1)
    vals = [_objective(src, field, link, scheme, float(n)) for n in ns]
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
    vals = [_objective(src, field, link, scheme, link.N, float(h)) for h in hs]
    k = int(np.argmin(vals))
    assert 0 < k < len(hs) - 1  # interior optimum exists on this setup
    assert sp.eval_J(src, field, link, scheme, float(hs[k - 1])) < 0
    assert sp.eval_J(src, field, link, scheme, float(hs[k + 1])) > 0


def test_F_sign_change_straddles_grid_argmin(source, field, link, asyn_scheme):
    n_hi = int((asyn_scheme.T - 4 * asyn_scheme.h) / link.T_s)
    ns = np.arange(40, n_hi + 1)
    vals = [_objective(source, field, link, asyn_scheme, float(n), asyn_scheme.h)
            for n in ns]
    n_hat = int(ns[int(np.argmin(vals))])
    assert 40 < n_hat < n_hi
    assert sp.eval_F(source, field, link, asyn_scheme, n_hat - 1.0) < 0
    assert sp.eval_F(source, field, link, asyn_scheme, n_hat + 1.0) > 0


def test_optresult_reports_exact_model_mse(source, field, link, asyn_scheme):
    res = sp.jtsbo(source, field, link, asyn_scheme)
    cfg = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=asyn_scheme.T, h=res.h_star,
                          M=asyn_scheme.M, m=asyn_scheme.m)
    direct = sp.average_mse(source, field, link.with_blocklength(res.N_star), cfg)
    assert res.mse_star == direct


def test_objective_convex_in_h(source, field, link):
    # second differences positive across the proven band T >= M h
    for T in (0.12, 0.2):
        scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=T, h=0.005, M=5, m=1)
        hs = np.linspace(link.T_s, T / scheme.M, 200)
        vals = np.array([_objective(source, field, link, scheme, 80, float(h))
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
    pv = [_objective(source, field, link, scheme, float(n), scheme.h)
          for n in probe]
    n_opt = float(probe[int(np.argmin(pv))])
    ns = np.linspace(40, 2 * n_opt, 300)
    vals = np.array([_objective(source, field, link, scheme, float(n), scheme.h)
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
    res = sp.optimize_blocklength(source, field, link, scheme,
                                  sp.OptimizerConfig(N_min=60))
    assert res.branch == "lower-boundary"
    assert res.N_star == 60


def test_blocklength_matches_exhaustive(fig_blocklength):
    src, field, link, scheme = fig_blocklength
    res = sp.optimize_blocklength(src, field, link, scheme)
    assert res.branch == "interior-root"
    ex_same = sp.exhaustive_search(src, field, link, scheme, objective="simplified")
    assert res.N_star == ex_same.N_star
    ex_exact = sp.exhaustive_search(src, field, link, scheme, objective="exact")
    assert abs(res.N_star - ex_exact.N_star) <= 1


def test_blocklength_local_optimality(fig_blocklength):
    src, field, link, scheme = fig_blocklength
    res = sp.optimize_blocklength(src, field, link, scheme)
    star = _objective(src, field, link, scheme, res.N_star)
    for d in (-5, -2, -1, 1, 2, 5):
        assert star <= _objective(src, field, link, scheme, res.N_star + d) + 1e-15


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
    res = sp.optimize_blocklength(src, field, link, dataclasses.replace(scheme, h=0.0094))
    assert (res.N_star, res.h_star, res.branch) == (124, 0.0094, "upper-boundary")


def test_blocklength_syn_upper_boundary_branch():
    src = sp.SourceParams()
    field = sp.place_sensors(2, region_half_width=10, seed=7, target_index=1)
    link = sp.LinkParams.from_db(L=20, N=80, gamma_r_bar_db=-10.0)
    scheme = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.010, M=2, m=1)
    res = sp.optimize_blocklength(src, field, link, scheme,
                                  sp.OptimizerConfig(N_max=30))
    assert (res.N_star, res.h_star, res.branch) == (30, None, "upper-boundary")


def _discrete_minimum(obj, lo, hi, x):
    """x is the smallest argmin of a per-point loop of obj over [lo, hi]
    and no worse than its neighbours in the range."""
    vals = [obj(k) for k in range(lo, hi + 1)]
    assert x == lo + int(np.argmin(vals))
    for d in (-1, 1):
        if lo <= x + d <= hi:
            assert obj(x) <= obj(x + d)


def test_blocklength_asyn_step_with_two_sign_changes_of_F():
    # F changes sign more than once on the feasible range, so N* is one
    # of two local minima: the step is the argmin of the whole range
    src = sp.SourceParams(a=0.5, b=0.01)
    field = sp.place_sensors(M=7, region_half_width=10, seed=7, target_index=1)
    link = sp.LinkParams.from_db(L=50, N=10, T_s=1e-4, gamma_r_bar_db=14.0)
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.020, h=0.0005, M=7, m=1)
    F = optimize._dmse_dN(src, field, link, scheme, np.arange(10, 171), 0.0005)
    assert np.sum(np.diff(np.sign(F)) != 0) > 1
    res = sp.optimize_blocklength(src, field, link, scheme,
                                  sp.OptimizerConfig(N_min=10))
    assert (res.N_star, res.h_star, res.branch) == (13, 0.0005, "interior-root")
    _discrete_minimum(lambda n: _objective(src, field, link, scheme, n, 0.0005),
                      10, 170, res.N_star)


def test_blocklength_asyn_step_finds_the_minimum_a_sign_probe_missed():
    # F changes sign three times on [10, 808], and a 33-point sign probe
    # sees only one change, so a root chase ends at the local minimum
    # N = 55 (0.91017); the argmin is N = 20
    src = sp.SourceParams(a=0.5812661826726574, b=0.16506168873924568)
    field = sp.place_sensors(6, 10.0, seed=818)
    link = sp.LinkParams.from_db(L=122.58977342158556, T_s=1e-4,
                                 gamma_r_bar_db=23.959867259355356)
    h = 0.0145
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.15338981210213537, h=h,
                             M=6, m=1)
    res = sp.optimize_blocklength(src, field, link, scheme)
    assert (res.N_star, res.branch) == (20, "interior-root")
    assert res.objective_star == pytest.approx(0.89384, abs=1e-5)
    obj = lambda n: _objective(src, field, link, scheme, n, h)
    assert res.objective_star < obj(55) - 0.01
    _discrete_minimum(obj, 10, 808, res.N_star)


def test_time_shift_step_on_a_flat_saturated_objective():
    # the simplified BLEP is 1 - 1e-16: the objective is sigma2 at every
    # grid shift and J is rounding noise; the step takes the smallest k
    src = sp.SourceParams(a=10.43, b=0.0348)
    field = sp.place_sensors(2, 10.0, seed=96)
    link = sp.LinkParams.from_db(L=160, N=99, gamma_r_bar_db=-9.8)
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.24991, h=link.T_s, M=2, m=1)
    runs = [sp.optimize_time_shift(src, field, link, scheme) for _ in range(2)]
    for res in runs:
        assert (res.h_star, res.branch) == (link.T_s, "lower-boundary")
        assert res.objective_star == src.sigma2_x
    k_hi = shift_count(scheme.T, link.T_s, 2, 99)
    _discrete_minimum(lambda k: _objective(src, field, link, scheme, 99, k * link.T_s),
                      1, k_hi, 1)


def _fig11(b, target_index=1):
    """The fig11 spec's geometry and link at spatial decay rate b."""
    src = sp.SourceParams(a=2.0, b=b)
    field = sp.place_sensors(5, 10.0, seed=7, target_index=target_index)
    link = sp.LinkParams.from_db(L=160, N=80, T_s=1e-4, gamma_r_bar_db=5.0)
    return src, field, link


@pytest.mark.parametrize("b, N, m, branch", [
    (0.01, 80, 1, "interior-root"),
    (0.08, 80, 1, "upper-boundary"),
    (0.08, 81, 1, "upper-boundary"),  # the face is 354.75 T_s
    (0.08, 82, 1, "upper-boundary"),  # the face is 354.5 T_s
    (0.08, 80, 5, "lower-boundary"),
])
def test_time_shift_lands_on_the_symbol_grid(b, N, m, branch):
    # every branch returns h = k T_s for an integer k, also where the
    # constraint face (T - N T_s) / (M - 1) lies between two grid shifts
    src, field, link = _fig11(b, target_index=m)
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.005, M=5, m=m)
    res = sp.optimize_time_shift(src, field, link.with_blocklength(N), scheme)
    k = round(res.h_star / link.T_s)
    assert res.branch == branch
    assert res.h_star == k * link.T_s
    assert 1 <= k <= shift_count(scheme.T, link.T_s, scheme.M, N)


@pytest.mark.parametrize("b", [0.0, 0.002, 0.005, 0.01, 0.02, 0.04, 0.08, 0.15, 0.3])
def test_fig11_blocklength_step_matches_exhaustive(b):
    src, field, link = _fig11(b)
    for scheme in (sp.SchemeConfig(sp.Scheme.NO_INFER, T=0.150, M=1, m=1),
                   sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.150, M=5, m=1)):
        res = sp.optimize_blocklength(src, field, link, scheme)
        assert res.N_star == sp.exhaustive_search(src, field, link, scheme).N_star
    asyn = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.005, M=5, m=1)
    joint = sp.jtsbo(src, field, link, asyn)
    assert joint.h_star == round(joint.h_star / link.T_s) * link.T_s


def test_time_shift_matches_dense_grid(fig_time_shift):
    src, field, link, scheme = fig_time_shift
    res = sp.optimize_time_shift(src, field, link, scheme)
    h_hi = (scheme.T - link.tau) / (scheme.M - 1)
    ks = np.arange(1, int(math.floor(h_hi / link.T_s)) + 1)
    vals = [_objective(src, field, link, scheme, link.N, float(k * link.T_s))
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
    cfg = sp.OptimizerConfig(I_max=8)
    ref = sp.jtsbo(source, field, link, asyn_scheme, cfg)
    # warm-starting at the reached optimum stops after a single sweep
    again = sp.jtsbo(source, field, link, asyn_scheme, cfg,
                     start_h=ref.h_star, start_N=ref.N_star)
    assert again.iterations == 1
    assert again.converged
    assert (again.N_star, again.h_star) == (ref.N_star, ref.h_star)


def test_jtsbo_converged_only_at_an_unchanged_point():
    # a one-grid-step move 0.0317 -> 0.0316 computes as 9.99999999999959e-05,
    # below a tolerance of T_s = 1e-4: convergence must be the exact fixed
    # point, so a converged result's last iteration leaves (N, h) as it was
    src = sp.SourceParams(a=2.0, b=0.002)
    field = sp.place_sensors(5, 10.0, seed=9)
    link = sp.LinkParams.from_db(L=160, N=80, T_s=1e-4, gamma_r_bar_db=5.0)
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.15, h=0.005, M=5, m=1)
    res = sp.jtsbo(src, field, link, scheme, sp.OptimizerConfig(N_min=10, I_max=3))
    assert res.converged
    assert res.iterations == len(res.trace) >= 2
    last, prev = res.trace[-1], res.trace[-2]
    assert (last.h_s, last.N) == (prev.h_s, prev.N) == (res.h_star, res.N_star)


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
        h_only = sp.optimize_time_shift(src, field, link, scheme)
        assert joint.mse_star <= h_only.mse_star + 1e-12


def test_jtsbo_ends_at_a_discrete_coordinate_minimum(source, field, link,
                                                     asyn_scheme):
    # each coordinate of the result is the argmin of a per-point loop along
    # it, and the last trace row holds |J| and |F| at the returned integers
    res = sp.jtsbo(source, field, link, asyn_scheme, sp.OptimizerConfig(I_max=3))
    assert res.converged
    n, h, Ts = res.N_star, res.h_star, link.T_s
    k = round(h / Ts)
    assert h == k * Ts
    obj = lambda n_, h_: _objective(source, field, link, asyn_scheme, n_, h_)
    _discrete_minimum(lambda kk: obj(n, kk * Ts), 1,
                      shift_count(asyn_scheme.T, Ts, asyn_scheme.M, n), k)
    n_hi = max_blocklength(asyn_scheme.T, Ts, (asyn_scheme.M - 1) * h)
    _discrete_minimum(lambda nn: obj(nn, h), 10, n_hi, n)
    last = res.trace[-1]
    assert last.residual_h == abs(sp.eval_J(source, field, link.with_blocklength(n),
                                            asyn_scheme, h))
    assert last.residual_N == abs(sp.eval_F(source, field, link,
                                            dataclasses.replace(asyn_scheme, h=h),
                                            float(n)))


@pytest.mark.parametrize("b", [0.0, 0.002, 0.005, 0.01, 0.02, 0.04, 0.08, 0.15, 0.3])
def test_jtsbo_follows_the_constraint_face_to_the_exhaustive_optimum(b):
    # at b >= 0.02 the first h-step at N = 80 ends on the last grid shift,
    # where both coordinate steps stall; the face step leaves that corner
    src, field, link = _fig11(b)
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.005, M=5, m=1)
    cfg = sp.OptimizerConfig(N_min=10, I_max=3)
    res = sp.jtsbo(src, field, link, scheme, cfg)
    ex = sp.exhaustive_search(src, field, link, scheme, cfg, objective="simplified")
    assert res.objective_star <= 1.01 * ex.objective_star
    vals = [t.mse for t in res.trace]
    assert all(x >= y for x, y in zip(vals, vals[1:]))
    # each row's residuals are |J| and |F| at the row's own (h, N)
    for t in res.trace:
        at = dataclasses.replace(scheme, h=t.h_s)
        assert t.residual_h == abs(sp.eval_J(src, field, link.with_blocklength(t.N),
                                             at, t.h_s))
        assert t.residual_N == abs(sp.eval_F(src, field, link, at, float(t.N)))


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


def test_exhaustive_rejects_an_unknown_objective(source, field, link, syn_scheme):
    # a misspelt model must not silently score the exact BLEP
    with pytest.raises(sp.InvalidConfigError, match="'simplifed'"):
        sp.exhaustive_search(source, field, link, syn_scheme, objective="simplifed")


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
        v = _objective(source, field, link, scheme, n, h)
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


@pytest.mark.parametrize("objective", ["simplified", "exact"])
@pytest.mark.parametrize("a, L, db", [(60.0, 48.0, 15.0), (150.0, 48.0, 15.0),
                                      (150.0, 24.0, 5.0)])
def test_exhaustive_is_the_argmin_of_a_per_point_loop(objective, a, L, db,
                                                      monkeypatch):
    # T / T_s = 60: every (N, h) point scored one at a time, ties to the
    # smallest (N, h)
    src = sp.SourceParams(a=a, b=0.01)
    field = sp.place_sensors(5, 10.0, seed=7)
    link = sp.LinkParams.from_db(L=L, T_s=1e-4, gamma_r_bar_db=db)
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.006, h=1e-4, M=5, m=1)
    vals = {}
    for n in range(10, 61):
        for k in range(1, shift_count(scheme.T, link.T_s, 5, n) + 1):
            h = k * link.T_s
            if objective == "simplified":
                vals[n, h] = _objective(src, field, link, scheme, n, h)
            else:
                cf, w = optimize._kernel_at(src, field, link, scheme, n, h)
                vals[n, h] = float(cf.mse(sp.blep_average(link, N=n), w))
    best = min(vals, key=lambda key: (vals[key], key))
    for chunk in (7, optimize._GRID_CHUNK):
        monkeypatch.setattr(optimize, "_GRID_CHUNK", chunk)
        ex = sp.exhaustive_search(src, field, link, scheme, objective=objective)
        assert (ex.N_star, ex.h_star) == best
        assert ex.objective_star == pytest.approx(vals[best], rel=1e-13)
        assert ex.evaluations == len(vals)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(M=st.integers(2, 7), a=st.floats(0.1, 20.0), T=st.floats(0.02, 0.5),
       N=st.integers(10, 150), h_frac=st.floats(0.01, 0.99),
       b=st.floats(0.0, 0.3))
def test_J_matches_central_difference_of_the_objective(M, a, T, N, h_frac, b):
    src = sp.SourceParams(a=a, b=b)
    field = sp.place_sensors(M, 10.0, seed=3)
    link = sp.LinkParams.from_db(L=160.0, N=N, gamma_r_bar_db=10.0)
    h_max = (T - link.tau) / (M - 1)
    assume(h_max > 2 * link.T_s)
    h = link.T_s + h_frac * (h_max - link.T_s)
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=T, h=h, M=M, m=1)
    got = sp.eval_J(src, field, link, scheme, h)
    step = 1e-6
    fd = (_objective(src, field, link, scheme, N, h + step)
          - _objective(src, field, link, scheme, N, h - step)) / (2 * step)
    assert got == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_small_information_payload_warns(source, field):
    link = sp.LinkParams(L=2.0, N=40)
    scheme = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.150, M=5, m=1)
    with pytest.warns(UserWarning):
        res = sp.optimize_blocklength(source, field, link, scheme)
    assert res.convexity_warning


def test_syn_blocklength_range_stops_before_the_period():
    # T / T_s = 500 and the upper end wins: N = 500 would make the delay
    # equal to the period, so the range ends at N = 499
    src = sp.SourceParams(a=1)
    field = sp.place_sensors(2, 10.0, seed=7)
    link = sp.LinkParams.from_db(L=100, T_s=1e-3, gamma_r_bar_db=-14.5)
    for scheme, M in ((sp.Scheme.SYN_INFER, 2), (sp.Scheme.NO_INFER, 1)):
        cfg = sp.SchemeConfig(scheme, T=0.5, M=M, m=1)
        opt = sp.optimize_blocklength(src, field, link, cfg)
        ex = sp.exhaustive_search(src, field, link, cfg)
        assert opt.branch == "upper-boundary"
        assert opt.N_star == ex.N_star == 499
        assert math.isfinite(opt.mse_star) and math.isfinite(ex.mse_star)
        assert ex.evaluations == 499 - 10 + 1


def test_each_step_is_one_objective_array_call(source, field, link, syn_scheme,
                                               asyn_scheme, monkeypatch):
    # one _objective call over the whole index range, then one H/J/F
    # evaluation, at the returned integer, for the residual
    objective_calls, stationarity_calls = [], []
    monkeypatch.setattr(optimize, "_objective",
                        lambda *a, _fn=_objective: objective_calls.append(
                            [x for x in a[4:] if np.ndim(x)]) or _fn(*a))
    for name in ("eval_H", "eval_J", "eval_F"):
        def counted(*args, _fn=getattr(optimize, name), **kw):
            stationarity_calls.append(float(args[4]))
            return _fn(*args, **kw)
        monkeypatch.setattr(optimize, name, counted)
    h, Ts = asyn_scheme.h, link.T_s
    # (step, its integer index and stationarity argument, objective of the index)
    steps = [
        (lambda: sp.optimize_blocklength(source, field, link, syn_scheme),
         lambda r: (r.N_star, r.N_star),
         lambda n: _objective(source, field, link, syn_scheme, n)),
        (lambda: sp.optimize_time_shift(source, field, link, asyn_scheme),
         lambda r: (round(r.h_star / Ts), r.h_star),
         lambda k: _objective(source, field, link, asyn_scheme, link.N, k * Ts)),
        (lambda: sp.optimize_blocklength(source, field, link, asyn_scheme),
         lambda r: (r.N_star, r.N_star),
         lambda n: _objective(source, field, link, asyn_scheme, n, h)),
    ]
    for step, point, obj in steps:
        objective_calls.clear()
        stationarity_calls.clear()
        res = step()
        x, arg = point(res)
        assert res.branch == "interior-root"
        assert len(objective_calls) == 1 and len(objective_calls[0]) == 1
        assert stationarity_calls == [arg]
        idx = objective_calls[0][0] / (Ts if isinstance(arg, float) else 1)
        _discrete_minimum(obj, round(idx[0]), round(idx[-1]), x)


def test_exhaustive_blep_vector_in_one_call(monkeypatch, source, field, link,
                                            syn_scheme, asyn_scheme):
    calls = []
    for name in ("blep_average", "blep_average_simplified"):
        real = getattr(optimize, name)
        monkeypatch.setattr(optimize, name,
                            lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k))
    for scheme in (syn_scheme, asyn_scheme):
        for objective in ("simplified", "exact"):
            calls.clear()
            sp.exhaustive_search(source, field, link, scheme,
                                 sp.OptimizerConfig(N_max=300), objective=objective)
            assert len(calls) == 1


# ---------------------------------------------------------------------------
# one feasible set for (N, h)
# ---------------------------------------------------------------------------

def _optimizer_runs(src, field, link, T, M):
    syn = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=T, M=M, m=1)
    asyn = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=T, h=link.T_s, M=M, m=1)
    return [
        (syn, lambda: sp.optimize_blocklength(src, field, link, syn)),
        (syn, lambda: sp.exhaustive_search(src, field, link, syn)),
        (asyn, lambda: sp.optimize_time_shift(src, field, link, asyn)),
        (asyn, lambda: sp.optimize_blocklength(src, field, link, asyn)),
        (asyn, lambda: sp.jtsbo(src, field, link, asyn)),
        (asyn, lambda: sp.exhaustive_search(src, field, link, asyn)),
    ]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(K=st.integers(2, 260), offset=st.one_of(
           st.just(0.0), st.floats(-1e-9, 0.0), st.floats(0.0, 1.0)),
       T_s=st.floats(1e-5, 2e-3), M=st.integers(2, 6), a=st.floats(0.5, 50.0),
       db=st.floats(0.0, 30.0), N=st.integers(1, 120))
def test_optimizers_stay_inside_the_timing_rule(K, offset, T_s, M, a, db, N):
    # each optimizer raises a typed error before it scores anything, or
    # returns a point that the closed form itself accepts
    T = (K + offset) * T_s
    src = sp.SourceParams(a=a)
    field = sp.place_sensors(M, 10.0, seed=7)
    link = sp.LinkParams.from_db(L=20.0, N=N, T_s=T_s, gamma_r_bar_db=db)
    scored = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "ClosedForm",
                   lambda *args, **kw: scored.append(1) or sp.ClosedForm(*args, **kw))
        for scheme, run in _optimizer_runs(src, field, link, T, M):
            scored.clear()
            try:
                res = run()
            except (sp.InvalidConfigError, sp.BracketError):
                assert not scored
                continue
            point = scheme if res.h_star is None else dataclasses.replace(
                scheme, h=res.h_star)
            assert math.isfinite(sp.average_mse(
                src, field, link.with_blocklength(res.N_star), point))


def test_optimizers_accept_a_period_just_below_a_whole_symbol_count():
    # T / T_s = 40 - 5e-10: N = 36 leaves room for the four shifts of one
    # symbol each to within the 1e-9 symbol tolerance
    T_s = 1e-4
    T = (40 - 5e-10) * T_s
    src = sp.SourceParams(a=50)
    field = sp.place_sensors(5, 10.0, seed=7)
    link = sp.LinkParams.from_db(L=20, N=36, T_s=T_s, gamma_r_bar_db=30.0)
    asyn = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=T, h=T_s, M=5, m=1)
    shift = sp.optimize_time_shift(src, field, link, asyn)
    assert shift.h_star == T_s and math.isfinite(shift.mse_star)
    for _, run in _optimizer_runs(src, field, link, T, 5):
        assert math.isfinite(run().mse_star)


def test_plateau_edge_branch_ties_with_exhaustive():
    # at a T_s = 3 the delay factor exp(-2 a N T_s) rounds the error to
    # sigma2 for every N, and at -15 dB the BLEP is saturated at 1 below
    # N = 118: the step ends at the plateau edge, on the tie
    src = sp.SourceParams(a=3000, b=0.01)
    field = sp.place_sensors(2, 10.0, seed=7)
    link = sp.LinkParams.from_db(L=100, T_s=1e-3, gamma_r_bar_db=-15.0)
    scheme = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.6, M=2, m=1)
    res = sp.optimize_blocklength(src, field, link, scheme)
    ex = sp.exhaustive_search(src, field, link, scheme)
    assert res.branch == "plateau-edge"
    assert abs(res.objective_star - ex.objective_star) <= 1e-12 * src.sigma2_x
    # the step scans from the edge, the first N whose BLEP is below 1, to the cap
    eps = sp.blep_average_simplified(link, N=np.arange(10, 600))
    edge = 10 + int(np.argmax(eps < 1.0))
    assert edge == res.N_star > 10 and eps[0] == 1.0
    _discrete_minimum(lambda n: _objective(src, field, link, scheme, n),
                      edge, 599, res.N_star)
