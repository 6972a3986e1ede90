import dataclasses
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sptrecon as sp
from sptrecon import optimize
from sptrecon.errors import _SCALE_LIMITS
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


@pytest.mark.parametrize("sigma2", [1e-300, 1e300])
def test_stationarity_functions_scale_with_the_source_variance(
        sigma2, source, field, link, syn_scheme, asyn_scheme):
    # the MSE is linear in sigma2, and each slope steps the objective at
    # unit variance, so no imaginary part underflows at a tiny sigma2 (J
    # read 0.0 at 1e-300) and none overflows at a huge one
    scaled = dataclasses.replace(source, sigma2_x=sigma2)
    calls = [(sp.eval_H, syn_scheme, 120.0), (sp.eval_J, asyn_scheme, 0.005),
             (sp.eval_F, asyn_scheme, 120.0)]
    for fn, scheme, x in calls:
        unit = fn(source, field, link, scheme, x)
        assert unit != 0.0
        assert fn(scaled, field, link, scheme, x) == pytest.approx(
            sigma2 * unit, rel=1e-14, abs=0)


def test_optresult_reports_exact_model_mse(source, field, link, asyn_scheme):
    res = sp.jtsbo(source, field, link, asyn_scheme)
    cfg = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=asyn_scheme.T, h=res.h_star,
                          M=asyn_scheme.M, m=asyn_scheme.m)
    direct = sp.average_mse(source, field, link.with_blocklength(res.N_star), cfg)
    assert res.mse_star == direct


@pytest.mark.parametrize("stacked", [False, True])
def test_mse_star_is_average_mse_at_the_returned_point(field, link, stacked):
    # every optimizer, every scheme and both exhaustive objectives: each
    # lane's mse_star has the bits of average_mse, the closed form at the
    # exact BLEP, at that lane's (N*, h*)
    src = sp.SourceParams(sigma2_x=2.5, a=3.0)
    T = 0.15
    no = sp.SchemeConfig(sp.Scheme.NO_INFER, T=T, M=1, m=1)
    syn = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=T, M=5, m=1)
    asyn = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=T, h=0.01, M=5, m=1)
    runs = [(no, sp.optimize_blocklength), (syn, sp.optimize_blocklength),
            (asyn, sp.optimize_blocklength), (asyn, sp.optimize_time_shift),
            (asyn, sp.jtsbo)]
    runs += [(scheme, lambda *a, obj=obj: sp.exhaustive_search(*a, objective=obj))
             for scheme in (no, syn, asyn) for obj in ("simplified", "exact")]
    for scheme, run in runs:
        # fig11's weight vectors at b = 0, 0.02 and 0.3, or the field's own
        lanes = _fig11_stack(field, scheme)[::4] if stacked else None
        res = run(src, field if lanes is None else lanes, link, scheme)
        if scheme is no or not stacked:
            lanes = [sp.scheme_weights(src, field, scheme)]
        ns, mses = np.ravel(res.N_star).tolist(), np.ravel(res.mse_star).tolist()
        hs = [None] * len(ns) if res.h_star is None else np.ravel(res.h_star).tolist()
        assert len(ns) == len(lanes)
        for w, n, h, mse in zip(lanes, ns, hs, mses):
            at = scheme if h is None else dataclasses.replace(scheme, h=h)
            assert mse == sp.average_mse(src, w, link.with_blocklength(n), at)
        assert type(res.mse_star) is (np.ndarray if stacked and scheme is not no else float)


@pytest.mark.parametrize("run", [sp.optimize_time_shift, sp.jtsbo])
def test_shift_optimizers_reject_a_scheme_without_shifts(source, field, link, syn_scheme,
                                                         no_scheme, run):
    # a syn config once gave h* = 0.0326 s labelled syn-infer, a no-infer
    # config a bare ZeroDivisionError
    for scheme in (syn_scheme, no_scheme):
        with pytest.raises(sp.InvalidConfigError, match="needs an asynchronous config"):
            run(source, field, link, scheme)


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
    F = optimize._dmse(src, field, link, scheme, np.arange(10, 171), 0.0005)
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
    # the floor-sum is a reference for the grid that shift_count sizes; the
    # last four periods are a ratio T / T_s within 1e-15 of an integer,
    # two below it and two above
    for T, M in ((0.05, 5), (0.08, 3), (0.15, 5), (0.0301, 5), (0.0312, 4),
                 (319 * 1e-4, 5), (387 * 1e-4, 2)):
        scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=T, h=link.T_s, M=M, m=1)
        fld = sp.place_sensors(M, 10.0, seed=1)
        ex = sp.exhaustive_search(source, fld, link, scheme)
        predicted = sp.expected_evaluation_count(T, link.T_s, M)
        assert ex.evaluations == predicted, (T, M)
    ratios = [T / link.T_s for T in (0.0301, 0.0312, 319 * 1e-4, 387 * 1e-4)]
    assert all(r != round(r) and abs(r / round(r) - 1) < 1e-15 for r in ratios)
    assert sum(r > round(r) for r in ratios) == 2


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
    # point ties at sigma2 within and across chunks, in every lane of a stack
    link = sp.LinkParams.from_db(L=2000.0)
    T, M = 0.015, 5
    asyn = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=T, h=link.T_s, M=M, m=1)
    syn = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=T, M=M, m=1)
    stack = np.stack([sp.scheme_weights(dataclasses.replace(source, b=b), field, asyn)
                      for b in (0.0, 0.01, 0.3)])
    for chunk in (1, 7, 300, optimize._GRID_CHUNK):
        monkeypatch.setattr(optimize, "_GRID_CHUNK", chunk)
        ex = sp.exhaustive_search(source, field, link, asyn)
        assert (ex.N_star, ex.h_star) == (10, link.T_s)
        assert ex.objective_star == source.sigma2_x
        assert ex.evaluations == sp.expected_evaluation_count(T, link.T_s, M)
        lanes = sp.exhaustive_search(source, stack, link, asyn)
        assert (lanes.N_star.tolist(), lanes.h_star.tolist()) == ([10] * 3, [link.T_s] * 3)
        assert lanes.objective_star.tolist() == [source.sigma2_x] * 3
        assert lanes.evaluations == 3 * ex.evaluations
    assert sp.exhaustive_search(source, field, link, syn).N_star == 10
    assert sp.exhaustive_search(source, stack, link, syn).N_star.tolist() == [10] * 3


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
                vals[n, h] = _objective(src, field, link, scheme, n, h,
                                        eps=sp.blep_average(link, N=n))
    best = min(vals, key=lambda key: (vals[key], key))
    for chunk in (7, optimize._GRID_CHUNK):
        monkeypatch.setattr(optimize, "_GRID_CHUNK", chunk)
        ex = sp.exhaustive_search(src, field, link, scheme, objective=objective)
        assert (ex.N_star, ex.h_star) == best
        assert ex.objective_star == pytest.approx(vals[best], rel=1e-13)
        assert ex.evaluations == len(vals)


def _chunk_of(steps, chunk, row):
    """Index of the exhaustive walk's chunk that holds grid row ``row``."""
    i, n = 0, 0
    while True:
        j = min(steps.size, i + max(1, chunk // int(steps[i])))
        if row < j:
            return n
        i, n = j, n + 1


@pytest.mark.parametrize("chunk", [1, 7, 300, optimize._GRID_CHUNK])
@pytest.mark.parametrize("objective", ["simplified", "exact"])
def test_stacked_exhaustive_equals_each_vector_alone(objective, chunk, monkeypatch):
    # fig11's geometry: one scan of a stack of weight vectors gives each
    # lane the bits of a scan of that vector alone, and the lanes' optima
    # lie in different chunks of the walk
    monkeypatch.setattr(optimize, "_GRID_CHUNK", chunk)
    src = sp.SourceParams()
    field = sp.place_sensors(5, 10.0, seed=7)
    link = sp.LinkParams.from_db(L=160.0, N=80, T_s=1e-4, gamma_r_bar_db=5.0)
    T, cfg = 0.15, sp.OptimizerConfig()
    bs = (0.0, 0.005, 0.02, 0.08, 0.3)
    for kind in sp.Scheme:
        scheme = sp.SchemeConfig(kind, T=T, h=link.T_s, M=5, m=1)
        if kind is not sp.Scheme.ASYN_INFER:
            scheme = sp.SchemeConfig(kind, T=T, M=5, m=1)
        stack = np.stack([sp.scheme_weights(dataclasses.replace(src, b=b), field, scheme)
                          for b in bs])
        ex = sp.exhaustive_search(src, stack, link, scheme, cfg, objective)
        alone = [sp.exhaustive_search(src, w, link, scheme, cfg, objective) for w in stack]
        if kind is sp.Scheme.NO_INFER:
            # the target's own weight only: one scan, whatever the stack
            assert ex == alone[0] == sp.exhaustive_search(src, field, link, scheme, cfg,
                                                           objective)
            assert ex.evaluations == max_blocklength(T, link.T_s) - cfg.N_min + 1
            continue
        got = [ex.N_star.tolist(), None if ex.h_star is None else ex.h_star.tolist(),
               ex.objective_star.tolist(), ex.mse_star.tolist()]
        assert got == [[r.N_star for r in alone],
                       None if ex.h_star is None else [r.h_star for r in alone],
                       [r.objective_star for r in alone], [r.mse_star for r in alone]]
        assert all(type(r.N_star) is int and type(r.mse_star) is float for r in alone)
        assert (ex.branch, ex.iterations, ex.converged) == ("exhaustive", 1, True)
        assert type(ex.evaluations) is int
        if kind is sp.Scheme.SYN_INFER:
            assert ex.evaluations == len(bs) * alone[0].evaluations
            continue
        assert ex.evaluations == len(bs) * sp.expected_evaluation_count(T, link.T_s, 5)
        n_hi = max_blocklength(T, link.T_s, 4 * link.T_s)
        steps = shift_count(T, link.T_s, 5, np.arange(cfg.N_min, n_hi + 1))
        won = {_chunk_of(steps, chunk, n - cfg.N_min) for n in ex.N_star.tolist()}
        assert len(won) > 1
    # a (2, 2, M) stack gives arrays of shape (2, 2)
    ex = sp.exhaustive_search(src, stack[:4].reshape(2, 2, 5), link, scheme, cfg, objective)
    assert ex.N_star.shape == ex.h_star.shape == ex.mse_star.shape == (2, 2)
    assert ex.objective_star.ravel().tolist() == [r.objective_star for r in alone[:4]]


_FIG11_BS = (0.0, 0.002, 0.005, 0.01, 0.02, 0.04, 0.08, 0.15, 0.3)


def _fig11_stack(field, scheme):
    """The weight vectors of fig11's b_per_m points, one lane each."""
    src = sp.SourceParams()
    return np.stack([sp.scheme_weights(dataclasses.replace(src, b=b), field, scheme)
                     for b in _FIG11_BS])


# lanes per block of a blocklength step: _LANE_BUDGET of one lane (every
# step), of two fig11 blocklength ranges of 5 sensors, and the default
@pytest.mark.parametrize("budget", [1, 2 * 1490 * 5, optimize._LANE_BUDGET])
@pytest.mark.parametrize("seed", [7, 14])
def test_stacked_adaptation_equals_each_vector_alone(seed, budget, monkeypatch):
    # fig11's geometry: one call over a stack of weight vectors gives each
    # lane the bits of a call with its vector alone: the point, its
    # objective and MSE, the branch and every trace row, residuals
    # included; at I_max = 3 the lanes converge after 2 or 3 iterations, at
    # I_max = 2 some stop unconverged
    monkeypatch.setattr(optimize, "_LANE_BUDGET", budget)
    src = sp.SourceParams(b=_FIG11_BS[0])  # a field gives the first lane's weights
    field = sp.place_sensors(5, 10.0, seed=seed)
    link = sp.LinkParams.from_db(L=160.0, N=80, T_s=1e-4, gamma_r_bar_db=5.0)
    T = 0.15
    no = sp.SchemeConfig(sp.Scheme.NO_INFER, T=T, M=1, m=1)
    syn = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=T, M=5, m=1)
    asyn = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=T, h=link.T_s, M=5, m=1)
    shifted = dataclasses.replace(asyn, h=0.02)
    # the no-inference form reads no weight: one run, whatever the stack
    res = sp.optimize_blocklength(src, _fig11_stack(field, syn)[:, :1], link, no)
    assert res == sp.optimize_blocklength(src, field, link, no)
    assert type(res.N_star) is int and type(res.branch) is str
    runs = [(syn, lambda w: sp.optimize_blocklength(src, w, link, syn)),
            (shifted, lambda w: sp.optimize_blocklength(src, w, link, shifted)),
            (shifted, lambda w: sp.optimize_time_shift(src, w, link.with_blocklength(200),
                                                       shifted)),
            (asyn, lambda w: sp.jtsbo(src, w, link, asyn, sp.OptimizerConfig(I_max=3))),
            (asyn, lambda w: sp.jtsbo(src, w, link, asyn, sp.OptimizerConfig(I_max=2)))]
    lengths = []
    for scheme, run in runs:
        stack = _fig11_stack(field, scheme)
        got = run(stack)
        alone = [run(w) for w in stack]
        assert alone[0] == run(field)
        for name in ("N_star", "h_star", "objective_star", "mse_star", "branch"):
            want, x = [getattr(r, name) for r in alone], getattr(got, name)
            assert want == [None] * len(alone) if x is None else x.tolist() == want, name
        assert all(type(r.N_star) is int and type(r.mse_star) is float
                   and type(r.branch) is str for r in alone)
        assert got.trace == [r.trace for r in alone]
        assert got.iterations == sum(r.iterations for r in alone)
        assert type(got.iterations) is int
        assert got.converged is all(r.converged for r in alone)
        if alone[0].branch == "jtsbo":
            lengths.append(({len(r.trace) for r in alone}, {r.converged for r in alone}))
        # a (3, 3, M) stack gives arrays of shape (3, 3) and one trace per lane
        square = run(stack.reshape(3, 3, -1))
        assert square.N_star.shape == square.branch.shape == square.mse_star.shape == (3, 3)
        assert square.trace == got.trace
    assert lengths == [({2, 3}, {True}), ({2}, {False, True})]


def test_a_stack_raises_what_its_failing_lane_raises():
    # the stacked call raises the type a failing lane raises alone, with
    # that lane's message when one lane fails
    src = sp.SourceParams()
    field = sp.place_sensors(5, 10.0, seed=7)
    link = sp.LinkParams.from_db(L=160.0, N=80, T_s=1e-4, gamma_r_bar_db=5.0)
    syn = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.15, M=5, m=1)
    asyn = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.15, h=link.T_s, M=5, m=1)
    dark = sp.LinkParams.from_db(L=160.0, N=80, T_s=1e-4, gamma_r_bar_db=-40.0)
    cases = [
        # a NaN weight in lane 3: a non-finite minimum on that lane only
        (sp.BracketError, link, sp.OptimizerConfig(), True),
        # the simplified BLEP is 1 over the whole range
        (sp.BracketError, dark, sp.OptimizerConfig(), False),
        # N_min above every cap
        (sp.InvalidConfigError, link, sp.OptimizerConfig(N_min=1500), False),
    ]
    for error, lk, cfg, nan in cases:
        for run, scheme in ((sp.optimize_blocklength, syn), (sp.optimize_blocklength, asyn),
                            (sp.jtsbo, asyn)):
            stack = _fig11_stack(field, scheme)
            if nan:
                stack[3, 2] = np.nan
            with pytest.raises(error) as alone:
                run(src, stack[3], lk, scheme, cfg)
            with pytest.raises(error) as stacked:
                run(src, stack, lk, scheme, cfg)
            assert str(stacked.value) == str(alone.value)
            if nan:  # the other lanes run
                run(src, np.delete(stack, 3, axis=0), lk, scheme, cfg)
    # no grid shift fits the blocklength
    stack, full = _fig11_stack(field, asyn), link.with_blocklength(1497)
    with pytest.raises(sp.InvalidConfigError) as alone:
        sp.optimize_time_shift(src, stack[3], full, asyn)
    with pytest.raises(sp.InvalidConfigError) as stacked:
        sp.optimize_time_shift(src, stack, full, asyn)
    assert str(stacked.value) == str(alone.value) == (
        "no feasible time shift at blocklength N=1497")


def test_a_lane_range_past_the_sensor_array_budget_is_a_scale_limit(set_scale_limit):
    # one lane's (range x M) values, of 5 sensors: fig11's syn scan holds
    # 1,490 blocklengths, and the blocklength steps and jtsbo's face step
    # start at the plateau edge, N = 34; the budget is inclusive
    src = sp.SourceParams()
    field = sp.place_sensors(5, 10.0, seed=7)
    link = sp.LinkParams.from_db(L=160.0, N=80, T_s=1e-4, gamma_r_bar_db=5.0)
    syn = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.15, M=5, m=1)
    asyn = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.15, h=link.T_s, M=5, m=1)
    runs = [(1466, lambda: sp.optimize_blocklength(src, field, link, syn)),
            (1490, lambda: sp.exhaustive_search(src, field, link, syn)),
            (1463, lambda: sp.optimize_blocklength(src, field, link, asyn)),
            (1463, lambda: sp.jtsbo(src, field, link, asyn))]
    for width, run in runs:
        set_scale_limit("sensor_bytes", 8 * width * 5)
        run()
        set_scale_limit("sensor_bytes", 8 * width * 5 - 1)
        with pytest.raises(sp.ScaleLimitError, match=f"the {width}-point range of 5 sensors"):
            run()


# runs, in a process whose address space is capped at its first argument in
# bytes, each optimizer on one weight vector of 8,192 sensors at T / T_s =
# 150,000; prints one "name: error type: message" line per run
_RANGE_UNDER_RLIMIT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]),) * 2)
import numpy as np
import sptrecon as sp
M = 8192
src, link = sp.SourceParams(), sp.LinkParams(T_s=1e-6)
w = np.full(M, 0.5)
w[0] = 1.0
syn = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.15, M=M, m=1)
asyn = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.15, h=1e-6, M=M, m=1)
for name, job in [
        ("syn step", lambda: sp.optimize_blocklength(src, w, link, syn)),
        ("asyn step", lambda: sp.optimize_blocklength(src, w, link, asyn)),
        ("time shift", lambda: sp.optimize_time_shift(src, w, link, asyn)),
        ("jtsbo", lambda: sp.jtsbo(src, w, link, asyn)),
        ("syn scan", lambda: sp.exhaustive_search(src, w, link, syn))]:
    try:
        job()
        print(name + ": ran")
    except Exception as exc:
        print(f"{name}: {type(exc).__name__}: {exc}")
"""


def test_an_optimizer_range_of_many_sensors_is_a_scale_limit_before_it_is_sized():
    # 8,192 sensors pass the distance budget, and about 150,000 blocklengths
    # the range budget, yet one lane's (range x M) values would take about 9
    # GiB; each optimizer that scores the range raises before it is sized,
    # in a process whose address space is capped, so a guard that fails to
    # fire ends in MemoryError rather than taking the machine's memory; the
    # time-shift step's 18 shifts of 8,192 sensors run
    src = Path(sp.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _RANGE_UNDER_RLIMIT, str(768 << 20)],
                          capture_output=True, text=True, timeout=300,
                          env={"PYTHONPATH": str(src), "PATH": "", "OMP_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    got = dict(line.split(": ", 1) for line in proc.stdout.splitlines())
    # a blocklength step and the face step score from the plateau edge,
    # N = 34, the scan from N_min
    limit = "ScaleLimitError: the {}-point range of 8192 sensors would need {} GiB (> 1"
    want = {"syn step": limit.format(149966, "9.15"),
            "asyn step": limit.format(141776, "8.65"),
            "time shift": "ran",
            "jtsbo": limit.format(141776, "8.65"),
            "syn scan": limit.format(149990, "9.15")}
    assert sorted(got) == sorted(want)
    for name, start in want.items():
        assert got[name].startswith(start), (name, got[name])


def test_a_nan_on_the_exhaustive_grid_is_a_bracket_error():
    # at a = 1e-300 the squared period correlation E rounds to 1, and where
    # the BLEP is saturated at 1 the eps factor is 0/0: the syn scan raised,
    # the asyn walk skipped each chunk whose argmin was the NaN and returned
    # N = 54 at the error sigma2
    src = sp.SourceParams(a=1e-300)
    field = sp.place_sensors(5, 10.0, seed=7)
    link = sp.LinkParams.from_db(L=160.0, N=80, T_s=1e-4, gamma_r_bar_db=5.0)
    syn = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.15, M=5, m=1)
    asyn = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.15, h=1e-4, M=5, m=1)
    with np.errstate(invalid="ignore"):
        with pytest.raises(sp.BracketError, match=r"objective is nan at 10 on \[10, 1499\]"):
            sp.exhaustive_search(src, field, link, syn)
        with pytest.raises(sp.BracketError,
                           match=r"objective is nan at N = 10, h = 0.0001 on \[10, 1496\]"):
            sp.exhaustive_search(src, field, link, asyn)


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
    with pytest.warns(UserWarning, match="L=2.0 < pi"):
        sp.optimize_blocklength(source, field, link, scheme)


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
    # one _objective call over the whole index range, then one for the
    # residual: the complex step of the objective at the returned integer;
    # the range call's other argument is the lane's own N or h, one value;
    # then the result's re-score at the returned point, with no range
    # argument
    objective_calls = []
    monkeypatch.setattr(optimize, "_objective",
                        lambda *a, _fn=_objective, **kw: objective_calls.append(
                            [x for x in a[4:] if np.size(x) > 1 or np.iscomplexobj(x)])
                        or _fn(*a, **kw))
    h, Ts = asyn_scheme.h, link.T_s
    # (step, its integer index and stepped argument, objective of the index)
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
        res = step()
        x, arg = point(res)
        assert res.branch == "interior-root"
        assert [len(c) for c in objective_calls] == [1, 1, 0]
        (idx,), (stepped,), () = objective_calls
        assert stepped.real.tolist() == [arg] and np.iscomplexobj(stepped)
        idx = idx / (Ts if isinstance(arg, float) else 1)
        _discrete_minimum(obj, round(idx[0]), round(idx[-1]), x)


def test_a_range_past_the_budget_is_a_scale_limit(source, field, syn_scheme,
                                                  asyn_scheme):
    # fig11 at symbol_duration_s = 1e-12 ended in "Unable to allocate
    # 1.09 TiB" (150 G blocklengths); every optimizer stops before its
    # first range array
    link = sp.LinkParams.from_db(L=160.0, N=80, T_s=1e-12, gamma_r_bar_db=5.0)
    runs = [lambda: sp.optimize_blocklength(source, field, link, syn_scheme),
            lambda: sp.optimize_blocklength(source, field, link, asyn_scheme),
            lambda: sp.optimize_time_shift(source, field, link, asyn_scheme),
            lambda: sp.jtsbo(source, field, link, asyn_scheme),
            lambda: sp.exhaustive_search(source, field, link, syn_scheme),
            lambda: sp.exhaustive_search(source, field, link, asyn_scheme)]
    tracemalloc.start()
    try:
        for run in runs:
            with pytest.raises(sp.ScaleLimitError, match="range .* values"):
                run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the budget holds 2^20 indices: N_min = 1 .. 2^20, and T / T_s = 2^21
    # over M - 1 = 2 (at N = 1, shifts up to (2^21 - 1) / 2)
    budget, cfg = 1 << 20, sp.OptimizerConfig(N_min=1)
    assert optimize._blocklength_cap(budget + 1.0, 1.0, cfg) == budget
    with pytest.raises(sp.ScaleLimitError, match=r"from N_min = 1 would need 1048577 values"):
        optimize._blocklength_cap(budget + 2.0, 1.0, cfg)
    assert shift_count(2.0 * budget, 1.0, 3, 1) == budget - 1
    with pytest.raises(sp.ScaleLimitError, match="time-shift range"):
        shift_count(2.0 * budget + 2.0, 1.0, 3, 1)


def test_an_exhaustive_grid_past_the_budget_is_a_scale_limit(monkeypatch, set_scale_limit,
                                                            source, field, link,
                                                            asyn_scheme):
    # the budget bounds the count that ``evaluations`` reports: a grid of
    # exactly the grid limit's points is scored, one more raises before scoring
    n = sp.exhaustive_search(source, field, link, asyn_scheme).evaluations
    assert n == sp.expected_evaluation_count(asyn_scheme.T, link.T_s, asyn_scheme.M)
    assert n < _SCALE_LIMITS["grid"][0]
    set_scale_limit("grid", n)
    assert sp.exhaustive_search(source, field, link, asyn_scheme).evaluations == n
    set_scale_limit("grid", n - 1)
    monkeypatch.setattr(optimize, "ClosedForm", None)  # nothing is scored
    with pytest.raises(sp.ScaleLimitError, match=f"grid would need {n} points"):
        sp.exhaustive_search(source, field, link, asyn_scheme)


def test_the_face_step_starts_at_the_plateau_edge():
    # at a = 1e-300 the squared period correlation E rounds to 1, so on the
    # saturated face points, below the plateau edge, the objective is 0/0:
    # the face step's minimum was NaN, silently never taken, with a
    # RuntimeWarning.  From the edge on every face point is finite
    src = sp.SourceParams(a=1e-300)
    field = sp.place_sensors(5, 10.0, seed=7)
    link = sp.LinkParams.from_db(L=160.0, N=80, T_s=1e-4, gamma_r_bar_db=5.0)
    asyn = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.15, h=1e-4, M=5, m=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = sp.jtsbo(src, field, link, asyn)
    assert math.isfinite(res.objective_star) and math.isfinite(res.mse_star)
    assert res.converged and res.N_star >= 34  # the plateau edge


def test_exhaustive_blep_vector_in_one_call(monkeypatch, source, field, link,
                                            syn_scheme, asyn_scheme):
    # one call of the objective's BLEP model over the whole range, then one
    # exact BLEP call for the result's re-score
    calls = []
    for name in ("blep_average", "blep_average_simplified"):
        real = getattr(optimize, name)
        monkeypatch.setattr(optimize, name, lambda *a, _real=real, _name=name, **k:
                            calls.append(_name) or _real(*a, **k))
    for scheme in (syn_scheme, asyn_scheme):
        for objective, model in (("simplified", "blep_average_simplified"),
                                 ("exact", "blep_average")):
            calls.clear()
            sp.exhaustive_search(source, field, link, scheme,
                                 sp.OptimizerConfig(N_max=300), objective=objective)
            assert calls == [model, "blep_average"]


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
