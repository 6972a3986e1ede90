import importlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import sptrecon as sp
from sptrecon.errors import BracketError, InvalidConfigError
from sptrecon.mse import _check_timing, max_blocklength, shift_count


def dip_setup():
    """Weak spatial correlation with the target in the penultimate slot:
    the last slot's sensor covers the long wrap-around gap, so losing its
    packets (higher eps) temporarily lowers the error."""
    pos = np.array([[50., 0.], [0., 50.], [-50., 0.], [0., 0.], [35., 35.]])
    field = sp.SensorField(positions=pos, target_index=4)
    src = sp.SourceParams(b=0.1)
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.005, M=5, m=4)
    return src, field, scheme


def slot_weights(src, scheme, eps):
    """The slot weights Psi_n of an asynchronous config."""
    return sp.ClosedForm(src, scheme.T, 0.0, scheme.M, scheme.h).psi(eps)


def dmse(src, f, link, scheme, eps):
    """The analytic d MSE / d eps of an asynchronous config."""
    cf = sp.ClosedForm(src, scheme.T, link.tau, scheme.M, scheme.h)
    return float(cf.dmse(eps, sp.scheme_weights(src, f, scheme)))


def monotone_setup():
    """Same geometry with the target moved to the last slot: it covers the
    wrap itself, so packet loss only ever hurts."""
    pos = np.array([[50., 0.], [0., 50.], [-50., 0.], [35., 35.], [0., 0.]])
    field = sp.SensorField(positions=pos, target_index=5)
    src = sp.SourceParams(b=0.1)
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.005, M=5, m=5)
    return src, field, scheme


# ---------------------------------------------------------------------------
# reindexing
# ---------------------------------------------------------------------------

def test_reindex_invariants(source, field):
    ranked = sp.reindex_by_correlation(source, field)
    assert ranked.order[0] == field.target_index
    assert ranked.factors[0] == 1.0
    assert all(a >= b for a, b in zip(ranked.factors, ranked.factors[1:]))


def test_reindex_tie_break_ascending_index():
    # sensors 2 and 3 equidistant from the target
    pos = np.array([[0., 0.], [3., 0.], [0., 3.], [7., 0.]])
    f = sp.SensorField(positions=pos, target_index=1)
    ranked = sp.reindex_by_correlation(sp.SourceParams(b=0.1), f)
    assert ranked.order == (1, 2, 3, 4)


# ---------------------------------------------------------------------------
# synchronous closed form
# ---------------------------------------------------------------------------

def test_syn_eps_zero_keeps_only_target_term(source, field, link, syn_scheme):
    v = sp.average_mse(source, field, link, syn_scheme, eps_bar=0.0)
    no = sp.SchemeConfig(sp.Scheme.NO_INFER, T=syn_scheme.T, M=1, m=1)
    v_no = sp.average_mse(source, None, link, no, eps_bar=0.0)
    assert v == pytest.approx(v_no, abs=1e-15)


def test_syn_reduces_to_no_infer_at_m1(source, link, no_scheme):
    f1 = sp.SensorField(positions=np.array([[1.0, 2.0]]), target_index=1)
    syn1 = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.150, M=1, m=1)
    for eps in (0.0, 0.2, 0.6, 0.95, 1.0):
        a = sp.average_mse(source, f1, link, syn1, eps_bar=eps)
        b = sp.average_mse(source, None, link, no_scheme, eps_bar=eps)
        assert abs(a - b) < 1e-12


def test_no_infer_limits(source, link, no_scheme):
    s2 = source.sigma2_x
    assert sp.average_mse(source, None, link, no_scheme, eps_bar=1.0) == pytest.approx(s2, abs=1e-15)
    E = math.exp(-2 * source.a * no_scheme.T)
    expected = s2 - (s2 * source.gamma_o * math.exp(-2 * source.a * link.tau)
                     * (1 - E) / (2 * source.a * no_scheme.T * (source.gamma_o + 1)))
    assert sp.average_mse(source, None, link, no_scheme, eps_bar=0.0) == pytest.approx(
        expected, rel=1e-14)


def test_syn_rejects_period_shorter_than_delay(source, field, link):
    bad = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.005, M=5, m=1)
    with pytest.raises(InvalidConfigError):
        sp.average_mse(source, field, link, bad)


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("kind", [sp.Scheme.SYN_INFER, sp.Scheme.ASYN_INFER])
@pytest.mark.parametrize("name", ["T", "h"])
def test_scheme_rejects_non_finite_values(name, kind, value):
    with pytest.raises(InvalidConfigError, match="period T|time shift"):
        sp.SchemeConfig(kind, **{"T": 0.15, "h": 0.005, name: value})


def test_syn_approx_exact_under_equidistant_symmetry(link):
    r = 5.0
    ang = np.linspace(0, 2 * np.pi, 5, endpoint=False)[:4]
    pos = np.vstack([[0.0, 0.0], np.c_[r * np.cos(ang), r * np.sin(ang)]])
    f = sp.SensorField(positions=pos, target_index=1)
    src = sp.SourceParams(b=0.07)
    scheme = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.150, M=5, m=1)
    rho = sp.mssc(src, f)
    exact = sp.average_mse(src, f, link, scheme)
    appr = sp.average_mse(src, None, link, scheme, mssc_value=rho)
    assert appr == pytest.approx(exact, abs=1e-14)


def test_syn_approx_mssc_zero_is_no_infer(source, link, syn_scheme, no_scheme):
    a = sp.average_mse(source, None, link, syn_scheme, mssc_value=0.0)
    # with no usable neighbours the synchronous scheme sees a harsher
    # silence pattern (all M must fail to refresh), so compare against the
    # explicit M-sensor form with zero weights rather than the M=1 form
    f_far = sp.SensorField(
        positions=np.array([[0., 0.], [9e9, 0.], [0., 9e9], [-9e9, 0.], [0., -9e9]]),
        target_index=1)
    b = sp.average_mse(source, f_far, link, syn_scheme)
    assert a == pytest.approx(b, rel=1e-12)


def test_syn_approx_gap_small_over_random_fields(source, link, syn_scheme):
    # frozen development maximum over these 100 fields was 0.957%
    worst = 0.0
    for seed in range(100):
        f = sp.place_sensors(5, 10.0, seed=seed)
        rho = sp.mssc(source, f)
        exact = sp.average_mse(source, f, link, syn_scheme)
        appr = sp.average_mse(source, None, link, syn_scheme, mssc_value=rho)
        worst = max(worst, abs(appr - exact) / exact)
    assert worst < 0.02


# ---------------------------------------------------------------------------
# asynchronous closed form
# ---------------------------------------------------------------------------

def test_psi_collapses_at_h_equal_t_over_m(source):
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.030, M=5, m=1)
    q = math.exp(-2 * source.a * scheme.h)
    for eps in (0.0, 0.3, 0.8):
        psi = slot_weights(source, scheme, eps)
        assert np.allclose(psi, 1.0 - q, atol=1e-15)


def test_psi_at_eps_zero(source, asyn_scheme):
    a, h, T, M = source.a, asyn_scheme.h, asyn_scheme.T, asyn_scheme.M
    psi = slot_weights(source, asyn_scheme, 0.0)
    q = math.exp(-2 * a * h)
    assert np.allclose(psi[:-1], 1.0 - q, atol=1e-15)
    wrap = 1.0 - math.exp(-2 * a * (T - (M - 1) * h))
    assert psi[-1] == pytest.approx(wrap, rel=1e-12)


def test_asyn_eps_zero_matches_direct_weighting(source, field, link, asyn_scheme):
    # at eps = 0 the closed form must equal the all-success value:
    # last-slot sensor covers the wrap gap, everyone else covers one shift
    v = sp.average_mse(source, field, link, asyn_scheme, eps_bar=0.0)
    a, h, T, M = source.a, asyn_scheme.h, asyn_scheme.T, asyn_scheme.M
    w = field.target_factors(source.b)
    q = math.exp(-2 * a * h)
    alpha = (w[-1] * q * (1 - math.exp(-2 * a * (T - M * h)))
             + (1 - q) * w.sum())
    c = (source.sigma2_x * source.gamma_o * math.exp(-2 * source.a * link.tau)
         / (2 * source.a * T * (source.gamma_o + 1)))
    assert v == pytest.approx(source.sigma2_x - c * alpha, rel=1e-12)


def test_asyn_rejects_infeasible_shift(source, field, link):
    with pytest.raises(InvalidConfigError):
        bad = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.05, M=5, m=1)
        sp.average_mse(source, field, link, bad)


def test_asyn_approx_exact_under_equidistant_symmetry(link):
    r = 5.0
    ang = np.linspace(0, 2 * np.pi, 5, endpoint=False)[:4]
    pos = np.vstack([[0.0, 0.0], np.c_[r * np.cos(ang), r * np.sin(ang)]])
    f = sp.SensorField(positions=pos, target_index=1)
    src = sp.SourceParams(b=0.07)
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.005, M=5, m=1)
    rho = sp.mssc(src, f)
    exact = sp.average_mse(src, f, link, scheme)
    appr = sp.average_mse(src, None, link, scheme, mssc_value=rho)
    assert appr == pytest.approx(exact, abs=1e-14)


def test_asyn_approx_gap_small_over_random_fields(source, link, asyn_scheme):
    # frozen development maximum over these 100 fields was 0.717%
    worst = 0.0
    for seed in range(100):
        f = sp.place_sensors(5, 10.0, seed=seed)
        rho = sp.mssc(source, f)
        exact = sp.average_mse(source, f, link, asyn_scheme)
        appr = sp.average_mse(source, None, link, asyn_scheme, mssc_value=rho)
        worst = max(worst, abs(appr - exact) / exact)
    assert worst < 0.02


# ---------------------------------------------------------------------------
# monotonicity and range properties
# ---------------------------------------------------------------------------

def test_syn_monotone_increasing_in_eps(source, field, link, syn_scheme):
    grid = np.linspace(0.0, 0.999, 200)
    vals = [sp.average_mse(source, field, link, syn_scheme, eps_bar=e)
            for e in grid]
    assert np.all(np.diff(vals) >= -1e-12)


def test_mse_decreasing_in_single_spatial_factor(source, link, syn_scheme, asyn_scheme):
    # pulling one sensor closer (raising its weight) must lower both errors
    base = np.array([[0., 0.], [8., 0.], [0., 9.], [-7., 2.], [3., -8.]])
    closer = base.copy()
    closer[2] = [0., 5.]
    f0 = sp.SensorField(positions=base, target_index=1)
    f1 = sp.SensorField(positions=closer, target_index=1)
    assert (sp.average_mse(source, f1, link, syn_scheme)
            < sp.average_mse(source, f0, link, syn_scheme))
    assert (sp.average_mse(source, f1, link, asyn_scheme)
            < sp.average_mse(source, f0, link, asyn_scheme))


def test_mse_decreasing_in_mssc(source, link, syn_scheme, asyn_scheme):
    grid = np.linspace(0.0, 1.0, 60)
    syn_vals = [sp.average_mse(source, None, link, syn_scheme, mssc_value=r) for r in grid]
    asyn_vals = [sp.average_mse(source, None, link, asyn_scheme, mssc_value=r) for r in grid]
    assert np.all(np.diff(syn_vals) < 0)
    assert np.all(np.diff(asyn_vals) < 0)


def test_mse_within_variance_range(source, link):
    rng = np.random.default_rng(5150)
    for _ in range(50):
        M = int(rng.integers(2, 7))
        f = sp.place_sensors(M, 10.0, seed=int(rng.integers(0, 9999)))
        T = float(rng.uniform(0.02, 0.5))
        hmax = (T - link.tau) / (M - 1)
        if hmax < link.T_s:
            continue
        h = float(rng.uniform(link.T_s, hmax))
        syn = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=T, M=M, m=1)
        asyn = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=T, h=h, M=M, m=1)
        for v in (sp.average_mse(source, f, link, syn),
                  sp.average_mse(source, f, link, asyn)):
            assert 0.0 <= v <= source.sigma2_x


# ---------------------------------------------------------------------------
# eps-derivative, interior minimizer, MSSC threshold
# ---------------------------------------------------------------------------

def test_asyn_eps_derivative_matches_finite_difference(source, field, link, asyn_scheme):
    for eps in (0.05, 0.2, 0.5, 0.8, 0.95):
        d = 1e-6
        hi = sp.average_mse(source, field, link, asyn_scheme, eps_bar=eps + d)
        lo = sp.average_mse(source, field, link, asyn_scheme, eps_bar=eps - d)
        fd = (hi - lo) / (2 * d)
        ana = dmse(source, field, link, asyn_scheme, eps)
        assert ana == pytest.approx(fd, rel=1e-4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=st.floats(0.1, 20.0), T=st.floats(0.02, 0.5), tau_frac=st.floats(0.0, 0.99))
def test_complex_step_matches_the_no_inference_derivative(a, T, tau_frac):
    # d/d eps of sigma2 - c (1-E)(1-eps)/(1 - E eps) is c (1-E)^2 / (1 - E eps)^2;
    # the complex step matches it to rounding, where a finite difference
    # loses half the digits to cancellation
    src = sp.SourceParams(a=a)
    tau = tau_frac * T
    E = math.exp(-2.0 * a * T)
    c = (src.sigma2_x * src.gamma_o * math.exp(-2.0 * a * tau)
         / (2.0 * a * T * (src.gamma_o + 1.0)))
    eps = [0.0, 0.3, 1.0 - 1e-9, 1.0]
    want = [c * (1.0 - E) ** 2 / (1.0 - E * e) ** 2 for e in eps]
    cf = sp.ClosedForm(src, T, tau, 1)
    assert cf.dmse(np.array(eps), [1.0]).tolist() == pytest.approx(want, rel=1e-13, abs=0)
    for e, w in zip(eps, want):
        assert float(cf.dmse(e, [1.0])) == pytest.approx(w, rel=1e-13, abs=0)


def test_complex_step_does_not_depend_on_its_size(monkeypatch, source, link):
    # exact to rounding for any tiny step: the default and 1e-20 agree
    eps = np.linspace(0.0, 1.0, 21)

    def slopes():
        out = []
        for seed in range(4):
            f = sp.place_sensors(5, 10.0, seed=seed, target_index=seed + 1)
            syn = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.150, M=5, m=seed + 1)
            out.append(sp.ClosedForm(source, 0.150, link.tau, 5).dmse(
                eps, sp.scheme_weights(source, f, syn)))
            for h in (link.T_s, 0.012, 0.03):
                asyn = replace(syn, scheme=sp.Scheme.ASYN_INFER, h=h)
                out.append(sp.ClosedForm(source, 0.150, link.tau, 5, h).dmse(
                    eps, sp.scheme_weights(source, f, asyn)))
                out.append([sp.eval_J(source, f, link, asyn, h)])
        return np.concatenate(out)

    before = slopes()
    monkeypatch.setattr("sptrecon.mse._STEP", 1e-20)
    assert slopes() == pytest.approx(before, rel=1e-12, abs=0)


def test_eps_star_finds_the_dip():
    src, f, scheme = dip_setup()
    link = sp.LinkParams.from_db()
    e_star, v_star = sp.eps_star_asyn(src, f, link, scheme)
    assert 0.0 < e_star < 1.0
    # stationary and lower than both endpoints
    assert abs(dmse(src, f, link, scheme, e_star)) < 1e-9
    v0 = sp.average_mse(src, f, link, scheme, eps_bar=0.0)
    assert v_star < v0


def test_eps_star_zero_when_monotone():
    src, f, scheme = monotone_setup()
    link = sp.LinkParams.from_db()
    e_star, v_star = sp.eps_star_asyn(src, f, link, scheme)
    assert e_star == 0.0


def _scalar_scan_eps_star(src, f, link, scheme, grid_size=512):
    """Reference: the grid scored one closed-form call per point."""
    grid = np.linspace(0.0, 1.0 - 1e-9, grid_size)
    vals = np.array([sp.average_mse(src, f, link, scheme, eps_bar=e)
                     for e in grid])
    k = int(np.argmin(vals))
    if k == 0:
        return 0.0, float(vals[0])
    dm = lambda e: dmse(src, f, link, scheme, e)
    lo, hi = grid[k - 1], grid[min(k + 1, grid_size - 1)]
    if dm(lo) < 0.0 < dm(hi):
        root = brentq(dm, lo, hi, xtol=1e-15)
        return root, sp.average_mse(src, f, link, scheme, eps_bar=root)
    return float(grid[k]), float(vals[k])


@pytest.mark.parametrize("setup", [dip_setup, monotone_setup])
def test_eps_star_matches_scalar_scan(setup):
    src, f, scheme = setup()
    link = sp.LinkParams.from_db()
    got = sp.eps_star_asyn(src, f, link, scheme)
    want = _scalar_scan_eps_star(src, f, link, scheme)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(M=st.integers(2, 7), a=st.floats(0.1, 5.0), T=st.floats(0.05, 0.5),
       h_frac=st.floats(0.0, 1.0), data=st.data())
def test_eps_star_refine_lands_on_the_slope_root(M, a, T, h_frac, data):
    # wherever the scan brackets an interior minimum, the refine ends at
    # SciPy's root of the slope and never above the scan's best value
    src = sp.SourceParams(a=a)
    m = data.draw(st.integers(1, M))
    w = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=M, max_size=M)))
    w[m - 1] = 1.0
    link = sp.LinkParams.from_db(N=data.draw(st.integers(10, 200)))
    h_max = (T - link.tau) / (M - 1)
    assume(h_max > link.T_s)
    h = link.T_s + h_frac * (h_max - link.T_s)
    cf = sp.ClosedForm(src, T, link.tau, M, h)
    grid = np.linspace(0.0, 1.0 - 1e-9, 512)
    vals = cf.mse(grid, w)
    k = int(np.argmin(vals))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    dm = lambda e: float(cf.dmse(e, w))
    assume(k > 0 and dm(lo) < 0.0 < dm(hi))
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=T, h=h, M=M, m=m)
    e_star, v_star = sp.eps_star_asyn(src, w, link, scheme)
    assert e_star == pytest.approx(brentq(dm, lo, hi, xtol=1e-15), rel=1e-12)
    assert v_star <= vals[k]


def test_eps_star_refine_fails_loudly_on_a_nan_slope(monkeypatch):
    # a NaN slope inside the bracket must not become a NaN bound
    src, f, scheme = dip_setup()
    dmse = sp.ClosedForm.dmse
    monkeypatch.setattr(sp.ClosedForm, "dmse", lambda self, eps, w:
                        dmse(self, eps, w) if np.ndim(eps) else math.nan)
    with pytest.raises(BracketError, match="NaN slope"):
        sp.eps_star_asyn(src, f, sp.LinkParams.from_db(), scheme)


def test_upsilon_classifies_dip_then_rise():
    src, f, scheme = dip_setup()
    link = sp.LinkParams.from_db()
    ups = sp.upsilon(src, f, link, scheme)
    rho = sp.mssc(src, f)
    assert rho < ups
    grid = np.linspace(0.0, 0.999, 300)
    vals = [sp.average_mse(src, f, link, scheme, eps_bar=e) for e in grid]
    k = int(np.argmin(vals))
    assert 0 < k < len(grid) - 1
    assert vals[k] < vals[0] - 1e-9 and vals[k] < vals[-1] - 1e-9


def test_upsilon_classifies_monotone():
    src, f, scheme = monotone_setup()
    link = sp.LinkParams.from_db()
    ups = sp.upsilon(src, f, link, scheme)
    rho = sp.mssc(src, f)
    assert rho > ups
    grid = np.linspace(0.0, 0.999, 300)
    vals = [sp.average_mse(src, f, link, scheme, eps_bar=e) for e in grid]
    assert np.all(np.diff(vals) >= -1e-12)


def test_upsilon_negative_at_h_equal_t_over_m(source, field, link):
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.030, M=5, m=1)
    ups = sp.upsilon(source, field, link, scheme)
    assert ups == pytest.approx(-0.25, abs=1e-12)  # -1/(M-1), wrap factor dies


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_syn_bounds_limits_exact(source, field, link, syn_scheme):
    lo, hi = sp.bounds(source, field, link, syn_scheme, "blep")
    assert hi == pytest.approx(
        sp.average_mse(source, field, link, syn_scheme, eps_bar=1.0), abs=1e-12)
    assert lo == pytest.approx(
        sp.average_mse(source, field, link, syn_scheme, eps_bar=0.0), abs=1e-12)
    assert hi == pytest.approx(source.sigma2_x, abs=1e-15)

    lo2, hi2 = sp.bounds(source, field, link, syn_scheme, "spatial")
    assert hi2 == pytest.approx(
        sp.average_mse(source, None, link, syn_scheme, mssc_value=0.0), abs=1e-12)
    assert lo2 == pytest.approx(
        sp.average_mse(source, None, link, syn_scheme, mssc_value=1.0), abs=1e-12)


def test_asyn_bounds_limits_exact(source, field, link, asyn_scheme):
    lo, hi = sp.bounds(source, field, link, asyn_scheme, "blep")
    assert hi == pytest.approx(source.sigma2_x, abs=1e-15)
    lo2, hi2 = sp.bounds(source, field, link, asyn_scheme, "spatial")
    assert hi2 == pytest.approx(
        sp.average_mse(source, None, link, asyn_scheme, mssc_value=0.0), abs=1e-12)
    assert lo2 == pytest.approx(
        sp.average_mse(source, None, link, asyn_scheme, mssc_value=1.0), abs=1e-12)


def test_syn_spatial_gap_is_geometric_tail(source, field, link, syn_scheme):
    # upper - lower = beta * ((1 - eps^M)/(1 - eps) - 1) >= 0
    lo, hi = sp.bounds(source, field, link, syn_scheme, "spatial")
    eps = sp.blep_average(link)
    # reduction by the target's own packets; sensor s adds beta eps^(s-1)
    beta = source.sigma2_x - hi
    M = syn_scheme.M
    gap = beta * ((1 - eps ** M) / (1 - eps) - 1.0)
    assert hi - lo == pytest.approx(gap, rel=1e-12)
    assert gap >= 0.0


def test_bounds_contain_mse_on_random_configs():
    rng = np.random.default_rng(202)
    checked = 0
    for _ in range(100):
        M = int(rng.integers(2, 7))
        src = sp.SourceParams(sigma2_x=float(rng.uniform(0.5, 2.0)),
                              gamma_o=float(rng.uniform(1.0, 10.0)),
                              a=float(rng.uniform(0.5, 4.0)),
                              b=float(rng.uniform(0.0, 0.2)))
        f = sp.place_sensors(M, 10.0, seed=int(rng.integers(0, 10000)),
                             target_index=int(rng.integers(1, M + 1)))
        link = sp.LinkParams.from_db(N=int(rng.integers(20, 300)),
                                     gamma_r_bar_db=float(rng.uniform(0.0, 20.0)))
        T = float(rng.uniform(link.tau * 1.5, 0.6))
        h = float(rng.uniform(link.T_s, (T - link.tau) / (M - 1)))
        syn = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=T, M=M, m=f.target_index)
        asyn = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=T, h=h, M=M, m=f.target_index)
        for schm in (syn, asyn):
            v = sp.average_mse(src, f, link, schm)
            for axis in ("blep", "spatial"):
                lo, hi = sp.bounds(src, f, link, schm, axis)
                assert lo - 1e-9 <= v <= hi + 1e-9
                checked += 1
    assert checked == 400


# ---------------------------------------------------------------------------
# array kernel against the scalar wrappers and the written-out closed forms
# ---------------------------------------------------------------------------

def _literal_mse(src, T, tau, eps, w, h=None):
    """The closed forms written out term by term in plain floats."""
    a, M = src.a, len(w)
    c = (src.sigma2_x * src.gamma_o * math.exp(-2 * a * tau)
         / (2 * a * T * (src.gamma_o + 1)))
    E = math.exp(-2 * a * T)
    if h is None:
        series = sum(w[s - 1] * eps ** (s - 1) for s in range(1, M + 1))
        return src.sigma2_x - c * (1 - E) * (1 - eps) * series / (1 - E * eps ** M)
    q = math.exp(-2 * a * h)
    S = sum(w[n - 1] * ((1 - q) + math.exp(2 * a * h * (n - 1)) * eps ** (M - n)
                        * (1 - eps) * (q ** M - E) / (1 - E * eps ** M))
            for n in range(1, M + 1))
    return src.sigma2_x - c * (1 - eps) * S / (1 - q * eps)


ROWS = 4


@settings(max_examples=60, deadline=None, derandomize=True)
@given(M=st.integers(2, 6), a=st.floats(0.2, 4.0), b=st.floats(0.0, 0.2),
       data=st.data())
def test_kernel_matches_scalar_wrappers(M, a, b, data):
    src = sp.SourceParams(sigma2_x=1.0, gamma_o=5.0, a=a, b=b)
    T = 0.150
    rows = []
    for _ in range(ROWS):
        f = sp.place_sensors(M, 10.0, seed=data.draw(st.integers(0, 10 ** 6)),
                             target_index=data.draw(st.integers(1, M)))
        link = sp.LinkParams.from_db(N=data.draw(st.integers(10, 800)))
        h_max = (T - link.tau) / (M - 1)
        h = link.T_s + data.draw(st.floats(0.0, 1.0)) * (h_max - link.T_s)
        eps = data.draw(st.floats(0.0, 1.0))
        rows.append((f, link, h, eps))
    eps = np.array([r[3] for r in rows])
    tau = np.array([r[1].tau for r in rows])
    h = np.array([r[2] for r in rows])
    w = np.array([f.target_factors(b) for f, *_ in rows])
    fac = -np.sort(-w, axis=1)

    asyn = sp.ClosedForm(src, T, tau, M, h)
    syn = sp.ClosedForm(src, T, tau, M)
    got = {"asyn": asyn.mse(eps, w), "dasyn": asyn.dmse(eps, w),
           "syn": syn.mse(eps, fac), "no": sp.ClosedForm(src, T, tau, 1).mse(eps, [1.0])}
    psi = asyn.psi(eps)
    close = lambda x, y: x == pytest.approx(y, rel=1e-12, abs=1e-12)
    for i, (f, link, hi, e) in enumerate(rows):
        s_asyn = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=T, h=hi, M=M, m=f.target_index)
        s_syn = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=T, M=M, m=f.target_index)
        s_no = sp.SchemeConfig(sp.Scheme.NO_INFER, T=T, M=1, m=1)
        assert close(got["asyn"][i], sp.average_mse(src, f, link, s_asyn, e))
        assert close(got["dasyn"][i], dmse(src, f, link, s_asyn, e))
        assert close(got["syn"][i], sp.average_mse(src, f, link, s_syn, e))
        assert close(got["no"][i], sp.average_mse(src, None, link, s_no, e))
        assert close(psi[i], slot_weights(src, s_asyn, e))
        assert close(got["asyn"][i], _literal_mse(src, T, link.tau, e, w[i], hi))
        assert close(got["syn"][i], _literal_mse(src, T, link.tau, e, fac[i]))
        # one call over every drawn eps equals the scalar calls row by row
        for schm, fw in ((s_asyn, f), (s_syn, f), (s_no, None)):
            batch = sp.average_mse(src, fw, link, schm, eps)
            assert batch.shape == eps.shape
            for j, e_j in enumerate(eps.tolist()):
                assert close(batch[j], sp.average_mse(src, fw, link, schm, e_j))


def test_scheme_weights_rule(source, field, syn_scheme, asyn_scheme, no_scheme):
    fac = field.target_factors(source.b)
    assert sp.scheme_weights(source, field, no_scheme).tolist() == [1.0]
    # shared by every no-inference call, so a caller cannot overwrite it
    assert not sp.scheme_weights(source, field, no_scheme).flags.writeable
    assert sp.scheme_weights(source, field, asyn_scheme).tolist() == fac.tolist()
    assert sp.scheme_weights(source, field, syn_scheme).tolist() == sorted(
        fac.tolist(), reverse=True)
    # the scheme tag picks the rule; explicit weights pass through
    assert sp.scheme_weights(source, field,
                             replace(asyn_scheme, scheme="no-infer")).tolist() == [1.0]
    assert sp.scheme_weights(source, [1.0, 0.5, 0.4, 0.3, 0.2],
                             asyn_scheme).tolist() == [1.0, 0.5, 0.4, 0.3, 0.2]
    # MSSC substitution: the target at 1 (syn) or at its slot m (asyn)
    asyn3 = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.005, M=5, m=3)
    assert sp.scheme_weights(source, None, asyn3, mssc_value=0.4).tolist() == [
        0.4, 0.4, 1.0, 0.4, 0.4]
    assert sp.scheme_weights(source, None, replace(asyn3, scheme="syn-infer"),
                             0.4).tolist() == [
        1.0, 0.4, 0.4, 0.4, 0.4]
    grid = sp.scheme_weights(source, None, asyn3, mssc_value=np.array([0.1, 0.2]))
    assert grid.tolist() == [[0.1, 0.1, 1.0, 0.1, 0.1], [0.2, 0.2, 1.0, 0.2, 0.2]]
    with pytest.raises(InvalidConfigError, match="need 5 spatial weights, got 4"):
        sp.scheme_weights(source, [1.0, 0.5, 0.5, 0.5], asyn_scheme)
    small = sp.place_sensors(4, 10.0, seed=7)
    with pytest.raises(InvalidConfigError, match="need 5 spatial weights, got 4"):
        sp.scheme_weights(source, small, syn_scheme)
    syn1 = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.150, M=1, m=1)
    with pytest.raises(InvalidConfigError, match="M >= 2"):
        sp.scheme_weights(source, None, syn1, mssc_value=0.5)


def test_scheme_weights_rejects_a_field_with_another_target(source, field, link,
                                                            syn_scheme, asyn_scheme):
    # the MSSC forms and the thresholds read m, the field's weights its target
    for schm in (syn_scheme, asyn_scheme):
        other = replace(schm, m=2)
        with pytest.raises(InvalidConfigError, match="field target 1 .* m=2"):
            sp.scheme_weights(source, field, other)
        with pytest.raises(InvalidConfigError, match="field target 1 .* m=2"):
            sp.average_mse(source, field, link, other)
    # no-infer reads only the target's own weight, whatever m says
    no = replace(syn_scheme, scheme="no-infer", m=2)
    assert sp.scheme_weights(source, field, no).tolist() == [1.0]


def test_eps_star_needs_an_asynchronous_config(source, field, link, syn_scheme):
    with pytest.raises(InvalidConfigError, match="asynchronous config"):
        sp.eps_star_asyn(source, field, link, syn_scheme)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(M=st.integers(1, 8), a=st.floats(0.1, 5.0), T=st.floats(0.05, 0.5),
       tau_frac=st.floats(0.0, 0.99), gamma_o=st.floats(0.1, 20.0),
       data=st.data())
def test_syn_mse_non_decreasing_in_eps(M, a, T, tau_frac, gamma_o, data):
    # the abstract's positive correlation: under synchronous inference a
    # lossier link never lowers the error, for any descending weights
    src = sp.SourceParams(sigma2_x=1.0, gamma_o=gamma_o, a=a)
    rest = data.draw(st.lists(st.floats(0.0, 1.0), min_size=M - 1, max_size=M - 1))
    w = np.array([1.0] + sorted(rest, reverse=True))
    eps = np.linspace(0.0, 1.0, 2001)
    dmse = sp.ClosedForm(src, T, tau_frac * T, M, h=None).dmse(eps, w)
    assert np.all(dmse >= 0.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(M=st.integers(2, 7), a=st.floats(0.1, 5.0), T=st.floats(0.05, 0.5),
       b=st.floats(0.0, 0.3), h_frac=st.floats(0.0, 1.0), data=st.data())
def test_upsilon_is_the_sign_of_the_kernel_slope_at_zero(M, a, T, b, h_frac, data):
    # MSSC < upsilon exactly when the asynchronous error falls as eps leaves 0
    src = sp.SourceParams(a=a, b=b)
    f = sp.place_sensors(M, 10.0, seed=data.draw(st.integers(0, 10 ** 6)),
                         target_index=data.draw(st.integers(1, M)))
    link = sp.LinkParams.from_db(N=data.draw(st.integers(10, 200)))
    h_max = (T - link.tau) / (M - 1)
    assume(h_max > link.T_s)
    h = link.T_s + h_frac * (h_max - link.T_s)
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=T, h=h, M=M, m=f.target_index)
    ups, rho = sp.upsilon(src, f, link, scheme), sp.mssc(src, f)
    w = f.target_factors(b)
    slope = float(sp.ClosedForm(src, T, link.tau, M, h).dmse(0.0, w))
    assume(abs(ups - rho) > 1e-9 * max(1.0, abs(ups)))  # not a rounding tie
    assert (rho < ups) == (slope < 0.0)


def test_timing_rule_tolerance_and_strict_delay():
    T_s = 1e-4
    # without shifts the delay stays below the period; T / T_s within 1e-9
    # of an integer counts as that integer
    assert max_blocklength(500 * T_s, T_s) == 499
    assert max_blocklength((500 - 5e-10) * T_s, T_s) == 499
    assert max_blocklength((500 + 5e-10) * T_s, T_s) == 499
    assert max_blocklength((500 + 1e-6) * T_s, T_s) == 500
    # with shifts the round may fill the period, to 1e-9 symbol durations
    T = (40 - 5e-10) * T_s
    assert max_blocklength(T, T_s, 4 * T_s) == 36
    assert max_blocklength((40 - 2e-9) * T_s, T_s, 4 * T_s) == 35
    assert max_blocklength(T, T_s, np.array([4, 8]) * T_s).tolist() == [36, 32]
    # grid shifts at each N agree with the blocklength rule
    Ns = np.arange(1, 40)
    counts = shift_count(T, T_s, 5, Ns)
    for n, k in zip(Ns.tolist(), counts.tolist()):
        assert k == sum(n <= max_blocklength(T, T_s, 4 * (j * T_s)) for j in range(1, 12))
    assert counts[35] == 1 and counts[36] == 0  # N = 36 and 37
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=T, h=T_s, M=5, m=1)
    _check_timing(sp.LinkParams(N=36, T_s=T_s), scheme, need_h=True)
    with pytest.raises(InvalidConfigError, match="outside feasible band"):
        _check_timing(sp.LinkParams(N=37, T_s=T_s), scheme, need_h=True)
    syn = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=(500 + 5e-10) * T_s, M=5, m=1)
    with pytest.raises(InvalidConfigError, match="must exceed the packet delay"):
        _check_timing(sp.LinkParams(N=500, T_s=T_s), syn)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(M=st.integers(2, 7), a=st.floats(0.1, 5.0), T=st.floats(0.05, 0.5),
       data=st.data())
def test_mse_grid_matches_the_broadcast_kernel(M, a, T, data):
    # the rank-M grid equals mse at (eps[:, None], h) on every row block
    # and every leading run of shifts
    src = sp.SourceParams(a=a)
    T_s = 1e-4
    w = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=M, max_size=M)))
    rows = data.draw(st.integers(1, 12))
    eps = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=rows,
                                      max_size=rows)))
    N = np.array(data.draw(st.lists(st.integers(10, 200), min_size=rows,
                                    max_size=rows)))
    h_max = (T - N.max() * T_s) / (M - 1)
    assume(h_max > T_s)
    h = np.sort(data.draw(st.lists(st.floats(T_s, h_max), min_size=1, max_size=9)))
    grid = sp.ClosedForm(src, T, N * T_s, M, h)
    want = sp.ClosedForm(src, T, N[:, None] * T_s, M, h).mse(eps[:, None], w)
    i = data.draw(st.integers(0, rows - 1))
    j = data.draw(st.integers(i + 1, rows))
    for width in range(1, h.size + 1):
        for sl in (slice(None), slice(i, j)):
            got = grid.mse_grid(eps, w, sl, width)
            np.testing.assert_allclose(got, want[sl, :width], rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("module", ["mse", "optimize", "regions"])
def test_public_names_import_from_the_package(module):
    # README and the examples use the package namespace alone
    mod = importlib.import_module(f"sptrecon.{module}")
    assert [n for n in mod.__all__ if getattr(sp, n, None) is not getattr(mod, n)] == []
