import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import sptrecon as sp
from sptrecon.errors import InvalidConfigError
from sptrecon.mse import dpsi_deps


def dip_setup():
    """Weak spatial correlation with the target in the penultimate slot:
    the last slot's sensor covers the long wrap-around gap, so losing its
    packets (higher eps) temporarily lowers the error."""
    pos = np.array([[50., 0.], [0., 50.], [-50., 0.], [0., 0.], [35., 35.]])
    field = sp.SensorField(positions=pos, target_index=4)
    src = sp.SourceParams(b=0.1)
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.005, M=5, m=4)
    return src, field, scheme


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
    v = sp.mse_syn_infer(source, field, link, syn_scheme, eps_bar=0.0).value
    no = sp.SchemeConfig(sp.Scheme.NO_INFER, T=syn_scheme.T, M=1, m=1)
    v_no = sp.mse_no_infer(source, link, no, eps_bar=0.0).value
    assert v == pytest.approx(v_no, abs=1e-15)


def test_syn_reduces_to_no_infer_at_m1(source, link, no_scheme):
    f1 = sp.SensorField(positions=np.array([[1.0, 2.0]]), target_index=1)
    syn1 = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.150, M=1, m=1)
    for eps in (0.0, 0.2, 0.6, 0.95, 1.0):
        a = sp.mse_syn_infer(source, f1, link, syn1, eps_bar=eps).value
        b = sp.mse_no_infer(source, link, no_scheme, eps_bar=eps).value
        assert abs(a - b) < 1e-12


def test_no_infer_limits(source, link, no_scheme):
    s2 = source.sigma2_x
    assert sp.mse_no_infer(source, link, no_scheme, eps_bar=1.0).value == pytest.approx(s2, abs=1e-15)
    E = math.exp(-2 * source.a * no_scheme.T)
    expected = s2 - (s2 * source.gamma_o * math.exp(-2 * source.a * link.tau)
                     * (1 - E) / (2 * source.a * no_scheme.T * (source.gamma_o + 1)))
    assert sp.mse_no_infer(source, link, no_scheme, eps_bar=0.0).value == pytest.approx(
        expected, rel=1e-14)


def test_syn_rejects_period_shorter_than_delay(source, field, link):
    bad = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.005, M=5, m=1)
    with pytest.raises(InvalidConfigError):
        sp.mse_syn_infer(source, field, link, bad)


def test_syn_approx_exact_under_equidistant_symmetry(link):
    r = 5.0
    ang = np.linspace(0, 2 * np.pi, 5, endpoint=False)[:4]
    pos = np.vstack([[0.0, 0.0], np.c_[r * np.cos(ang), r * np.sin(ang)]])
    f = sp.SensorField(positions=pos, target_index=1)
    src = sp.SourceParams(b=0.07)
    scheme = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.150, M=5, m=1)
    rho = sp.mssc(src, f)
    exact = sp.mse_syn_infer(src, f, link, scheme).value
    appr = sp.mse_syn_infer_approx(src, rho, link, scheme).value
    assert appr == pytest.approx(exact, abs=1e-14)


def test_syn_approx_mssc_zero_is_no_infer(source, link, syn_scheme, no_scheme):
    a = sp.mse_syn_infer_approx(source, 0.0, link, syn_scheme).value
    # with no usable neighbours the synchronous scheme sees a harsher
    # silence pattern (all M must fail to refresh), so compare against the
    # explicit M-sensor form with zero weights rather than the M=1 form
    f_far = sp.SensorField(
        positions=np.array([[0., 0.], [9e9, 0.], [0., 9e9], [-9e9, 0.], [0., -9e9]]),
        target_index=1)
    b = sp.mse_syn_infer(source, f_far, link, syn_scheme).value
    assert a == pytest.approx(b, rel=1e-12)


def test_syn_approx_gap_small_over_random_fields(source, link, syn_scheme):
    # frozen development maximum over these 100 fields was 0.957%
    worst = 0.0
    for seed in range(100):
        f = sp.place_sensors(5, 10.0, seed=seed)
        rho = sp.mssc(source, f)
        exact = sp.mse_syn_infer(source, f, link, syn_scheme).value
        appr = sp.mse_syn_infer_approx(source, rho, link, syn_scheme).value
        worst = max(worst, abs(appr - exact) / exact)
    assert worst < 0.02


# ---------------------------------------------------------------------------
# asynchronous closed form
# ---------------------------------------------------------------------------

def test_psi_collapses_at_h_equal_t_over_m(source):
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.030, M=5, m=1)
    q = math.exp(-2 * source.a * scheme.h)
    for eps in (0.0, 0.3, 0.8):
        psi = sp.psi_values(source, scheme, eps)
        assert np.allclose(psi, 1.0 - q, atol=1e-15)


def test_psi_at_eps_zero(source, asyn_scheme):
    a, h, T, M = source.a, asyn_scheme.h, asyn_scheme.T, asyn_scheme.M
    psi = sp.psi_values(source, asyn_scheme, 0.0)
    q = math.exp(-2 * a * h)
    assert np.allclose(psi[:-1], 1.0 - q, atol=1e-15)
    wrap = 1.0 - math.exp(-2 * a * (T - (M - 1) * h))
    assert psi[-1] == pytest.approx(wrap, rel=1e-12)


def test_asyn_eps_zero_matches_direct_weighting(source, field, link, asyn_scheme):
    # at eps = 0 the closed form must equal the all-success value:
    # last-slot sensor covers the wrap gap, everyone else covers one shift
    v = sp.mse_asyn_infer(source, field, link, asyn_scheme, eps_bar=0.0).value
    a, h, T, M = source.a, asyn_scheme.h, asyn_scheme.T, asyn_scheme.M
    w = field.target_factors(source.b, power=2.0)
    q = math.exp(-2 * a * h)
    alpha = (w[-1] * q * (1 - math.exp(-2 * a * (T - M * h)))
             + (1 - q) * w.sum())
    c = (source.sigma2_x * source.gamma_o * math.exp(-2 * source.a * link.tau)
         / (2 * source.a * T * (source.gamma_o + 1)))
    assert v == pytest.approx(source.sigma2_x - c * alpha, rel=1e-12)


def test_asyn_rejects_infeasible_shift(source, field, link):
    with pytest.raises(InvalidConfigError):
        bad = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.05, M=5, m=1)
        sp.mse_asyn_infer(source, field, link, bad)


def test_asyn_approx_exact_under_equidistant_symmetry(link):
    r = 5.0
    ang = np.linspace(0, 2 * np.pi, 5, endpoint=False)[:4]
    pos = np.vstack([[0.0, 0.0], np.c_[r * np.cos(ang), r * np.sin(ang)]])
    f = sp.SensorField(positions=pos, target_index=1)
    src = sp.SourceParams(b=0.07)
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.005, M=5, m=1)
    rho = sp.mssc(src, f)
    exact = sp.mse_asyn_infer(src, f, link, scheme).value
    appr = sp.mse_asyn_infer_approx(src, rho, link, scheme).value
    assert appr == pytest.approx(exact, abs=1e-14)


def test_asyn_approx_gap_small_over_random_fields(source, link, asyn_scheme):
    # frozen development maximum over these 100 fields was 0.717%
    worst = 0.0
    for seed in range(100):
        f = sp.place_sensors(5, 10.0, seed=seed)
        rho = sp.mssc(source, f)
        exact = sp.mse_asyn_infer(source, f, link, asyn_scheme).value
        appr = sp.mse_asyn_infer_approx(source, rho, link, asyn_scheme).value
        worst = max(worst, abs(appr - exact) / exact)
    assert worst < 0.02


# ---------------------------------------------------------------------------
# monotonicity and range properties
# ---------------------------------------------------------------------------

def test_syn_monotone_increasing_in_eps(source, field, link, syn_scheme):
    grid = np.linspace(0.0, 0.999, 200)
    vals = [sp.mse_syn_infer(source, field, link, syn_scheme, eps_bar=e).value
            for e in grid]
    assert np.all(np.diff(vals) >= -1e-12)


def test_mse_decreasing_in_single_spatial_factor(source, link, syn_scheme, asyn_scheme):
    # pulling one sensor closer (raising its weight) must lower both errors
    base = np.array([[0., 0.], [8., 0.], [0., 9.], [-7., 2.], [3., -8.]])
    closer = base.copy()
    closer[2] = [0., 5.]
    f0 = sp.SensorField(positions=base, target_index=1)
    f1 = sp.SensorField(positions=closer, target_index=1)
    assert (sp.mse_syn_infer(source, f1, link, syn_scheme).value
            < sp.mse_syn_infer(source, f0, link, syn_scheme).value)
    assert (sp.mse_asyn_infer(source, f1, link, asyn_scheme).value
            < sp.mse_asyn_infer(source, f0, link, asyn_scheme).value)


def test_mse_decreasing_in_mssc(source, link, syn_scheme, asyn_scheme):
    grid = np.linspace(0.0, 1.0, 60)
    syn_vals = [sp.mse_syn_infer_approx(source, r, link, syn_scheme).value for r in grid]
    asyn_vals = [sp.mse_asyn_infer_approx(source, r, link, asyn_scheme).value for r in grid]
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
        for v in (sp.mse_syn_infer(source, f, link, syn).value,
                  sp.mse_asyn_infer(source, f, link, asyn).value):
            assert 0.0 <= v <= source.sigma2_x


# ---------------------------------------------------------------------------
# eps-derivative, interior minimizer, shape classifier
# ---------------------------------------------------------------------------

def test_asyn_eps_derivative_matches_finite_difference(source, field, link, asyn_scheme):
    for eps in (0.05, 0.2, 0.5, 0.8, 0.95):
        d = 1e-6
        hi = sp.mse_asyn_infer(source, field, link, asyn_scheme, eps_bar=eps + d).value
        lo = sp.mse_asyn_infer(source, field, link, asyn_scheme, eps_bar=eps - d).value
        fd = (hi - lo) / (2 * d)
        ana = sp.dmse_asyn_deps(source, field, link, asyn_scheme, eps)
        assert ana == pytest.approx(fd, rel=1e-4)


def test_eps_star_finds_the_dip():
    src, f, scheme = dip_setup()
    link = sp.LinkParams.from_db()
    e_star, v_star = sp.eps_star_asyn(src, f, link, scheme)
    assert 0.0 < e_star < 1.0
    # stationary and lower than both endpoints
    assert abs(sp.dmse_asyn_deps(src, f, link, scheme, e_star)) < 1e-9
    v0 = sp.mse_asyn_infer(src, f, link, scheme, eps_bar=0.0).value
    assert v_star < v0


def test_eps_star_zero_when_monotone():
    src, f, scheme = monotone_setup()
    link = sp.LinkParams.from_db()
    e_star, v_star = sp.eps_star_asyn(src, f, link, scheme)
    assert e_star == 0.0


def _scalar_scan_eps_star(src, f, link, scheme, grid_size=512, tol=1e-10):
    """Reference: the grid scored one closed-form call per point."""
    grid = np.linspace(0.0, 1.0 - 1e-9, grid_size)
    vals = np.array([sp.mse_asyn_infer(src, f, link, scheme, eps_bar=e).value
                     for e in grid])
    k = int(np.argmin(vals))
    if k == 0:
        return 0.0, float(vals[0])
    dm = lambda e: sp.dmse_asyn_deps(src, f, link, scheme, e)
    lo, hi = grid[k - 1], grid[min(k + 1, grid_size - 1)]
    if dm(lo) < 0.0 < dm(hi):
        root = brentq(dm, lo, hi, xtol=tol)
        return root, sp.mse_asyn_infer(src, f, link, scheme, eps_bar=root).value
    return float(grid[k]), float(vals[k])


@pytest.mark.parametrize("setup", [dip_setup, monotone_setup])
def test_eps_star_matches_scalar_scan(setup):
    src, f, scheme = setup()
    link = sp.LinkParams.from_db()
    got = sp.eps_star_asyn(src, f, link, scheme)
    want = _scalar_scan_eps_star(src, f, link, scheme)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_upsilon_classifies_dip_then_rise():
    src, f, scheme = dip_setup()
    link = sp.LinkParams.from_db()
    ups = sp.upsilon(src, f, link, scheme)
    rho = sp.mssc(src, f)
    assert rho < ups
    grid = np.linspace(0.0, 0.999, 300)
    vals = [sp.mse_asyn_infer(src, f, link, scheme, eps_bar=e).value for e in grid]
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
    vals = [sp.mse_asyn_infer(src, f, link, scheme, eps_bar=e).value for e in grid]
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
    assert hi.value == pytest.approx(
        sp.mse_syn_infer(source, field, link, syn_scheme, eps_bar=1.0).value, abs=1e-12)
    assert lo.value == pytest.approx(
        sp.mse_syn_infer(source, field, link, syn_scheme, eps_bar=0.0).value, abs=1e-12)
    assert hi.value == pytest.approx(source.sigma2_x, abs=1e-15)

    lo2, hi2 = sp.bounds(source, field, link, syn_scheme, "spatial")
    assert hi2.value == pytest.approx(
        sp.mse_syn_infer_approx(source, 0.0, link, syn_scheme).value, abs=1e-12)
    assert lo2.value == pytest.approx(
        sp.mse_syn_infer_approx(source, 1.0, link, syn_scheme).value, abs=1e-12)


def test_asyn_bounds_limits_exact(source, field, link, asyn_scheme):
    lo, hi = sp.bounds(source, field, link, asyn_scheme, "blep")
    assert hi.value == pytest.approx(source.sigma2_x, abs=1e-15)
    lo2, hi2 = sp.bounds(source, field, link, asyn_scheme, "spatial")
    assert hi2.value == pytest.approx(
        sp.mse_asyn_infer_approx(source, 0.0, link, asyn_scheme).value, abs=1e-12)
    assert lo2.value == pytest.approx(
        sp.mse_asyn_infer_approx(source, 1.0, link, asyn_scheme).value, abs=1e-12)


def test_syn_spatial_gap_is_geometric_tail(source, field, link, syn_scheme):
    # upper - lower = beta * ((1 - eps^M)/(1 - eps) - 1) >= 0
    lo, hi = sp.bounds(source, field, link, syn_scheme, "spatial")
    eps = sp.blep_average(link)
    beta = hi.components["beta_syn"]
    M = syn_scheme.M
    gap = beta * ((1 - eps ** M) / (1 - eps) - 1.0)
    assert hi.value - lo.value == pytest.approx(gap, rel=1e-12)
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
            v = sp.average_mse(src, f, link, schm).value
            for axis in ("blep", "spatial"):
                lo, hi = sp.bounds(src, f, link, schm, axis)
                assert lo.value - 1e-9 <= v <= hi.value + 1e-9
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
    w = np.array([f.target_factors(b, power=2.0) for f, *_ in rows])
    fac = -np.sort(-w, axis=1)

    asyn = sp.ClosedForm(src, T, tau, M, h)
    syn = sp.ClosedForm(src, T, tau, M)
    got = {"asyn": asyn.mse(eps, w), "dasyn": asyn.dmse(eps, w),
           "syn": syn.mse(eps, fac), "no": sp.ClosedForm(src, T, tau, 1).mse(eps, [1.0])}
    psi, dpsi = asyn.psi(eps, deriv=True)
    close = lambda x, y: x == pytest.approx(y, rel=1e-12, abs=1e-12)
    for i, (f, link, hi, e) in enumerate(rows):
        s_asyn = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=T, h=hi, M=M, m=f.target_index)
        s_syn = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=T, M=M, m=f.target_index)
        s_no = sp.SchemeConfig(sp.Scheme.NO_INFER, T=T, M=1, m=1)
        assert close(got["asyn"][i], sp.mse_asyn_infer(src, f, link, s_asyn, e).value)
        assert close(got["dasyn"][i], sp.dmse_asyn_deps(src, f, link, s_asyn, e))
        assert close(got["syn"][i], sp.mse_syn_infer(src, f, link, s_syn, e).value)
        assert close(got["no"][i], sp.mse_no_infer(src, link, s_no, e).value)
        assert close(psi[i], sp.psi_values(src, s_asyn, e))
        assert close(dpsi[i], dpsi_deps(src, s_asyn, e))
        assert close(got["asyn"][i], _literal_mse(src, T, link.tau, e, w[i], hi))
        assert close(got["syn"][i], _literal_mse(src, T, link.tau, e, fac[i]))
