import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sptrecon as sp
from sptrecon import regions
from sptrecon.errors import InvalidConfigError, RegionDegenerateError
from sptrecon.experiments import load_spec, parse_spec


def as_kind(scheme, kind):
    """The same config under another scheme tag."""
    return replace(scheme, scheme=kind)


def test_thr1_formula_value(source, link):
    # E = 0.5, eps = 0.3: E(1-eps)/(1 - E eps) = 0.35/0.85 = 7/17
    T = math.log(2.0) / (2.0 * source.a)      # makes exp(-2aT) = 0.5 exactly
    scheme = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=T, M=5, m=1)
    thr = sp.threshold_infer(source, link, scheme, eps_bar=0.3)
    assert thr == pytest.approx(7.0 / 17.0, abs=1e-15)


def test_thr1_saturates_to_temporal_correlation(source, link, syn_scheme):
    E = math.exp(-2.0 * source.a * syn_scheme.T)
    assert sp.threshold_infer(source, link, syn_scheme, eps_bar=0.0) == pytest.approx(
        E, abs=1e-15)
    for eps in np.linspace(0.0, 0.999, 40):
        assert sp.threshold_infer(source, link, syn_scheme, eps_bar=eps) <= E + 1e-15


def test_thr1_monotone_decreasing_in_eps(source, link, syn_scheme):
    grid = np.linspace(0.0, 0.999, 100)
    vals = [sp.threshold_infer(source, link, syn_scheme, eps_bar=e) for e in grid]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_gain_exceeds_one_iff_above_thr1(source, link, asyn_scheme):
    thr1 = sp.threshold_infer(source, link, asyn_scheme)
    no = sp.average_mse(source, None, link, as_kind(asyn_scheme, "no-infer"))
    syn = as_kind(asyn_scheme, "syn-infer")
    below = no / sp.average_mse(source, None, link, syn, mssc_value=thr1 * 0.98)
    above = no / sp.average_mse(source, None, link, syn, mssc_value=thr1 * 1.02)
    assert below < 1.0 < above


def test_thr2_equalizes_the_approximations(source, link, asyn_scheme):
    thr2 = sp.threshold_asyn_over_syn(source, link, asyn_scheme)
    syn = as_kind(asyn_scheme, "syn-infer")
    syn_v = sp.average_mse(source, None, link, syn, mssc_value=thr2)
    asyn_v = sp.average_mse(source, None, link, asyn_scheme, mssc_value=thr2)
    assert abs(syn_v - asyn_v) < 1e-9


def test_thr2_two_sided_probe(source, link, asyn_scheme):
    thr2 = sp.threshold_asyn_over_syn(source, link, asyn_scheme)
    for delta, asyn_wins in ((-1e-3, False), (1e-3, True)):
        rho = thr2 + delta
        syn_v = sp.average_mse(source, None, link, as_kind(asyn_scheme, "syn-infer"),
                               mssc_value=rho)
        asyn_v = sp.average_mse(source, None, link, asyn_scheme, mssc_value=rho)
        assert (asyn_v < syn_v) == asyn_wins


def test_thr2_above_thr1_at_defaults(source, link, asyn_scheme):
    thr1 = sp.threshold_infer(source, link, asyn_scheme)
    thr2 = sp.threshold_asyn_over_syn(source, link, asyn_scheme)
    assert thr2 > thr1


def test_classify_boundaries(source, link, asyn_scheme):
    th = (0.2, 0.7)
    assert sp.classify(0.2, *th) is sp.Scheme.NO_INFER      # inclusive at thr1
    assert sp.classify(0.21, *th) is sp.Scheme.SYN_INFER
    assert sp.classify(0.7, *th) is sp.Scheme.ASYN_INFER    # inclusive at thr2
    assert sp.classify(0.05, *th) is sp.Scheme.NO_INFER
    assert sp.classify(0.99, *th) is sp.Scheme.ASYN_INFER


def test_classify_rejects_inverted_thresholds():
    with pytest.raises(RegionDegenerateError):
        sp.classify(0.5, 0.8, 0.3)


def test_classify_agrees_with_oracle_away_from_boundaries(source, link, asyn_scheme):
    thr1 = sp.threshold_infer(source, link, asyn_scheme)
    thr2 = sp.threshold_asyn_over_syn(source, link, asyn_scheme)
    grid = np.linspace(0.005, 1.0, 200)
    oracle = dict(sp.exhaustive_region_oracle(source, link, asyn_scheme, grid))
    step = grid[1] - grid[0]
    for rho, winner in oracle.items():
        if min(abs(rho - thr1), abs(rho - thr2)) < step:
            continue  # cells straddling a threshold are allowed to differ
        assert sp.classify(rho, thr1, thr2) is winner, rho


def test_oracle_shows_three_regions_at_defaults(source, link, asyn_scheme):
    grid = np.linspace(0.005, 1.0, 200)
    oracle = sp.exhaustive_region_oracle(source, link, asyn_scheme, grid)
    runs = [k for k, _ in itertools.groupby(w.value for _, w in oracle)]
    assert runs == ["no-infer", "syn-infer", "asyn-infer"]


def test_oracle_single_region_for_tiny_period(source):
    # very short period: the squared temporal correlation stays near one,
    # nothing beats using your own fresh-enough data
    link = sp.LinkParams.from_db(N=10)
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.002, h=0.0001, M=5, m=1)
    grid = np.linspace(0.005, 0.95, 100)
    oracle = sp.exhaustive_region_oracle(source, link, scheme, grid, eps_bar=0.05)
    assert {w for _, w in oracle} == {sp.Scheme.NO_INFER}


def test_region_report_consistency(source, link, asyn_scheme):
    # thresholds, winner and gain ratios at one MSSC from the public calls
    thr1 = sp.threshold_infer(source, link, asyn_scheme)
    thr2 = sp.threshold_asyn_over_syn(source, link, asyn_scheme)

    def gains(rho):
        no, syn, asyn = (sp.average_mse(source, None, link, as_kind(asyn_scheme, kind),
                                        mssc_value=rho)
                         for kind in ("no-infer", "syn-infer", "asyn-infer"))
        return no / syn, syn / asyn

    gain_infer, gain_asyn_over_syn = gains(0.5)
    assert thr1 < 0.5 < thr2
    assert sp.classify(0.5, thr1, thr2) is sp.Scheme.SYN_INFER
    assert gain_infer > 1.0
    assert gain_asyn_over_syn < 1.0

    assert sp.classify(0.99, thr1, thr2) is sp.Scheme.ASYN_INFER
    assert gains(0.99)[1] > 1.0


# (threshold, T, h, message): the link's tau = N T_s = 8 ms and T_s = 0.1 ms
@pytest.mark.parametrize("threshold, T, h, message", [
    pytest.param("threshold_infer", 0.008, 0.001, "packet delay", id="thr1-T=tau"),
    pytest.param("threshold_asyn_over_syn", 0.008, 0.001, "packet delay",
                 id="thr2-T=tau"),
    pytest.param("threshold_asyn_over_syn", 0.02, 0.005, "feasible band",
                 id="thr2-shifts-past-T"),  # 4 h + tau > T
    pytest.param("threshold_asyn_over_syn", 0.15, 5e-5, "feasible band",
                 id="thr2-h-below-T_s"),
])
def test_thresholds_follow_the_timing_rule(source, link, threshold, T, h, message):
    # each threshold rejects the configs its closed forms reject
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=T, h=h, M=5, m=1)
    with pytest.raises(InvalidConfigError, match=message):
        getattr(sp, threshold)(source, link, scheme)
    with pytest.raises(InvalidConfigError, match=message):
        sp.average_mse(source, None, link, scheme, mssc_value=0.5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=st.floats(0.1, 5.0), T=st.floats(0.05, 0.5), eps=st.floats(0.0, 1.0))
def test_thr1_never_exceeds_temporal_correlation(a, T, eps):
    # inference can pay even below the squared temporal correlation
    src = sp.SourceParams(a=a)
    scheme = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=T, M=5, m=1)
    link = sp.LinkParams.from_db()
    assert sp.threshold_infer(src, link, scheme, eps_bar=eps) <= math.exp(-2.0 * a * T)


# eps stays off both ends: at eps = 0 the synchronous and no-inference
# errors are equal for every MSSC, and below about 1e-11 or above about
# 1 - 1e-6 the errors the oracle compares differ by less than rounding
@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=st.floats(0.1, 5.0), T=st.floats(0.05, 0.5), M=st.integers(2, 7),
       N=st.integers(10, 300), h_frac=st.floats(0.0, 1.0),
       eps=st.floats(1e-6, 1.0 - 1e-4))
def test_thresholds_match_oracle_on_random_configs(a, T, M, N, h_frac, eps):
    src = sp.SourceParams(a=a)
    link = sp.LinkParams.from_db(N=N)
    h_max = (T - link.tau) / (M - 1)
    h = link.T_s + h_frac * (h_max - link.T_s)
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=T, h=h, M=M, m=1)
    grid = np.linspace(0.0, 1.0, 101)
    oracle = [w for _, w in sp.exhaustive_region_oracle(src, link, scheme, grid,
                                                        eps_bar=eps)]
    thr1 = sp.threshold_infer(src, link, scheme, eps_bar=eps)
    try:
        thr2 = sp.threshold_asyn_over_syn(src, link, scheme, eps_bar=eps)
        winners = [sp.classify(rho, thr1, thr2) for rho in grid]
    except RegionDegenerateError:
        return  # no finite crossover, or thresholds out of order
    assert winners == oracle


def test_oracle_scores_each_scheme_in_one_call(monkeypatch, source, link, asyn_scheme):
    calls = []
    real = regions.average_mse
    monkeypatch.setattr(regions, "average_mse",
                        lambda *a, **k: calls.append(a[3].scheme) or real(*a, **k))
    grid = np.linspace(0.0, 1.0, 101)
    oracle = sp.exhaustive_region_oracle(source, link, asyn_scheme, grid)
    order = [sp.Scheme.NO_INFER, sp.Scheme.SYN_INFER, sp.Scheme.ASYN_INFER]
    assert calls == order
    for rho, winner in oracle:
        vals = [sp.average_mse(source, None, link, as_kind(asyn_scheme, kind),
                               mssc_value=rho)
                for kind in order]
        assert winner is order[int(np.argmin(vals))]  # ties keep this order


def _mssc_entry_points(source, field, link, asyn_scheme, rho):
    """Every way an MSSC value enters the package, as (the name its error
    gives it, the call): the weight rule and the closed forms under each
    scheme tag, alone and inside an array, the region oracle, and a swept
    config."""
    for kind in sp.Scheme:
        scheme = as_kind(asyn_scheme, kind)
        yield "MSSC", lambda: sp.scheme_weights(source, field, scheme, rho)
        yield "MSSC", lambda: sp.average_mse(source, None, link, scheme, mssc_value=rho)
        yield "MSSC", lambda: sp.average_mse(source, None, link, scheme,
                                             mssc_value=[0.5, rho])
    yield "MSSC", lambda: sp.exhaustive_region_oracle(source, link, asyn_scheme, [0.5, rho])
    text = load_spec("regions_vs_period").raw_text
    old = "mssc = linspace:0.02:1.0:50"
    assert old in text
    yield "sweep axis mssc", lambda: parse_spec(text.replace(old, f"mssc = 0.5, {rho}"))


@pytest.mark.parametrize("rho", [-0.5, 1.5, math.nan])
def test_an_mssc_outside_the_unit_interval_fails_everywhere(source, field, link,
                                                            asyn_scheme, rho):
    # outside [0, 1] the closed forms return numbers past their own bounds
    # (1.046 sigma2 at -0.5) and the oracle ranks NaN as a winner
    for what, call in _mssc_entry_points(source, field, link, asyn_scheme, rho):
        with pytest.raises(InvalidConfigError,
                           match=rf"^{what} takes values in \[0, 1\], got {rho}$"):
            call()


@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_an_mssc_at_either_end_of_the_unit_interval_runs(source, field, link,
                                                        asyn_scheme, rho):
    for _, call in _mssc_entry_points(source, field, link, asyn_scheme, rho):
        call()
