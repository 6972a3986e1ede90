import csv
import logging
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import sptrecon as sp
from sptrecon.blep import _lam
from sptrecon.errors import DomainError, InvalidConfigError

FIXTURES = Path(__file__).parent / "fixtures" / "blep_average_fixtures.csv"


def quadrature_average(link):
    """Independent oracle: numerically integrate the segmented model
    against the exponential fading density."""
    gbar = link.gamma_r_bar
    eta, lam = link.eta, link.lam
    u, w = eta + 1 / (2 * lam), eta - 1 / (2 * lam)

    def seg(g):
        if g < u:
            return 1.0
        if g > w:
            return 0.0
        return lam * (g - eta) + 0.5

    hi = max(60 * gbar, 4 * w)
    val, err = quad(lambda g: math.exp(-g / gbar) / gbar * seg(g), 0.0, hi,
                    points=[u, w], limit=400)
    assert err < 1e-9
    return val


def test_instantaneous_half_at_threshold(link):
    # capacity equals the coding rate exactly at gamma = e^{L/N} - 1
    assert sp.blep_instantaneous(link, link.eta) == pytest.approx(0.5, abs=1e-12)


def test_instantaneous_limits(link):
    assert sp.blep_instantaneous(link, 1e9) < 1e-12
    assert sp.blep_instantaneous(link, 1e-9) > 1.0 - 1e-12
    with pytest.raises(DomainError):
        sp.blep_instantaneous(link, 0.0)
    with pytest.raises(DomainError):
        sp.blep_instantaneous(link, -1.0)


def test_segmented_midpoint_and_knots(link):
    eta, lam = link.eta, link.lam
    assert sp.blep_segmented(link, eta) == pytest.approx(0.5, abs=1e-15)
    lo = eta + 1 / (2 * lam)
    hi = eta - 1 / (2 * lam)
    # continuity at both knots
    assert sp.blep_segmented(link, lo * (1 - 1e-9)) == pytest.approx(1.0, abs=1e-6)
    assert sp.blep_segmented(link, lo) == pytest.approx(1.0, abs=1e-12)
    assert sp.blep_segmented(link, hi) == pytest.approx(0.0, abs=1e-12)
    assert sp.blep_segmented(link, hi + 1e-9) == 0.0


def test_segmented_non_increasing(link):
    g = np.linspace(1e-3, 4 * link.eta, 2000)
    v = sp.blep_segmented(link, g)
    assert np.all(np.diff(v) <= 1e-15)
    assert np.all((v >= 0) & (v <= 1))


def test_segmented_matches_three_segment_reference(link):
    # the clipped linear segment against the nested 1 / linear / 0 form, on
    # a dense grid holding both knots and their floating-point neighbours
    for n in (link.N, 30, 400):
        ln = link.with_blocklength(n)
        eta, lam = ln.eta, float(ln.lam)
        lo, hi = eta + 1 / (2 * lam), eta - 1 / (2 * lam)
        knots = [lo, hi, eta]
        near = [np.nextafter(k, d) for k in knots for d in (0.0, np.inf)]
        g = np.sort(np.concatenate([np.linspace(1e-3, 2 * hi, 20_001), knots,
                                    near]))
        ref = np.where(g < lo, 1.0, np.where(g > hi, 0.0, lam * (g - eta) + 0.5))
        out = sp.blep_segmented(ln, g)
        assert np.max(np.abs(out - ref)) <= 2e-16
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert not np.shares_memory(out, g)
    assert isinstance(sp.blep_segmented(link, link.eta), float)
    assert isinstance(sp.blep_segmented(link, np.float64(link.eta)), float)


def test_segmented_close_to_q_form_on_band(link):
    # frozen observed maximum over [eta/2, 2 eta] was 0.1205
    g = np.linspace(link.eta / 2, 2 * link.eta, 4001)
    gap = np.max(np.abs(sp.blep_segmented(link, g) - sp.blep_instantaneous(link, g)))
    assert gap < 0.13


def test_average_matches_quadrature_oracle(link):
    assert sp.blep_average(link) == pytest.approx(quadrature_average(link), abs=1e-6)


def test_average_matches_frozen_fixtures():
    with open(FIXTURES, newline="") as fh:
        for row in csv.DictReader(fh):
            link = sp.LinkParams.from_db(
                L=float(row["L"]), N=int(row["N"]), T_s=float(row["T_s"]),
                gamma_r_bar_db=float(row["gamma_r_bar_db"]))
            assert sp.blep_average(link) == pytest.approx(
                float(row["eps_bar"]), abs=1e-6), row


def test_average_monte_carlo_oracle(link):
    rng = np.random.default_rng(12345)
    draws = rng.exponential(link.gamma_r_bar, 1_000_000)
    vals = sp.blep_segmented(link, draws)
    mc = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    assert abs(sp.blep_average(link) - mc) < 3.0 * se


def test_average_vanishes_at_high_snr():
    link = sp.LinkParams.from_db(gamma_r_bar_db=60.0)
    assert sp.blep_average(link) < 1e-3
    assert sp.blep_average_simplified(link) < 1e-3


def test_simplified_gap_documented(link):
    # frozen observed offset at the default link was 0.00995
    gap = abs(sp.blep_average_simplified(link) - sp.blep_average(link))
    assert gap < 0.012


def test_simplified_monotone_in_snr(link):
    dbs = np.linspace(-5, 30, 36)
    vals = [sp.blep_average_simplified(sp.LinkParams.from_db(gamma_r_bar_db=d))
            for d in dbs]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_average_monotone_decreasing_in_snr_and_n():
    dbs = np.linspace(-5, 30, 36)
    vals = [sp.blep_average(sp.LinkParams.from_db(gamma_r_bar_db=d)) for d in dbs]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    link = sp.LinkParams.from_db(gamma_r_bar_db=10.0)
    ns = np.arange(40, 2000, 20)
    ev = [sp.blep_average(link, N=float(n)) for n in ns]
    assert all(x >= y for x, y in zip(ev, ev[1:]))


def test_dblep_dn_negative_and_matches_finite_difference():
    link = sp.LinkParams.from_db()
    assert sp.dblep_dN(link) < 0.0
    for n in (60.0, 80.0, 120.0):
        step = 1e-3 * n
        fd = (sp.blep_average_simplified(link, N=n + step)
              - sp.blep_average_simplified(link, N=n - step)) / (2 * step)
        assert sp.dblep_dN(link, N=n) == pytest.approx(fd, rel=1e-4)


def test_dblep_dn_second_difference_positive():
    # convexity of the simplified form in N holds on the high-SNR fixture
    link = sp.LinkParams.from_db(gamma_r_bar_db=15.0)
    ns = np.linspace(40, 400, 100)
    vals = np.array([sp.blep_average_simplified(link, N=float(n)) for n in ns])
    assert np.all(np.diff(vals, 2) > 0)


def test_small_l_warns():
    link = sp.LinkParams(L=3.0, N=40)
    with pytest.warns(UserWarning):
        sp.dblep_dN(link)


@pytest.mark.parametrize("fn", [sp.blep_average, sp.blep_average_simplified,
                                sp.dblep_dN])
@pytest.mark.parametrize("db", [-14.5, 5.0, 15.0])
def test_blep_broadcasts_over_blocklength(fn, db):
    # an array N gives the per-element scalar values; a scalar N a float
    link = sp.LinkParams.from_db(gamma_r_bar_db=db)
    ns = np.arange(10, 1500)
    scalar = np.array([fn(link, N=int(n)) for n in ns])
    np.testing.assert_allclose(fn(link, N=ns), scalar, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(fn(link, N=ns.reshape(-1, 10)),
                               scalar.reshape(-1, 10), rtol=1e-15, atol=0.0)
    for n in (None, 80, 80.5, np.int64(80), np.float64(80.0)):
        assert type(fn(link, N=n)) is float


def test_blep_clamp_logs_one_count_per_call(caplog):
    # L < pi: the simplified exponent turns negative at long blocklengths,
    # where the average clamps to 0
    link = sp.LinkParams(L=3.0, N=40)
    ns = np.arange(10, 200)
    with caplog.at_level(logging.WARNING, logger="sptrecon.blep"):
        vals = sp.blep_average_simplified(link, N=ns)
    clamped = int(np.count_nonzero(vals == 0.0))
    assert 0 < clamped < ns.size
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    assert [r.getMessage() for r in caplog.records] == [
        f"blep_average_simplified clamped {clamped} value(s) to [0, 1]"]


def test_average_clips_a_negative_lower_knot_at_zero(caplog):
    # at L = 20, N = 1 the linear band would start below g = 0; the average
    # then integrates the linear segment from 0 instead of overflowing to a
    # perfect link.  N = 10 and 20 have a positive lower knot
    link = sp.LinkParams.from_db(L=20, N=1, gamma_r_bar_db=10 * math.log10(5))
    assert link.eta + 1 / (2 * link.lam) < 0.0
    gbar = link.gamma_r_bar
    ns = np.array([1, 10, 20])
    oracle = []
    for n in ns:
        lk = link.with_blocklength(int(n))
        lo, hi = lk.eta + 1 / (2 * lk.lam), lk.eta - 1 / (2 * lk.lam)
        val, err = quad(lambda g: math.exp(-g / gbar) / gbar
                        * sp.blep_segmented(lk, g), 0.0, 400.0,
                        points=[max(lo, 0.0), min(hi, 400.0)], limit=400)
        assert err < 1e-9
        oracle.append(val)
    with caplog.at_level(logging.WARNING, logger="sptrecon.blep"):
        with np.errstate(over="raise", invalid="raise"):
            scalar = sp.blep_average(link)
            vals = sp.blep_average(link, N=ns)
    assert caplog.records == []
    assert scalar == pytest.approx(0.898942275467744, rel=1e-12)
    np.testing.assert_allclose(vals, oracle, rtol=1e-9, atol=0.0)
    assert vals[0] == scalar
    # where exp(2L/N) overflows, lam underflows to -0 and the knot to -inf;
    # F(0) -> 1/2 + 1/sqrt(2 pi) at N = 1 all the same
    with np.errstate(over="ignore", divide="ignore"):
        far = sp.blep_average(sp.LinkParams(L=400, N=1, gamma_r_bar=gbar))
    assert far == pytest.approx(0.5 + 1 / math.sqrt(2 * math.pi), rel=1e-12)
    # the positive-knot entries keep the unclipped closed form bit for bit
    for n, v in zip(ns[1:], vals[1:]):
        lk = link.with_blocklength(int(n))
        lo, hi = lk.eta + 1 / (2 * lk.lam), lk.eta - 1 / (2 * lk.lam)
        assert lo > 0.0
        assert v == 1 + gbar * lk.lam * (np.exp(-lo / gbar) - np.exp(-hi / gbar))


@pytest.mark.parametrize("L", [400.0, 800.0])
def test_segmented_past_exp_overflow_is_the_segment_from_zero(L, caplog):
    # exp(2L/N) overflows at N = 1 (and exp(L/N) too at L = 800): lam stays
    # finite or underflows to -0, the lower knot is negative, and the segment
    # is F(0) = 1/2 + 1/sqrt(2 pi) up to a negligible lam g
    link = sp.LinkParams(L=L, N=1)
    f0 = 0.5 + 1.0 / math.sqrt(2.0 * math.pi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = sp.blep_segmented(link, np.array([0.1, 1.0, 1e6]))
        scalar = sp.blep_segmented(link, 1.0)
        lam = link.lam
    assert vals.tolist() == pytest.approx([f0] * 3, rel=1e-15)
    assert scalar == vals[1]
    assert lam <= 0.0 and math.isfinite(lam)
    assert caplog.records == []


def test_lam_and_average_mix_overflowing_and_plain_blocklengths(caplog):
    # at L = 400 exp(2L/N) overflows for N = 1 only; the other entries keep
    # the plain slope bit for bit, and nothing warns
    link = sp.LinkParams(L=400.0, N=1)
    ns = np.array([1, 2, 3, 80])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = link.lam
        lams = _lam(400.0, ns.astype(float))
        avg = sp.blep_average(link, N=ns)
    stable = -math.sqrt(1 / (2 * math.pi)) * math.exp(-400.0) / math.sqrt(
        -math.expm1(-800.0))
    assert lam == pytest.approx(stable, rel=1e-15) and lam < 0.0
    assert lams[0] == lam
    for n, v in zip(ns[1:].tolist(), lams[1:].tolist()):
        assert v == -np.sqrt(n / (2.0 * np.pi * (np.exp(2.0 * 400.0 / n) - 1.0)))
    assert avg[0] == pytest.approx(0.5 + 1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)
    for n, v in zip(ns[1:].tolist(), avg[1:].tolist()):
        assert v == sp.blep_average(link, N=n)
    assert caplog.records == []


@pytest.mark.parametrize("L, N", [(800.0, 1), (720.0, 1), (1440.0, 2)])
def test_average_past_exp_overflow_is_the_segment_value(L, N, caplog):
    # exp(L/N) overflows: the band starts at g = 0 when F(0) < 1 (N = 1,
    # F(0) = 1/2 + 1/sqrt(2 pi)) and the average is F(0) up to a negligible
    # lam term, as the segmented form is; with F(0) >= 1 (N = 2) the link
    # fails at every SNR that matters and the average is 1
    link = sp.LinkParams(L=L, N=N)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        avg = sp.blep_average(link)
        mixed = sp.blep_average(link, N=np.array([N, 80]))
        seg = sp.blep_segmented(link, 1.0)
    assert avg == pytest.approx(seg, rel=1e-15)
    assert avg == pytest.approx(0.5 + 1 / math.sqrt(2 * math.pi) if N == 1 else 1.0,
                                rel=1e-15)
    assert mixed[0] == avg
    # N = 80 is in the plain range and keeps the closed form bit for bit
    lk = link.with_blocklength(80)
    lo, hi = lk.eta + 1 / (2 * lk.lam), lk.eta - 1 / (2 * lk.lam)
    gbar = link.gamma_r_bar
    assert mixed[1] == 1 + gbar * lk.lam * (np.exp(-lo / gbar) - np.exp(-hi / gbar))
    assert caplog.records == []


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("name", ["L", "N", "T_s", "gamma_r_bar"])
def test_link_rejects_non_finite_values(name, value):
    # an infinite L or T_s would only fail deep in a closed form, and
    # int(inf) would raise a bare OverflowError
    with pytest.raises(InvalidConfigError, match=rf"^{name} must"):
        sp.LinkParams(**{name: value})
