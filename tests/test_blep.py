import csv
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import sptrecon as sp
from sptrecon.errors import DomainError

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
