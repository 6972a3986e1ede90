import csv
import logging
import math
import warnings
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import sptrecon as sp
from sptrecon.blep import _lam, _segment
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


def test_q_function_matches_scipy_erfc():
    from scipy.special import erfc

    x = np.linspace(-10.0, 30.0, 4001)
    want = 0.5 * erfc(x / np.sqrt(2.0))
    got = sp.blep.q_function(x)
    assert got.dtype == np.float64 and got.shape == x.shape
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    assert float(sp.blep.q_function(1.5)) == pytest.approx(0.5 * erfc(1.5 / np.sqrt(2.0)),
                                                         rel=1e-13)


def test_instantaneous_limits(link):
    assert sp.blep_instantaneous(link, 1e9) < 1e-12
    assert sp.blep_instantaneous(link, 1e-9) > 1.0 - 1e-12
    with pytest.raises(DomainError):
        sp.blep_instantaneous(link, 0.0)
    with pytest.raises(DomainError):
        sp.blep_instantaneous(link, -1.0)


@pytest.mark.parametrize("fn", [sp.blep_instantaneous, sp.blep_segmented])
def test_instantaneous_snr_must_be_positive_and_not_nan(fn, link):
    # NaN fails the positivity check as 0 and -1 do; an empty array is no
    # violation, and an infinite SNR decodes surely
    for bad in (np.nan, [1.0, np.nan], 0.0, [2.0, -1.0]):
        with pytest.raises(DomainError, match="must be > 0"):
            fn(link, bad)
    assert fn(link, np.array([])).shape == (0,)
    assert fn(link, np.inf) == 0.0
    assert fn(link, [np.inf, link.eta]).tolist() == [0.0, fn(link, link.eta)]


def test_segmented_is_zero_at_an_infinite_snr_on_every_link(link):
    # the eta form (the fixture link), the F(0) form (L = N = 1) and the
    # F(0) form past exp overflow, where lam underflows to -0.0 and
    # inf * lam would be NaN with a RuntimeWarning: each gives 0 at an
    # infinite SNR, its unclipped segment -inf, so an oracle draw of inf
    # succeeds, and the value at a finite SNR is the same in both calls
    assert sp.LinkParams(L=1000.0, N=1).lam == 0.0
    f0 = 0.5 + 1.0 / math.sqrt(2.0 * math.pi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lk in (link, sp.LinkParams(L=1.0, N=1), sp.LinkParams(L=1000.0, N=1),
                   sp.LinkParams(L=1e300, N=1)):
            assert sp.blep_segmented(lk, [1.0, np.inf]).tolist() == [
                sp.blep_segmented(lk, 1.0), 0.0]
            assert sp.blep_segmented(lk, np.inf) == 0.0
            assert _segment(lk)(np.array([np.inf]), np.empty(1)).tolist() == [-np.inf]
        assert sp.blep_segmented(sp.LinkParams(L=1000.0, N=1), 1.0) == pytest.approx(
            f0, rel=1e-15)


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


@pytest.mark.parametrize("L, N, gbar", [
    (800.0, 1, 10 ** 0.5), (720.0, 1, 10 ** 0.5), (1440.0, 2, 10 ** 0.5),
    (800.0, 1, 1e300), (1e300, 1, 1e300),
], ids=["800.0-1", "720.0-1", "1440.0-2", "800.0-1-1e300", "1e300-1-1e300"])
def test_average_past_exp_overflow_is_the_segment_value(L, N, gbar, caplog):
    # exp(L/N) overflows: the band starts at g = 0 when F(0) < 1 (N = 1,
    # F(0) = 1/2 + 1/sqrt(2 pi)) and the average is F(0) up to the lam term
    # at the true N, as the segmented form is, even at a huge SNR (lam was
    # taken at N = L/700, and L = 1e300 gave 0); with F(0) >= 1 (N = 2) the
    # link fails at every SNR that matters and the average is 1
    link = sp.LinkParams(L=L, N=N, gamma_r_bar=gbar)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        avg = sp.blep_average(link)
        mixed = sp.blep_average(link, N=np.array([N, 80]))
        seg = sp.blep_segmented(link, 1.0)
    f0 = 0.5 + 1 / math.sqrt(2 * math.pi)
    assert avg == pytest.approx(seg, rel=1e-15)
    assert avg == pytest.approx(f0 if N == 1 else 1.0, rel=1e-15)
    assert mixed[0] == avg
    assert mixed[1] == sp.blep_average(link, N=80)
    if L / 80 <= 700:
        # N = 80 is in the plain range and keeps the closed form bit for bit
        lk = link.with_blocklength(80)
        lo, hi = lk.eta + 1 / (2 * lk.lam), lk.eta - 1 / (2 * lk.lam)
        assert mixed[1] == 1 + gbar * lk.lam * (np.exp(-lo / gbar) - np.exp(-hi / gbar))
    # at L/N = 700 the lam term is still in the value: 0.8989029 at gbar = 1e300
    edge = sp.LinkParams(L=700.0 * N, N=N, gamma_r_bar=gbar)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        edge_avg = sp.blep_average(edge)
    assert edge_avg == pytest.approx(f0 + gbar * edge.lam if N == 1 else 1.0, rel=1e-15)
    assert caplog.records == []


def test_simplified_past_exp_overflow_is_one(caplog):
    # exp(L/N) overflowed past L/N = 709.78; the exponent is taken at
    # N = L/700 there, so the model is exactly 1 with no warning, and a
    # blocklength in the plain range keeps its value bit for bit
    link = sp.LinkParams(L=800.0, N=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = sp.blep_average_simplified(link)
        mixed = sp.blep_average_simplified(link, N=np.array([1, 80]))
    assert one == 1.0 and mixed[0] == 1.0
    plain = 1.0 - np.exp(-(np.exp(10.0) - 1.0 - math.sqrt(math.pi * 800.0) / 80.0)
                         / link.gamma_r_bar)
    assert mixed[1] == plain == sp.blep_average_simplified(link, N=80)
    assert caplog.records == []


def _dblep_dn_direct(link, n):
    """dblep_dN as one expression, (sqrt(pi L) - L exp(L/N)) times the
    decay over gbar N^2: the form used wherever L exp(L/N) is finite."""
    gbar = link.gamma_r_bar
    with np.errstate(over="ignore", invalid="ignore"):
        return ((math.sqrt(math.pi * link.L) - link.L * np.exp(link.L / n))
                * np.exp(-sp.blep._simplified_exponent(link, n) / gbar) / (gbar * n * n))


def _dblep_dn_reference(L, N, gbar):
    """The derivative at the true N in 60-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        L, N, gbar = Decimal(L), Decimal(N), Decimal(gbar)
        root = (Decimal(math.pi) * L).sqrt()
        decay = (-((L / N).exp() - 1 - root / N) / gbar).exp()
        return float((root - L * (L / N).exp()) * decay / (gbar * N * N))


@pytest.mark.parametrize("L, N", [(709.0, 1), (800.0, 1), (1e6, 10)])
def test_dblep_dn_past_exp_overflow_is_zero(L, N):
    # L exp(L/N) overflowed (at L = 709 in the product, past L/N = 709.78 in
    # exp) and the product with a decay of 0 was NaN; the true value
    # underflows to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sp.dblep_dN(sp.LinkParams(L=L, N=N)) == 0.0


@pytest.mark.parametrize("gbar, ns", [(10 ** 0.5, np.linspace(1.0, 1.5, 11)),
                                       (1e308, np.linspace(1.0, 1.03, 7))],
                         ids=["5dB", "huge-snr"])
def test_dblep_dn_across_the_overflow_threshold(gbar, ns):
    # L exp(L/N) reaches 1.8e308 at N = 1.14 (L = 800) and 1.0125 (L = 712):
    # no such product is formed, so at 5 dB every blocklength where the
    # one-expression form is finite keeps its value bit for bit, and the
    # others take the true value.  A link above 1e300, as the 712-bit one at
    # 1e308 (about 3,080 dB), is refused: the L/N > 700 clamp is wrong there
    if gbar > 1e300:
        with pytest.raises(InvalidConfigError, match=r"^gamma_r_bar must"):
            sp.LinkParams(L=712.0, N=1, gamma_r_bar=gbar)
        return
    link = sp.LinkParams(L=800.0, N=1, gamma_r_bar=gbar)
    direct = _dblep_dn_direct(link, ns)
    plain = np.isfinite(direct)
    assert 0 < plain.sum() < len(ns)  # the array straddles the threshold
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = sp.dblep_dN(link, ns)
        scalars = [sp.dblep_dN(link, float(n)) for n in ns]
    assert np.array_equal(vals[plain].view(np.int64), direct[plain].view(np.int64))
    assert np.array_equal(np.array(scalars).view(np.int64), vals.view(np.int64))
    ref = [_dblep_dn_reference(link.L, float(n), gbar) for n in ns[~plain]]
    np.testing.assert_allclose(vals[~plain], ref, rtol=1e-12, atol=0.0)
    assert (vals[~plain] == 0).all()


def test_dblep_dn_just_under_the_largest_float_is_the_true_value():
    # L exp(L/N) = exp(709.781) is finite; at the largest admitted SNR the
    # one-expression form holds there and its decay underflows to the true
    # value, 0.  The 1e308 link this test once ran at, where that decay was
    # 0.2% off, is refused
    with pytest.raises(InvalidConfigError, match=r"^gamma_r_bar must"):
        sp.LinkParams(L=712.0, N=1, gamma_r_bar=1e308)
    link = sp.LinkParams(L=712.0, N=1, gamma_r_bar=1e300)
    n = 712.0 / (709.781 - math.log(712.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = sp.dblep_dN(link, n)
    direct = _dblep_dn_direct(link, np.array(n))
    assert np.isfinite(direct)
    assert val == direct == _dblep_dn_reference(712.0, n, 1e300) == 0.0


@pytest.mark.parametrize("make", [
    lambda: sp.LinkParams(L=712.0, N=1, gamma_r_bar=1e308),
    lambda: sp.LinkParams(L=705.0, N=1, gamma_r_bar=1e304),
    lambda: sp.LinkParams(N=1, gamma_r_bar=np.nextafter(1e300, math.inf)),
    lambda: sp.LinkParams.from_db(gamma_r_bar_db=3000.0001),
    lambda: sp.LinkParams.from_db(gamma_r_bar_db=3083.0),
    lambda: sp.LinkParams.from_db(gamma_r_bar_db=math.inf),
], ids=["1e308", "1e304", "above-1e300", "3000.0001dB", "3083dB", "inf-dB"])
def test_link_rejects_an_snr_above_1e300(make):
    # past about 1e302 the L/N > 700 clamp of the average-BLEP models is
    # wrong with no error (the simplified BLEP read 0.637 at L = 705, N = 1
    # and 1e304, where the model is 1.0); in dB the message names the key
    with pytest.raises(InvalidConfigError, match=r"^gamma_r_bar(_db)? must"):
        make()


def test_link_keeps_an_exact_clamp_at_1e300():
    # at 3000 dB = 1e300 the clamped exponent, about 1e304, gives the model
    # exactly 1 and its slope exactly 0, as at the true N
    link = sp.LinkParams.from_db(L=705.0, N=1, gamma_r_bar_db=3000.0)
    assert link.gamma_r_bar == 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sp.blep_average_simplified(link) == 1.0
        assert sp.dblep_dN(link) == 0.0


def test_dblep_dn_matches_the_decimal_reference_over_the_domain():
    # a seeded sample with L in [10, 1e300], N in [1, 1e15], L/N <= 700 and
    # gbar in [1e-3, 1e300], log-uniform.  The bound is the formula's
    # conditioning in u = L/N: the rounding of u and of exp(u) moves X/gbar
    # by eps (1 + u) exp(u)/gbar, and the slope (sqrt(pi L) - L exp(u))/N^2
    # by eps (1 + u) kappa, kappa its cancellation factor.  A value whose
    # decay exp(-X/gbar) or result is below the normal range holds only
    # that range's absolute precision.  Where gbar N^2 overflowed, the value
    # read -0.0
    rng = np.random.default_rng(2024)
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    checked = 0
    while checked < 2000:
        L, N = 10 ** rng.uniform(1.0, 300.0), 10 ** rng.uniform(0.0, 15.0)
        if L / N > 700:
            continue
        gbar, u = 10 ** rng.uniform(-3.0, 300.0), L / N
        checked += 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = sp.dblep_dN(sp.LinkParams(L=L, N=1, gamma_r_bar=gbar), N)
        ref = _dblep_dn_reference(L, N, gbar)
        q = math.sqrt(math.pi / L) * math.exp(-u)  # sqrt(pi L) / (L exp(u))
        kappa = (1 + q) / (1 - q)
        bound = 4 * eps * (1 + u) * (kappa + math.exp(u) / gbar)
        decay = math.exp(-(math.expm1(u) - math.sqrt(math.pi * L) / N) / gbar)
        if abs(ref) >= tiny and decay >= tiny:
            assert abs(val - ref) <= bound * abs(ref), (L, N, gbar, val, ref)
        else:
            assert abs(val - ref) <= bound * tiny, (L, N, gbar, val, ref)


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("name", ["L", "N", "T_s", "gamma_r_bar"])
def test_link_rejects_non_finite_values(name, value):
    # an infinite L or T_s would only fail deep in a closed form, and
    # int(inf) would raise a bare OverflowError
    with pytest.raises(InvalidConfigError, match=rf"^{name} must"):
        sp.LinkParams(**{name: value})


def test_link_bounds_l_where_every_blep_model_stays_finite(caplog):
    # past about 5.7e307, pi L overflowed and the simplified BLEP took a
    # -inf exponent, clamped to 0.0 with a log line where the average BLEP
    # is 1.0
    for L in (5.8e307, np.nextafter(1e300, math.inf), np.finfo(float).max):
        with pytest.raises(InvalidConfigError, match=r"^L must be in \(0, 1e300\]"):
            sp.LinkParams(L=L, N=80)
    link = sp.LinkParams(L=1e300, N=80)
    N = np.array([1.0, 1.5, 2.0, 80.0, 1e3, 1e10, 1e100, 1e150])
    models = (sp.blep_average, sp.blep_average_simplified, sp.dblep_dN)
    with warnings.catch_warnings(), caplog.at_level(logging.WARNING, "sptrecon.blep"):
        warnings.simplefilter("error")
        avg, simple, slope = (f(link, N=N) for f in models)
        for j, n in enumerate(N.tolist()):
            assert [f(link, N=n) for f in models] == [avg[j], simple[j], slope[j]]
    assert not caplog.records
    assert np.all((avg >= 0.0) & (avg <= 1.0))
    # eta is taken at exp(700) = 1e304, far above the SNR: saturated
    assert avg[N >= 2.0].tolist() == [1.0] * 6 and simple.tolist() == [1.0] * 8
    assert np.all(np.isfinite(slope) & (slope <= 0.0))
