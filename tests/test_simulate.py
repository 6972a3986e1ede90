import csv
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import sptrecon as sp
from sptrecon import experiments, simulate
from sptrecon.errors import _SCALE_LIMITS, InvalidConfigError, ScaleLimitError

PERIODS = 30_000  # module-level runs; the acceptance suite uses 100k


def _at_snr(link, gamma_r_bar):
    """The link at mean SNR ``gamma_r_bar``.  The fixture link's segment is
    about 3.61 - 0.487 g: at 1e300 it is below 0 unless a unit exponential
    draw is below 1e-299, so every packet gets through, and at 1e-300 it is
    above 1, so every packet fails, as at failure probabilities 0 and 1."""
    return dataclasses.replace(link, gamma_r_bar=gamma_r_bar)


def _attempts(rep):
    """A traced run's packet attempts as (period, sensor, t_start_s, gamma_r,
    success) tuples, sensor by sensor, then period by period."""
    trace = rep.aux["trace"]
    return list(zip(*(trace[c].tolist() for c in
                      ("period", "sensor", "t_start_s", "gamma_r", "success"))))


def test_forced_success_single_sensor_exact(source, link, no_scheme):
    f1 = sp.SensorField(positions=np.array([[0.0, 0.0]]), target_index=1)
    rep = sp.simulate_event_level(source, f1, _at_snr(link, 1e300), no_scheme,
                                  periods=2_000, seed=1)
    ana = sp.average_mse(source, None, link, no_scheme, eps_bar=0.0)
    # per-interval integration is closed form, so this is exact
    assert rep.avg_mse == pytest.approx(ana, abs=1e-9)


def test_event_level_matches_syn_closed_form(source, field, link, syn_scheme):
    rep = sp.simulate_event_level(source, field, link, syn_scheme, PERIODS, seed=3)
    ana = sp.average_mse(source, field, link, syn_scheme)
    assert abs(rep.avg_mse - ana) < 3.0 * rep.stderr
    assert rep.stderr > 0


def test_event_level_matches_asyn_closed_form(source, field, link, asyn_scheme):
    rep = sp.simulate_event_level(source, field, link, asyn_scheme, PERIODS, seed=3)
    ana = sp.average_mse(source, field, link, asyn_scheme)
    assert abs(rep.avg_mse - ana) < 3.0 * rep.stderr


def test_event_level_matches_no_infer_closed_form(source, link, no_scheme):
    f1 = sp.SensorField(positions=np.array([[0.0, 0.0]]), target_index=1)
    rep = sp.simulate_event_level(source, f1, link, no_scheme, PERIODS, seed=4)
    ana = sp.average_mse(source, None, link, no_scheme)
    assert abs(rep.avg_mse - ana) < 3.0 * rep.stderr


def test_event_level_deterministic(source, field, link, syn_scheme):
    a = sp.simulate_event_level(source, field, link, syn_scheme, 3_000, seed=11)
    b = sp.simulate_event_level(source, field, link, syn_scheme, 3_000, seed=11)
    assert a.avg_mse == b.avg_mse
    assert a.stderr == b.stderr


def test_adding_sensor_keeps_existing_draws(source, link):
    # stream per (seed, replica, sensor): the six-sensor run reproduces the
    # five-sensor success pattern on the shared sensors
    f5 = sp.place_sensors(5, 10.0, seed=7)
    pos6 = np.vstack([f5.positions, [[2.0, 2.0]]])
    f6 = sp.SensorField(positions=pos6, target_index=1)
    s5 = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.150, M=5, m=1)
    s6 = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.150, M=6, m=1)
    a = sp.simulate_event_level(source, f5, link, s5, 500, seed=21, collect_trace=True)
    b = sp.simulate_event_level(source, f6, link, s6, 500, seed=21, collect_trace=True)
    ev_a = {(k, n): (g, ok) for k, n, _, g, ok in _attempts(a)}
    ev_b = {(k, n): (g, ok) for k, n, _, g, ok in _attempts(b)}
    for key, val in ev_a.items():
        assert ev_b[key] == val


def test_partition_invariance(source, field, link, syn_scheme, monkeypatch):
    # time-weighted recombination of contiguous batches reproduces the
    # overall average exactly
    monkeypatch.setattr(simulate, "_BATCHES", 2)
    rep = sp.simulate_event_level(source, field, link, syn_scheme, 10_000, seed=5)
    bi, bd = rep.aux["batch_integrals"], rep.aux["batch_durations"]
    combined = (bi[0] + bi[1]) / (bd[0] + bd[1])
    assert combined == pytest.approx(rep.avg_mse, abs=1e-12)
    weighted = (bd[0] * (bi[0] / bd[0]) + bd[1] * (bi[1] / bd[1])) / bd.sum()
    assert weighted == pytest.approx(rep.avg_mse, abs=1e-12)


def test_success_rates_exchangeable_across_sensors(source, field, link, syn_scheme):
    rep = sp.simulate_event_level(source, field, link, syn_scheme, PERIODS, seed=6)
    rates = rep.aux["per_sensor_success_rate"]
    p = 1.0 - sp.blep_average(link)
    se = math.sqrt(p * (1 - p) / PERIODS)
    assert np.all(np.abs(rates - p) < 3.5 * se)


def test_requires_enough_successes(source, field, link, syn_scheme):
    with pytest.raises(InvalidConfigError):
        sp.simulate_event_level(source, field, _at_snr(link, 1e-300), syn_scheme,
                                periods=1, seed=0)


def test_peak_memory_per_period(source, field, link, syn_scheme, asyn_scheme):
    # The draw stage holds the (M, periods) bool mask and one float64 SNR
    # buffer: at M = 5, 5 + 8 = 13 B/period.  The reception stage walks the
    # mask in groups of about _BLOCK periods and keeps only the batch sums,
    # so it adds a fixed cost per group: about 17 B/period at 200k periods
    # (13.8 at 1e6), syn and asyn alike.  19 B keeps about 10% above.  At
    # 5 dB a period yields 0.52 (syn) or 0.67 (asyn) receptions, so one
    # 8-byte array of one entry per reception adds 4-5 B and breaks it, as
    # does keeping the SNR buffer alive into the reception stage.
    periods = 200_000
    for scheme in (syn_scheme, asyn_scheme):
        tracemalloc.start()
        try:
            sp.simulate_event_level(source, field, link, scheme, periods, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / periods <= 19.0, (scheme.scheme, peak / periods)


def _mean_exp_gap(rep, a):
    """Mean of exp(-2 a D) over a traced run's reception gaps D."""
    return float(np.exp(-2.0 * a * np.diff(rep.aux["gen_times_s"])).mean())


def _step_law(rep, eps, M):
    """The slot-step law of a traced asynchronous run: per step s up to 4 M,
    the share of the slot steps between consecutive receptions equal to s,
    against the geometric P(s) = eps^(s-1) (1 - eps).  The slots are the
    trace's successes, period-major (slot k M + n - 1)."""
    success = rep.aux["trace"]["success"].reshape(M, rep.periods)
    steps = np.diff(np.flatnonzero(success.T))
    smax = min(int(steps.max()), 4 * M)
    return [(s, float(np.mean(steps == s)), eps ** (s - 1) * (1.0 - eps))
            for s in range(1, smax + 1)]


def test_gap_statistics_syn(source, field, link, syn_scheme):
    rep = sp.simulate_event_level(source, field, link, syn_scheme, PERIODS, seed=8,
                                  collect_trace=True)
    eps, T, M = sp.blep_average(link), syn_scheme.T, syn_scheme.M
    assert rep.aux["mean_gap_s"] == pytest.approx(sp.expected_gap_syn(T, eps, M), rel=0.01)
    # successful rounds are a geometric number of periods apart, so
    # E[exp(-2 a D)] is the geometric mixture E (1 - eps^M) / (1 - E eps^M)
    E = math.exp(-2.0 * source.a * T)
    theory = E * (1.0 - eps ** M) / (1.0 - E * eps ** M)
    assert _mean_exp_gap(rep, source.a) == pytest.approx(theory, rel=0.01)


def test_gap_statistics_asyn(source, field, link, asyn_scheme):
    rep = sp.simulate_event_level(source, field, link, asyn_scheme, PERIODS, seed=8,
                                  collect_trace=True)
    eps, T, M = sp.blep_average(link), asyn_scheme.T, asyn_scheme.M
    assert rep.aux["mean_gap_s"] == pytest.approx(sp.expected_gap_asyn(T, eps, M),
                                                  rel=0.01)
    # slot-step law: geometric in the number of slots skipped
    for s, emp, theory in _step_law(rep, eps, M)[:8]:
        se = math.sqrt(theory * (1 - theory) / rep.aux["receptions"])
        assert abs(emp - theory) < 4.0 * se, (s, emp, theory)


def test_gap_statistics_asyn_forced_success(source, field, link, asyn_scheme):
    rep = sp.simulate_event_level(source, field, _at_snr(link, 1e300), asyn_scheme,
                                  2_000, seed=9, collect_trace=True)
    gaps = np.diff(rep.aux["gen_times_s"])
    h, T, M = asyn_scheme.h, asyn_scheme.T, asyn_scheme.M
    wrap = T - (M - 1) * h
    assert set(np.round(gaps, 9)) <= {round(h, 9), round(wrap, 9)}
    assert float(np.mean(gaps)) == pytest.approx(T / M, rel=1e-3)


def test_trace_collection(source, field, link, asyn_scheme):
    rep = sp.simulate_event_level(source, field, link, asyn_scheme, 50, seed=10,
                                  collect_trace=True)
    events = _attempts(rep)
    assert len(events) == 50 * asyn_scheme.M
    period, sensor = events[0][:2]
    assert period == 0
    assert 1 <= sensor <= asyn_scheme.M
    # asyn start times staggered by the shift
    starts = {(k, n): t for k, n, t, _, _ in events}
    assert starts[(3, 2)] == pytest.approx(3 * asyn_scheme.T + asyn_scheme.h, rel=1e-12)


@pytest.mark.parametrize("kind", ["no-infer", "syn-infer", "asyn-infer"])
def test_receptions_follow_the_per_period_rule(source, field, link, kind):
    # the used receptions, rebuilt from the trace by a plain loop: asyn uses
    # every success at k T + (n - 1) h, syn the first successful sensor in
    # the correlation ranking, no-infer the target's successes
    f3 = sp.SensorField(positions=field.positions, target_index=3)
    M = 1 if kind == "no-infer" else 5
    scheme = sp.SchemeConfig(kind, T=0.150, h=0.005 if kind == "asyn-infer" else None,
                             M=M, m=min(3, M))
    periods = 300
    rep = sp.simulate_event_level(source, f3, link, scheme, periods, seed=12,
                                  collect_trace=True)
    ok = {(k, n) for k, n, _, _, success in _attempts(rep) if success}
    pref = {"no-infer": (3,), "syn-infer": sp.reindex_by_correlation(source, f3).tolist(),
            "asyn-infer": (1, 2, 3, 4, 5)}[kind]
    times, sensors, served = [], [], 0
    for k in range(periods):
        hits = [n for n in pref if (k, n) in ok]
        served += bool(hits)
        if kind == "asyn-infer":
            times += [k * scheme.T + (n - 1) * scheme.h for n in hits]
            sensors += hits
        elif hits:
            times.append(k * scheme.T)
            sensors.append(hits[0])
    assert 0 < served < periods  # periods with and without a success
    assert rep.aux["gen_times_s"].tolist() == times
    assert rep.aux["used_sensor"].tolist() == sensors


@pytest.mark.parametrize("scheme", ["syn_scheme", "asyn_scheme"])
def test_inference_needs_a_field_of_M_sensors(source, link, scheme, request):
    f4 = sp.place_sensors(4, 10.0, seed=7)
    with pytest.raises(InvalidConfigError, match="need 5 spatial weights, got 4"):
        sp.simulate_event_level(source, f4, link, request.getfixturevalue(scheme),
                                100, seed=0)


def test_no_infer_is_syn_on_one_sensor(source, link):
    f1 = sp.SensorField(positions=np.array([[0.0, 0.0]]), target_index=1)
    no, syn = (sp.simulate_event_level(
        source, f1, link, sp.SchemeConfig(kind, T=0.150, M=1, m=1), 2_000, seed=13,
        collect_trace=True) for kind in (sp.Scheme.NO_INFER, sp.Scheme.SYN_INFER))
    assert (no.avg_mse, no.stderr, no.periods) == (syn.avg_mse, syn.stderr, syn.periods)
    assert _attempts(no) == _attempts(syn)
    assert no.aux.keys() == syn.aux.keys()
    for key, value in no.aux.items():
        if key != "trace":  # compared above, column by column
            np.testing.assert_array_equal(value, syn.aux[key])


# ---------------------------------------------------------------------------
# data-level oracle
# ---------------------------------------------------------------------------

def test_single_interval_reconstruction_error(source):
    # one held sample at a fixed age and distance: empirical squared error
    # over many field draws matches the instantaneous closed form
    f = sp.SensorField(positions=np.array([[0.0, 0.0], [20.0, 0.0]]),
                       target_index=1)
    age, r = 0.05, 20.0
    y, x = sp.sample_joint_gaussian(source, f, [2, 1], [0.0, age], seed=77,
                                    n_draws=100_000)
    rho = math.exp(-source.a * age - source.b * r)
    gain = source.gamma_o / (source.gamma_o + 1.0)
    err = x[:, 1] - gain * rho * y[:, 0]
    expected = source.sigma2_x * (1.0 - source.gamma_o * rho ** 2
                                  / (source.gamma_o + 1.0))
    assert float(np.mean(err ** 2)) == pytest.approx(expected, rel=0.02)


def test_noiseless_self_estimate_is_exact(field):
    src = sp.SourceParams(gamma_o=1e9)
    y, x = sp.sample_joint_gaussian(src, field, [1, 1], [0.0, 0.0], seed=3,
                                    n_draws=2_000)
    gain = src.gamma_o / (src.gamma_o + 1.0)
    err = x[:, 1] - gain * y[:, 0]
    assert float(np.mean(err ** 2)) < 1e-6


def test_data_level_agrees_with_event_level_syn(source, link):
    f3 = sp.place_sensors(3, 10.0, seed=11)
    scheme = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.150, M=3, m=1)
    rep = sp.simulate_data_level(source, f3, link, scheme, periods=50, seed=5,
                                 n_draws=1_000)
    assert abs(rep.avg_mse - rep.aux["event_level_mse"]) < 3.0 * rep.stderr


def test_data_level_agrees_with_event_level_asyn(source, link):
    f3 = sp.place_sensors(3, 10.0, seed=11)
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.01, M=3, m=1)
    rep = sp.simulate_data_level(source, f3, link, scheme, periods=40, seed=5,
                                 n_draws=1_000)
    assert abs(rep.avg_mse - rep.aux["event_level_mse"]) < 3.0 * rep.stderr


# scheme -> (avg_mse, stderr, event_level_mse, n_samples, n_eval_points)
FROZEN_DATA_LEVEL = {
    "syn": (0.6115977919188499, 0.012502662852619174, 0.6248663745531373, 20, 304),
    "asyn": (0.6308093462264551, 0.0140369472515728, 0.6330433357235625, 25, 384),
}


@pytest.mark.parametrize("case", sorted(FROZEN_DATA_LEVEL))
def test_data_level_frozen_values(source, field, link, syn_scheme,
                                  asyn_scheme, case):
    # bit-for-bit: any change to the trace, the draws or the estimator's
    # operation order shows in the repr
    scheme = {"syn": syn_scheme, "asyn": asyn_scheme}[case]
    rep = sp.simulate_data_level(source, field, link, scheme, periods=40,
                                 seed=5, n_draws=200)
    got = (rep.avg_mse, rep.stderr, rep.aux["event_level_mse"],
           rep.aux["n_samples"], rep.aux["n_eval_points"])
    assert repr(got) == repr(FROZEN_DATA_LEVEL[case])


def test_data_level_peak_memory_per_draw_entry(source, field, link,
                                               syn_scheme, asyn_scheme):
    # With more draws than entries the (draws, entries) arrays dominate:
    # the drawn samples y and states x take 8 B each per draw and entry,
    # and the estimator's error buffer, one float per draw and evaluation
    # point, at most 8 B more.  24 B plus the event trace and the
    # (entries, entries) covariance stays under 26 B; a second
    # (draws, points) temporary breaks it.
    n_draws = 2_000
    for scheme in (syn_scheme, asyn_scheme):
        tracemalloc.start()
        try:
            rep = sp.simulate_data_level(source, field, link, scheme,
                                         periods=40, seed=5, n_draws=n_draws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entries = rep.aux["n_samples"] + rep.aux["n_eval_points"]
        assert peak / (n_draws * entries) <= 26.0, (scheme.scheme, peak)


@pytest.mark.parametrize("n_draws", [0, 1])
def test_data_level_needs_two_draws(source, field, link, syn_scheme, n_draws):
    # the standard error over draws needs two of them
    with pytest.raises(InvalidConfigError, match="n_draws must be >= 2"):
        sp.simulate_data_level(source, field, link, syn_scheme, periods=40,
                               seed=5, n_draws=n_draws)


def test_data_level_scale_limit(source, field, link, syn_scheme):
    with pytest.raises(ScaleLimitError):
        sp.simulate_data_level(source, field, link, syn_scheme, periods=5_000,
                               seed=1, n_draws=10)


@pytest.mark.parametrize("periods", [10 ** 12, int(1e300)], ids=["1e12", "1e300"])
def test_event_level_too_large_to_allocate_is_a_scale_limit(
        tmp_path, monkeypatch, source, field, link, syn_scheme, periods):
    # 1e12 periods ended in "Unable to allocate 4.55 TiB" and 1e300 in
    # "Maximum allowed dimension exceeded"; the run must stop before its
    # first per-period allocation, so any large one fails the test here
    real_empty = np.empty

    def small_empty(shape, *args, **kwargs):
        assert np.prod(shape, dtype=float) < 1e8, shape
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", small_empty)
    for trace in (False, True):
        with pytest.raises(ScaleLimitError, match=r"^periods = 1e\+(12|300) would need"):
            sp.simulate_event_level(source, field, link, syn_scheme, periods, seed=1,
                                    collect_trace=trace)
    text = experiments.load_spec("sim_vs_analytic_default").raw_text
    spec = experiments.parse_spec(text.replace("periods = 100000", f"periods = {periods:g}"))
    with pytest.raises(ScaleLimitError, match="periods"):
        experiments.run_experiment(spec, tmp_path)


def test_traced_budget_counts_the_trace_columns(tmp_path, monkeypatch, source, field,
                                                link, syn_scheme):
    # tracemalloc at 2e5 periods read 190.6 bytes per period for a traced
    # M = 5 run and 338.3 for the runner's traced row, where the budget
    # counted 45: a traced run just under it needed about 18 GB.  Both
    # checks come before the first per-period allocation
    real_empty = np.empty

    def small_empty(shape, *args, **kwargs):
        assert np.prod(shape, dtype=float) < 1e6, shape
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", small_empty)
    over = _SCALE_LIMITS["period_bytes"][0] // (5 * simulate._TRACE_BYTES) + 1
    assert over == 26_030_105
    with pytest.raises(ScaleLimitError, match=r"^periods = 2\.6e\+07 would need"):
        sp.simulate_event_level(source, field, link, syn_scheme, over, seed=1,
                                collect_trace=True)
    # a dump_trace row keeps each replica's trace once, written replica by
    # replica: two replicas of half the periods fit and reach the draw, one
    # period more each does not
    text = (experiments.load_spec("sim_vs_analytic_default").raw_text
            .replace("replicas = 1", "replicas = 2") + "dump_trace = true\n")

    def drawn(*args, **kwargs):
        raise RuntimeError("drawn")

    monkeypatch.setattr(experiments, "simulate_event_level", drawn)
    for periods, error, match in ((over // 2, RuntimeError, "drawn"),
                                  (over // 2 + 1, ScaleLimitError,
                                   r"periods x replicas = 2\.6e\+07")):
        spec = experiments.parse_spec(text.replace("periods = 100000", f"periods = {periods}"))
        with pytest.raises(error, match=match):
            experiments.run_experiment(spec, tmp_path / str(periods))


# ---------------------------------------------------------------------------
# frozen values of the event-level oracle
# ---------------------------------------------------------------------------

# 30,011 periods in 7 batches: the linspace batch edges are non-integer
FROZEN_PERIODS, FROZEN_BATCHES = 30_011, 7

# case -> (avg_mse, stderr, receptions, batch_integrals, batch_durations)
FROZEN_EVENT_LEVEL = {
    "no": (
        0.8453629810557506, 0.0017088151537945897, 4021,
        [543.3454923082335, 540.666367389875, 540.8944656509957, 544.1814181119825,
         548.5318353404405, 544.0199691706338, 543.6351068031415],
        [645.3, 641.8499999999999, 643.05, 643.9500000000003, 642.2999999999997,
         644.0999999999999, 640.7999999999997]),
    "syn": (
        0.6320478988154378, 0.0010534043915248867, 15392,
        [408.8620048059166, 405.8313511694329, 404.26789634039574, 407.8425851996543,
         408.0742551950985, 405.8964845571328, 404.2942320652397],
        [643.1999999999999, 643.35, 642.75, 644.1000000000001, 642.1499999999996,
         643.2000000000003, 642.5999999999995]),
    "asyn": (
        0.6382849591792523, 0.0009819927204338782, 20103,
        [412.9881021831752, 409.9399027332259, 408.67700345196283, 411.58746521022044,
         411.5482976477572, 410.44348124494064, 407.97251422942855],
        [643.2149999999999, 643.3500000000001, 642.74, 644.1000000000001,
         642.1599999999994, 643.1900000000005, 642.6149999999998]),
}

FROZEN_STEP_LAW = [
    (1, 0.13720027857924585, 0.1349409362397016),
    (2, 0.11332205750671576, 0.11673187996645439),
    (3, 0.09849766192418664, 0.10097997079476057),
    (4, 0.08909561237687792, 0.08735363899425785),
    (5, 0.07755447219182171, 0.0755660571644278),
    (6, 0.0625310914336882, 0.0653691026627171),
    (7, 0.057208237986270026, 0.05654813474826088),
    (8, 0.047756442145060196, 0.048917476502721755),
    (9, 0.04263257387324644, 0.042316506424960876),
    (10, 0.03735946671972938, 0.036606277429583306),
    (11, 0.029350313401651576, 0.03166659208098508),
    (12, 0.027758431996816237, 0.02739347249805623),
    (13, 0.02288329519450801, 0.023696971672312005),
    (14, 0.02198786190428813, 0.020499280128804535),
    (15, 0.018157397273903093, 0.01773308807598374),
    (16, 0.015918814048353398, 0.015340168568589406),
    (17, 0.013829469704507014, 0.013270151859869109),
    (18, 0.013133021589891554, 0.011479465143855352),
    (19, 0.009899512486319768, 0.009930415369812491),
    (20, 0.008257884787583325, 0.00859039582256087),
]


# 100,003 periods: four draw blocks, the last one partial
FROZEN_BLOCKS_PERIODS = 100_003

# case -> (avg_mse, stderr, receptions, batch_integrals, batch_durations)
FROZEN_ACROSS_BLOCKS = {
    "no": (
        0.8443544377223141, 0.0010890624488087937, 13490,
        [1808.4651835601185, 1811.1272142801865, 1821.122917328049,
         1810.3241276378603, 1808.1798362124866, 1802.3556976214156,
         1801.7151385440602],
        [2144.5499999999997, 2143.0499999999997, 2141.55, 2143.7999999999993,
         2144.8500000000004, 2140.050000000001, 2139.749999999998]),
    "syn": (
        0.6304748601468458, 0.000999478595078121, 51596,
        [1353.6092648411247, 1353.4217591843494, 1360.3367548087072,
         1351.478444609606, 1348.4740496007616, 1348.2275548325629,
         1341.7642167836198],
        [2143.2, 2142.75, 2143.05, 2142.8999999999996, 2142.75,
         2143.2000000000007, 2142.449999999999]),
    "asyn": (
        0.6367353227853256, 0.0009424934495537569, 67422,
        [1367.1632323031963, 1367.2221233351052, 1373.0659952182073,
         1364.883695544639, 1361.8154807712003, 1360.8679887447865,
         1356.208713812814],
        [2143.205, 2142.7650000000003, 2143.05, 2142.8949999999986, 2142.74,
         2143.1950000000015, 2142.459999999999]),
}


@pytest.fixture
def frozen_batch_count(monkeypatch):
    monkeypatch.setattr(simulate, "_BATCHES", FROZEN_BATCHES)


@pytest.fixture(scope="module")
def frozen_runs(source, field, link, syn_scheme, asyn_scheme, no_scheme):
    cases = {"no": no_scheme, "syn": syn_scheme, "asyn": asyn_scheme}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_BATCHES", FROZEN_BATCHES)
        return {name: sp.simulate_event_level(source, field, link, scheme,
                                              FROZEN_PERIODS, seed=5, collect_trace=True)
                for name, scheme in cases.items()}


@pytest.mark.parametrize("case", sorted(FROZEN_EVENT_LEVEL))
def test_event_level_frozen_values(frozen_runs, case):
    # bit-for-bit: any change to draws, masks or batching shows in the repr
    rep = frozen_runs[case]
    got = (rep.avg_mse, rep.stderr, rep.aux["receptions"],
           rep.aux["batch_integrals"].tolist(), rep.aux["batch_durations"].tolist())
    assert repr(got) == repr(FROZEN_EVENT_LEVEL[case])


@pytest.mark.parametrize("case", sorted(FROZEN_ACROSS_BLOCKS))
def test_event_level_frozen_values_across_draw_blocks(
        source, field, link, syn_scheme, asyn_scheme, no_scheme, case, frozen_batch_count):
    scheme = {"no": no_scheme, "syn": syn_scheme, "asyn": asyn_scheme}[case]
    rep = sp.simulate_event_level(source, field, link, scheme,
                                  FROZEN_BLOCKS_PERIODS, seed=5)
    got = (rep.avg_mse, rep.stderr, rep.aux["receptions"],
           rep.aux["batch_integrals"].tolist(), rep.aux["batch_durations"].tolist())
    assert repr(got) == repr(FROZEN_ACROSS_BLOCKS[case])


def test_traced_run_across_draw_blocks(source, field, link, no_scheme, frozen_batch_count):
    # a traced run draws into its gamma rows, an untraced one into a reused
    # buffer; both must give the same report, over three draw blocks
    kw = dict(periods=70_001, seed=5)
    traced = sp.simulate_event_level(source, field, link, no_scheme,
                                     collect_trace=True, **kw)
    plain = sp.simulate_event_level(source, field, link, no_scheme, **kw)
    for key in ("batch_integrals", "batch_durations"):
        np.testing.assert_array_equal(traced.aux[key], plain.aux[key])
    assert (traced.avg_mse, traced.stderr) == (plain.avg_mse, plain.stderr)
    assert _attempts(traced)[-1] == (70_000, 1, 10500.0, 0.1064211130942754, False)


def test_gap_stats_frozen_values(frozen_runs, source, link, asyn_scheme):
    assert repr(_mean_exp_gap(frozen_runs["syn"], source.a)) == "0.38429685013232306"
    assert repr(_mean_exp_gap(frozen_runs["asyn"], source.a)) == "0.5237155389590269"
    step_law = _step_law(frozen_runs["asyn"], sp.blep_average(link), asyn_scheme.M)
    assert repr(step_law) == repr(FROZEN_STEP_LAW)


def test_trace_frozen_values(source, field, link, asyn_scheme):
    rep = sp.simulate_event_level(source, field, link, asyn_scheme, 40, seed=2,
                                  collect_trace=True)
    events = _attempts(rep)
    assert len(events) == 200
    assert repr(sum(g for _, _, _, g, _ in events)) == "576.0203137655193"
    assert sum(ok for *_, ok in events) == 22
    assert events[-1] == (39, 5, 5.869999999999999, 3.4973254483837, False)


# links for the success test: the eta form (the fixture link), the F(0)
# form (F(0) < 1 at a small N), and L/N past blep._EXP_MAX, where the
# segment is taken as F(0) + lambda g whatever F(0) is
SUCCESS_LINKS = {
    "eta": dict(L=160.0, N=80, gamma_r_bar_db=5.0),
    "f0": dict(L=1.0, N=1, gamma_r_bar_db=5.0),
    "past_exp_max": dict(L=1000.0, N=1, gamma_r_bar_db=5.0),
}


# p_fail: None for the case's link at 5 dB; 0.0 for its L and N at a mean
# SNR of 1e300 (3000 dB), where every segment value is below 0 and every
# packet gets through.  Past blep._EXP_MAX the slope is at most -5e-324, so
# no SNR forces that case
@pytest.mark.parametrize("case, p_fail", [*((c, None) for c in sorted(SUCCESS_LINKS)),
                                          ("eta", 0.0), ("f0", 0.0)])
def test_success_is_a_uniform_against_the_clipped_segment(source, field, syn_scheme,
                                                          case, p_fail):
    # per sensor, the stream holds every SNR draw, then every uniform; a
    # packet succeeds where its uniform is at least the clipped segmented
    # BLEP at its SNR, over three draw blocks
    kw = SUCCESS_LINKS[case] if p_fail is None else {**SUCCESS_LINKS[case],
                                                     "gamma_r_bar_db": 3000.0}
    link = sp.LinkParams.from_db(T_s=1e-4, **kw)
    periods, seed, replica = 2 * simulate._BLOCK + 5, 9, 2
    rep = sp.simulate_event_level(source, field, link, syn_scheme, periods, seed,
                                  replica=replica, collect_trace=True)
    trace = rep.aux["trace"]
    gamma = trace["gamma_r"].reshape(-1, periods)
    success = trace["success"].reshape(-1, periods)
    for row, sensor in enumerate(range(1, syn_scheme.M + 1)):
        rng = np.random.default_rng([seed, replica, sensor])
        rng.standard_exponential(periods)
        u = rng.random(periods)
        fail = sp.blep_segmented(link, gamma[row])
        np.testing.assert_array_equal(success[row], u >= fail)
        if p_fail is not None:
            np.testing.assert_array_equal(success[row], u >= p_fail)
    assert 0 < np.count_nonzero(success) < success.size or p_fail == 0.0
    # an untraced run takes the segment over its SNR buffer, in place
    plain = sp.simulate_event_level(source, field, link, syn_scheme, periods, seed,
                                    replica=replica)
    assert (plain.avg_mse, plain.stderr) == (rep.avg_mse, rep.stderr)


def test_every_packet_fails_at_a_vanishing_snr(source, field, link, syn_scheme):
    # each uniform is below 1 and each segment value above it, so no packet
    # gets through
    with pytest.raises(InvalidConfigError, match="fewer than two"):
        sp.simulate_event_level(source, field, _at_snr(link, 1e-300), syn_scheme, 100,
                                seed=0)


@pytest.mark.parametrize("M", [1, 2, 5, 8, 9, 16, 17, 70, 256, 300])
def test_first_success_rank_matches_the_reordered_argmax(M):
    # the overwritten rank equals argmax over the reordered mask, also for
    # M = 256 and 300, whose ranks need two bytes; periods without a
    # success are skipped
    rng = np.random.default_rng(M)
    for p in (0.02, 0.3, 0.9):
        success = rng.random((M, 5000)) < p
        order = rng.permutation(M)
        ks, rank = simulate._first_success_rank(success, order)
        want_ks = np.nonzero(success.any(axis=0))[0]
        np.testing.assert_array_equal(ks, want_ks)
        np.testing.assert_array_equal(
            rank, np.argmax(success[order][:, want_ks], axis=0))


# ---------------------------------------------------------------------------
# the batch walk against the full-array reception stage
# ---------------------------------------------------------------------------

def _full_array_receptions(source, field, link, scheme, rep, batches):
    """A traced run's receptions and batch sums rebuilt from its success
    mask by the full-array reception stage that the batch walk replaced:
    one array per reception quantity over the whole run, batches cut by
    searching the linspace edges in the sorted reception periods, and one
    bincount per batch sum.  The integrals are in units of sigma2."""
    trace = rep.aux["trace"]
    sensors = np.unique(trace["sensor"])
    drawn, periods = len(sensors), rep.periods
    success = trace["success"].reshape(drawn, periods)
    asyn = scheme.scheme is sp.Scheme.ASYN_INFER
    ranked = sp.reindex_by_correlation(source, field)[:drawn]
    offsets = (sensors - 1) * scheme.h if asyn else np.zeros(drawn)
    weights = field.target_factors(source.b)[sensors - 1]
    if asyn:
        period_of, row_of = np.divmod(np.flatnonzero(success.T), drawn)
    else:
        order = np.searchsorted(sensors, ranked)
        period_of, rank = simulate._first_success_rank(success, order)
        row_of = order[rank]
    gen_times = period_of * scheme.T + offsets[row_of]
    edges = np.linspace(0, periods, batches + 1)
    cuts = np.searchsorted(period_of[:-1], edges, side="left")
    go, tau, a = source.gamma_o, link.tau, source.a
    fac2 = weights[row_of[:-1]]
    fac2 *= go / (go + 1.0)
    D = np.diff(gen_times)
    integrals = D + tau
    integrals *= -2.0 * a
    np.exp(integrals, out=integrals)
    np.subtract(math.exp(-2.0 * a * tau), integrals, out=integrals)
    integrals /= 2.0 * a
    integrals *= fac2
    np.subtract(D, integrals, out=integrals)
    batch_of = np.repeat(np.arange(batches), np.diff(cuts))
    bi = np.bincount(batch_of, weights=integrals, minlength=batches)
    bd = np.bincount(batch_of, weights=D, minlength=batches)
    return {"batch_integrals": bi, "batch_durations": bd,
            "receptions": len(gen_times), "gen_times_s": gen_times,
            "used_sensor": sensors[row_of], "gaps": D,
            "stderr": source.sigma2_x * simulate.batch_means_stderr(bi, bd)}


# case -> (periods, seed, batch count, mean SNR in dB); _BLOCK = 32,768
# periods.  At -2 dB the fixture link's average BLEP is 0.99994
WALK_CASES = {
    "fewer_periods_than_batches": (60, 1, 100, 5.0),
    "one_batch": (30_011, 2, 1, 5.0),
    "partial_last_group": (100_003, 3, 100, 5.0),
    "groups_of_three_batches": (70_001, 4, 7, 5.0),
    **{f"empty_groups_seed{s}": (100_000, s, 100, -2.0) for s in range(6)},
}


@pytest.mark.parametrize("case", sorted(WALK_CASES))
@pytest.mark.parametrize("kind", ["no", "syn", "asyn"])
def test_batch_walk_matches_the_full_array_stage(source, field, syn_scheme, asyn_scheme,
                                                  no_scheme, kind, case, monkeypatch):
    # bit for bit: each batch sum is the sequential sum of its intervals,
    # also across groups, through groups and batches with no reception
    scheme = {"no": no_scheme, "syn": syn_scheme, "asyn": asyn_scheme}[kind]
    periods, seed, batches, db = WALK_CASES[case]
    monkeypatch.setattr(simulate, "_BATCHES", batches)
    link = sp.LinkParams.from_db(L=160.0, N=80, T_s=1e-4, gamma_r_bar_db=db)
    traced = sp.simulate_event_level(source, field, link, scheme, periods, seed,
                                     collect_trace=True)
    plain = sp.simulate_event_level(source, field, link, scheme, periods, seed)
    want = _full_array_receptions(source, field, link, scheme, traced, batches)
    for rep in (traced, plain):
        for key in ("batch_integrals", "batch_durations"):
            np.testing.assert_array_equal(rep.aux[key], want[key])
        assert rep.aux["receptions"] == want["receptions"]
        assert repr(rep.stderr) == repr(want["stderr"])
        bi, bd = rep.aux["batch_integrals"], rep.aux["batch_durations"]
        assert rep.avg_mse == source.sigma2_x * (bi.sum() / bd.sum())
        assert rep.aux["mean_gap_s"] == bd.sum() / (want["receptions"] - 1)
    per_reception = ("gen_times_s", "used_sensor")
    for key in per_reception:
        np.testing.assert_array_equal(traced.aux[key], want[key])
    # the gaps are derived from the generation times, equal to the old stage's D
    np.testing.assert_array_equal(np.diff(traced.aux["gen_times_s"]), want["gaps"])
    assert not plain.aux.keys() & set(per_reception)
    if case.startswith("empty_groups") and kind == "no":
        # 4-7 receptions: the last group (batches 96-99) has none, and
        # neither has the second (batches 32-63) at seed 2 nor the third
        # (batches 64-95) at seed 3
        assert want["receptions"] <= 14
        assert not want["batch_durations"][96:].any()


def test_avg_mse_is_the_simulate_csv_value(tmp_path):
    # at one replica the CSV's mse_mc and the report's avg_mse are one number
    text = experiments.load_spec("sim_vs_analytic_default").raw_text
    spec = experiments.parse_spec(text.replace("periods = 100000", "periods = 30011"))
    experiments.run_experiment(spec, tmp_path)
    with open(tmp_path / "sim_vs_analytic_default_simulate.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    rep = sp.simulate_event_level(spec.source, spec.field, spec.link, spec.scheme,
                                  spec.periods, spec.seed)
    assert float(row["mse_mc"]) == rep.avg_mse
    assert float(row["stderr"]) == rep.stderr
