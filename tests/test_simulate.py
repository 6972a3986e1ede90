import math

import numpy as np
import pytest

import sptrecon as sp
from sptrecon import simulate
from sptrecon.errors import InvalidConfigError, ScaleLimitError

PERIODS = 30_000  # module-level runs; the acceptance suite uses 100k


def test_forced_success_single_sensor_exact(source, link, no_scheme):
    f1 = sp.SensorField(positions=np.array([[0.0, 0.0]]), target_index=1)
    rep = sp.simulate_event_level(source, f1, link, no_scheme, periods=2_000,
                                  seed=1, success_prob_override=0.0)
    ana = sp.mse_no_infer(source, link, no_scheme, eps_bar=0.0).value
    # per-interval integration is closed form, so this is exact
    assert rep.avg_mse == pytest.approx(ana, abs=1e-9)


def test_event_level_matches_syn_closed_form(source, field, link, syn_scheme):
    rep = sp.simulate_event_level(source, field, link, syn_scheme, PERIODS, seed=3)
    ana = sp.mse_syn_infer(source, field, link, syn_scheme).value
    assert abs(rep.avg_mse - ana) < 3.0 * rep.stderr
    assert rep.stderr > 0


def test_event_level_matches_asyn_closed_form(source, field, link, asyn_scheme):
    rep = sp.simulate_event_level(source, field, link, asyn_scheme, PERIODS, seed=3)
    ana = sp.mse_asyn_infer(source, field, link, asyn_scheme).value
    assert abs(rep.avg_mse - ana) < 3.0 * rep.stderr


def test_event_level_matches_no_infer_closed_form(source, link, no_scheme):
    f1 = sp.SensorField(positions=np.array([[0.0, 0.0]]), target_index=1)
    rep = sp.simulate_event_level(source, f1, link, no_scheme, PERIODS, seed=4)
    ana = sp.mse_no_infer(source, link, no_scheme).value
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
    ev_a = {(e.period, e.sensor): (e.gamma_r, e.success) for e in a.events}
    ev_b = {(e.period, e.sensor): (e.gamma_r, e.success) for e in b.events}
    for key, val in ev_a.items():
        assert ev_b[key] == val


def test_partition_invariance(source, field, link, syn_scheme):
    # time-weighted recombination of contiguous batches reproduces the
    # overall average exactly
    rep = sp.simulate_event_level(source, field, link, syn_scheme, 10_000, seed=5,
                                  n_batches=2)
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
        sp.simulate_event_level(source, field, link, syn_scheme, periods=1, seed=0,
                                success_prob_override=1.0 - 1e-12)


def test_rejects_no_batches(source, field, link, syn_scheme):
    with pytest.raises(InvalidConfigError):
        sp.simulate_event_level(source, field, link, syn_scheme, periods=100,
                                seed=0, n_batches=0)


def test_gap_statistics_syn(source, field, link, syn_scheme):
    rep = sp.simulate_event_level(source, field, link, syn_scheme, PERIODS, seed=8)
    st = sp.empirical_gap_stats(rep, source, link, syn_scheme)
    assert st["mean_gap_s"] == pytest.approx(st["theory_mean_gap_s"], rel=0.01)
    assert st["mean_exp_gap"] == pytest.approx(st["theory_mean_exp_gap"], rel=0.01)


def test_gap_statistics_asyn(source, field, link, asyn_scheme):
    rep = sp.simulate_event_level(source, field, link, asyn_scheme, PERIODS, seed=8)
    st = sp.empirical_gap_stats(rep, source, link, asyn_scheme)
    assert st["mean_gap_s"] == pytest.approx(st["theory_mean_gap_s"], rel=0.01)
    # slot-step law: geometric in the number of slots skipped
    for s, emp, theory in st["step_law"][:8]:
        se = math.sqrt(theory * (1 - theory) / rep.aux["receptions"])
        assert abs(emp - theory) < 4.0 * se, (s, emp, theory)


def test_gap_statistics_asyn_forced_success(source, field, link, asyn_scheme):
    rep = sp.simulate_event_level(source, field, link, asyn_scheme, 2_000, seed=9,
                                  success_prob_override=0.0)
    gaps = rep.aux["gaps_s"]
    h, T, M = asyn_scheme.h, asyn_scheme.T, asyn_scheme.M
    wrap = T - (M - 1) * h
    assert set(np.round(gaps, 9)) <= {round(h, 9), round(wrap, 9)}
    assert float(np.mean(gaps)) == pytest.approx(T / M, rel=1e-3)


def test_trace_collection(source, field, link, asyn_scheme):
    rep = sp.simulate_event_level(source, field, link, asyn_scheme, 50, seed=10,
                                  collect_trace=True)
    assert len(rep.events) == 50 * asyn_scheme.M
    ev = rep.events[0]
    assert ev.period == 0
    assert 1 <= ev.sensor <= asyn_scheme.M
    # asyn start times staggered by the shift
    starts = {(e.period, e.sensor): e.t_start_s for e in rep.events}
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
    ok = {(e.period, e.sensor) for e in rep.events if e.success}
    pref = {"no-infer": (3,), "syn-infer": sp.reindex_by_correlation(source, f3).order,
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
    assert (no.scheme, syn.scheme) == (sp.Scheme.NO_INFER, sp.Scheme.SYN_INFER)
    assert (no.avg_mse, no.stderr, no.periods) == (syn.avg_mse, syn.stderr, syn.periods)
    assert no.events == syn.events
    assert no.aux.keys() == syn.aux.keys()
    for key, value in no.aux.items():
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
    y, x = sp.sample_joint_gaussian(
        source, f, [(2, 0.0), (1, age)], seed=77, n_draws=100_000,
        return_latent=True)
    rho = math.exp(-source.a * age - source.b * r)
    gain = source.gamma_o / (source.gamma_o + 1.0)
    err = x[:, 1] - gain * rho * y[:, 0]
    expected = source.sigma2_x * (1.0 - source.gamma_o * rho ** 2
                                  / (source.gamma_o + 1.0))
    assert float(np.mean(err ** 2)) == pytest.approx(expected, rel=0.02)


def test_noiseless_self_estimate_is_exact(field):
    src = sp.SourceParams(gamma_o=1e9)
    y, x = sp.sample_joint_gaussian(src, field, [(1, 0.0), (1, 0.0)], seed=3,
                                    n_draws=2_000, return_latent=True)
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
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.01, M=3, m=2)
    rep = sp.simulate_data_level(source, f3, link, scheme, periods=40, seed=5,
                                 n_draws=1_000)
    assert abs(rep.avg_mse - rep.aux["event_level_mse"]) < 3.0 * rep.stderr


def test_data_level_scale_limit(source, field, link, syn_scheme):
    with pytest.raises(ScaleLimitError):
        sp.simulate_data_level(source, field, link, syn_scheme, periods=5_000,
                               seed=1, n_draws=10)


# ---------------------------------------------------------------------------
# frozen values of the event-level oracle
# ---------------------------------------------------------------------------

# 30,011 periods in 7 batches: the linspace batch edges are non-integer
FROZEN_PERIODS, FROZEN_BATCHES = 30_011, 7

# case -> (avg_mse, stderr, receptions, batch_integrals, batch_durations)
FROZEN_EVENT_LEVEL = {
    "no": (
        0.8453629810557491, 0.0017088151537945897, 4021,
        [543.3454923082335, 540.666367389875, 540.8944656509957, 544.1814181119825,
         548.5318353404405, 544.0199691706338, 543.6351068031415],
        [645.3, 641.8499999999999, 643.05, 643.9500000000003, 642.2999999999997,
         644.0999999999999, 640.7999999999997]),
    "syn": (
        0.6320478988154387, 0.0010534043915248867, 15392,
        [408.8620048059166, 405.8313511694329, 404.26789634039574, 407.8425851996543,
         408.0742551950985, 405.8964845571328, 404.2942320652397],
        [643.1999999999999, 643.35, 642.75, 644.1000000000001, 642.1499999999996,
         643.2000000000003, 642.5999999999995]),
    "asyn": (
        0.6382849591792542, 0.0009819927204338782, 20103,
        [412.9881021831752, 409.9399027332259, 408.67700345196283, 411.58746521022044,
         411.5482976477572, 410.44348124494064, 407.97251422942855],
        [643.2149999999999, 643.3500000000001, 642.74, 644.1000000000001,
         642.1599999999994, 643.1900000000005, 642.6149999999998]),
    "syn_override": (
        0.46961660948466455, 0.000506025301874234, 27622,
        [302.5344234344192, 302.2807712273647, 301.08838217446805, 303.6081680664152,
         301.5377041812282, 301.850752176605, 301.07896633468],
        [643.1999999999999, 643.0500000000001, 643.05, 643.2, 643.0499999999997,
         643.0500000000002, 642.9000000000001]),
    "asyn_q_model": (
        0.6384646040648547, 0.0010557707454975237, 20095,
        [412.9555692724252, 409.37281746403977, 408.649145301858, 411.09174732700336,
         412.54445709942325, 411.1352203016824, 408.21645803297395],
        [643.2149999999999, 643.3500000000001, 642.74, 643.4999999999998,
         642.7599999999998, 643.1900000000005, 642.6149999999998]),
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


@pytest.fixture(scope="module")
def frozen_runs(source, field, link, syn_scheme, asyn_scheme, no_scheme):
    cases = {
        "no": (no_scheme, {}),
        "syn": (syn_scheme, {}),
        "asyn": (asyn_scheme, {}),
        "syn_override": (syn_scheme, {"success_prob_override": 0.6}),
        "asyn_q_model": (asyn_scheme, {"use_q_model": True}),
    }
    return {name: sp.simulate_event_level(source, field, link, scheme,
                                          FROZEN_PERIODS, seed=5,
                                          n_batches=FROZEN_BATCHES, **kw)
            for name, (scheme, kw) in cases.items()}


@pytest.mark.parametrize("case", sorted(FROZEN_EVENT_LEVEL))
def test_event_level_frozen_values(frozen_runs, case):
    # bit-for-bit: any change to draws, masks or batching shows in the repr
    rep = frozen_runs[case]
    got = (rep.avg_mse, rep.stderr, rep.aux["receptions"],
           rep.aux["batch_integrals"].tolist(), rep.aux["batch_durations"].tolist())
    assert repr(got) == repr(FROZEN_EVENT_LEVEL[case])


def test_gap_stats_frozen_values(frozen_runs, source, link, syn_scheme,
                                 asyn_scheme):
    st = sp.empirical_gap_stats(frozen_runs["syn"], source, link, syn_scheme)
    assert repr(st["mean_exp_gap"]) == "0.38429685013232306"
    st = sp.empirical_gap_stats(frozen_runs["asyn"], source, link, asyn_scheme)
    assert repr(st["mean_exp_gap"]) == "0.5237155389590269"
    assert repr(st["step_law"]) == repr(FROZEN_STEP_LAW)


def test_trace_frozen_values(source, field, link, asyn_scheme):
    rep = sp.simulate_event_level(source, field, link, asyn_scheme, 40, seed=2,
                                  collect_trace=True)
    assert len(rep.events) == 200
    assert repr(sum(e.gamma_r for e in rep.events)) == "576.0203137655193"
    assert sum(e.success for e in rep.events) == 22
    assert rep.events[-1] == sp.TransmissionEvent(39, 5, 5.869999999999999,
                                                  3.4973254483837, False)


@pytest.mark.parametrize("M", [1, 2, 5, 8, 9, 16, 17, 70])
def test_first_success_rank_matches_the_reordered_argmax(M):
    # the byte code equals argmax over the reordered mask, also where the
    # ranks span several bytes; periods without a success are skipped
    rng = np.random.default_rng(M)
    for p in (0.02, 0.3, 0.9):
        success = rng.random((M, 5000)) < p
        order = rng.permutation(M)
        ks, rank = simulate._first_success_rank(success, order)
        want_ks = np.nonzero(success.any(axis=0))[0]
        np.testing.assert_array_equal(ks, want_ks)
        np.testing.assert_array_equal(
            rank, np.argmax(success[order][:, want_ks], axis=0))
