"""Monte Carlo oracles for the closed-form average reconstruction error.

Two independent checks:

* event level -- replays packet successes period by period, tracks which
  sample the server holds, and integrates the instantaneous error
  sigma2 (1 - gamma_o exp(-2 a age - 2 b r) / (gamma_o + 1)) in closed form
  over every inter-update interval.  No time discretization, so at a fixed
  seed the only noise is the packet-loss process itself.

* data level -- actually draws the correlated Gaussian field at every
  generation instant plus a dense evaluation grid, applies the
  conditional-mean estimator to the noisy samples, and averages squared
  errors.  Validates the instantaneous-error expression the event level
  assumes.

Randomness: one generator per (seed, replica, sensor), so adding sensors
never perturbs the draws of existing ones.  Per sensor, all SNR draws are
taken first and all success uniforms second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .blep import blep_average, blep_instantaneous, blep_segmented
from .errors import InvalidConfigError, ScaleLimitError
from .field import sample_joint_gaussian
from .mse import Scheme, reindex_by_correlation


@dataclass(frozen=True)
class TransmissionEvent:
    """One packet attempt (debug trace row)."""

    period: int
    sensor: int
    t_start_s: float
    gamma_r: float
    success: bool


@dataclass
class SimReport:
    """Time-averaged reconstruction error with batch-means error bar.

    ``aux`` holds what the oracle measured (keys listed under
    :func:`simulate_event_level` and :func:`simulate_data_level`);
    ``events`` the per-attempt rows of a traced run.
    """

    avg_mse: float
    stderr: float
    periods: int
    scheme: Scheme
    aux: dict = dc_field(default_factory=dict)
    events: list = dc_field(default_factory=list)


# ---------------------------------------------------------------------------
# theory helpers used by the gap statistics
# ---------------------------------------------------------------------------

def expected_gap_syn(T, eps_bar, M) -> float:
    """Mean spacing of successful rounds: T / (1 - eps^M)."""
    return T / (1.0 - eps_bar ** M)


def expected_exp_gap_syn(a, T, eps_bar, M) -> float:
    """E[exp(-2 a D)] over successful-round gaps (geometric mixture)."""
    E = math.exp(-2.0 * a * T)
    return E * (1.0 - eps_bar ** M) / (1.0 - E * eps_bar ** M)


def expected_gap_asyn(T, eps_bar, M) -> float:
    """Mean spacing of successful receptions: T / (M (1 - eps))."""
    return T / (M * (1.0 - eps_bar))


# ---------------------------------------------------------------------------
# event-level oracle
# ---------------------------------------------------------------------------

def simulate_event_level(source, field, link, scheme, periods, seed,
                         replica=0, n_batches=100, success_prob_override=None,
                         use_q_model=False, collect_trace=False) -> SimReport:
    """Replay packet losses and integrate the reconstruction error exactly.

    success_prob_override : fixed failure probability replacing the fading
                            draw (0.0 forces every packet through)
    use_q_model           : draw successes from the Q-function form instead
                            of the segmented linear model
    collect_trace         : keep per-attempt TransmissionEvent rows; only a
                            traced run keeps the (sensors, periods) SNR draws

    ``aux`` keys: ``gaps_s`` (spacing of consecutive receptions),
    ``mean_gap_s``, ``receptions``, ``batch_integrals`` and
    ``batch_durations`` (per batch of contiguous periods),
    ``per_sensor_success_rate``, ``gen_times_s``, ``used_fac2`` and
    ``used_sensor`` (per reception), and for the asynchronous scheme
    ``slot_index`` (slot k M + n - 1 of each reception).  Statistics that
    only :func:`empirical_gap_stats` reads are derived there.
    """
    if periods < 1 or n_batches < 1:
        raise InvalidConfigError("periods and n_batches must be >= 1")
    M = scheme.M
    if field.n_sensors != M and scheme.scheme is not Scheme.NO_INFER:
        raise InvalidConfigError(f"field has {field.n_sensors} sensors, scheme.M={M}")
    if scheme.T <= link.tau:
        raise InvalidConfigError("period must exceed the packet delay")
    asyn = scheme.scheme is Scheme.ASYN_INFER
    if asyn:
        h_max = (scheme.T - link.tau) / (M - 1)
        if not (link.T_s <= scheme.h <= h_max + 1e-15):
            raise InvalidConfigError(f"time shift outside [{link.T_s}, {h_max}]")

    n_active = 1 if scheme.scheme is Scheme.NO_INFER else M
    gamma = np.empty((n_active, periods)) if collect_trace else None
    success = np.empty((n_active, periods), dtype=bool)
    for s in range(n_active):
        sensor_id = field.target_index if n_active == 1 else s + 1
        rng = np.random.default_rng([seed, replica, sensor_id])
        # the stream of rng.exponential(gamma_r_bar, periods), scaled in place
        g = rng.standard_exponential(periods)
        g *= link.gamma_r_bar
        u = rng.random(periods)
        if success_prob_override is not None:
            fail = float(success_prob_override)
        elif use_q_model:
            fail = blep_instantaneous(link, g)
        else:
            fail = blep_segmented(link, g)
        np.greater_equal(u, fail, out=success[s])
        if collect_trace:
            gamma[s] = g
    del g, u, fail  # the last sensor's draws; the masks hold what is needed

    T, tau, a = scheme.T, link.tau, source.a
    m = field.target_index

    if scheme.scheme is Scheme.NO_INFER:
        ok = success[0]
        ks = np.nonzero(ok)[0]
        gen_times = ks * T
        used_fac2 = np.ones(len(ks))
        used_sensor = np.full(len(ks), m)
        period_of = ks
    elif scheme.scheme is Scheme.SYN_INFER:
        ranked = reindex_by_correlation(source, field)
        order = np.array(ranked.order) - 1
        fac2_ranked = np.array(ranked.factors)
        ok_any = success.any(axis=0)
        ks = np.nonzero(ok_any)[0]
        # first success in descending-correlation order
        rank_hit = np.argmax(success[order][:, ks], axis=0)
        gen_times = ks * T
        used_fac2 = fac2_ranked[rank_hit]
        used_sensor = order[rank_hit] + 1
        period_of = ks
    else:
        h = scheme.h
        fac2 = field.target_factors(source.b, power=2.0)
        # flatten slots in time order: slot j = k*M + (n-1)
        ok_flat = success.T.reshape(-1)            # period-major, slot-minor
        idx = np.nonzero(ok_flat)[0]
        k_idx, n_idx = np.divmod(idx, M)
        gen_times = k_idx * T + n_idx * h
        used_fac2 = fac2[n_idx]
        used_sensor = n_idx + 1
        period_of = k_idx

    if len(gen_times) < 2:
        raise InvalidConfigError(
            "fewer than two successful receptions; increase periods or SNR"
        )

    # closed-form integral of sigma2 (1 - go/(go+1) fac2 e^{-2a(t-u)})
    # over each interval [u_v + tau, u_{v+1} + tau), in one buffer:
    # sigma2 (D - go/(go+1) fac2 (e^{-2a tau} - e^{-2a (tau + D)}) / (2a))
    D = np.diff(gen_times)
    go = source.gamma_o
    integrals = D + tau
    integrals *= -2.0 * a
    np.exp(integrals, out=integrals)
    np.subtract(math.exp(-2.0 * a * tau), integrals, out=integrals)
    integrals /= 2.0 * a
    integrals *= go / (go + 1.0) * used_fac2[:-1]
    np.subtract(D, integrals, out=integrals)
    integrals *= source.sigma2_x

    total_i = float(integrals.sum())
    total_d = float(D.sum())
    avg = total_i / total_d

    # batch means over contiguous period ranges: period_of is sorted, so
    # batch b holds the intervals between the cuts at edges b and b + 1
    edges = np.linspace(0, periods, n_batches + 1)
    cuts = np.searchsorted(period_of[:-1], edges, side="left")
    batch_of = np.repeat(np.arange(n_batches), np.diff(cuts))
    bi = np.bincount(batch_of, weights=integrals, minlength=n_batches)
    bd = np.bincount(batch_of, weights=D, minlength=n_batches)
    nz = bd > 0
    ratios = bi[nz] / bd[nz]
    nb = int(nz.sum())
    stderr = float(np.std(ratios, ddof=1) / math.sqrt(nb)) if nb > 1 else math.inf

    aux = {
        "gaps_s": D,
        "mean_gap_s": float(D.mean()),
        "receptions": int(len(gen_times)),
        "batch_integrals": bi,
        "batch_durations": bd,
        "per_sensor_success_rate": np.count_nonzero(success, axis=1) / periods,
        "gen_times_s": gen_times,
        "used_fac2": used_fac2,
        "used_sensor": used_sensor,
    }
    if asyn:
        aux["slot_index"] = idx

    report = SimReport(avg, stderr, periods, scheme.scheme, aux)
    if collect_trace:
        for s in range(n_active):
            sensor_id = field.target_index if n_active == 1 else s + 1
            offset = 0.0 if not asyn else (sensor_id - 1) * scheme.h
            for k in range(periods):
                report.events.append(TransmissionEvent(
                    k, sensor_id, k * T + offset, float(gamma[s, k]),
                    bool(success[s, k])))
    return report


def empirical_gap_stats(report: SimReport, source, link, scheme) -> dict:
    """Empirical gap statistics against their closed forms.

    For the asynchronous scheme also checks the slot-step law: the number
    of transmission slots between consecutive successes is geometric,
    P(steps = s) = eps^(s-1) (1 - eps), which is the printed gap
    distribution re-indexed by slots.
    """
    eps = blep_average(link)
    a, T, M = source.a, scheme.T, scheme.M
    out = {
        "mean_gap_s": report.aux["mean_gap_s"],
        "mean_exp_gap": float(np.exp(-2.0 * a * report.aux["gaps_s"]).mean()),
    }
    if report.scheme is Scheme.ASYN_INFER:
        out["theory_mean_gap_s"] = expected_gap_asyn(T, eps, M)
        steps = np.diff(report.aux["slot_index"])
        smax = min(int(steps.max()), 4 * M)
        rows = []
        for s in range(1, smax + 1):
            rows.append((s, float(np.mean(steps == s)),
                         eps ** (s - 1) * (1.0 - eps)))
        out["step_law"] = rows
    else:
        Meff = 1 if report.scheme is Scheme.NO_INFER else M
        out["theory_mean_gap_s"] = expected_gap_syn(T, eps, Meff)
        out["theory_mean_exp_gap"] = expected_exp_gap_syn(a, T, eps, Meff)
    return out


# ---------------------------------------------------------------------------
# data-level oracle
# ---------------------------------------------------------------------------

def simulate_data_level(source, field, link, scheme, periods, seed,
                        replica=0, n_draws=1000, grid_per_interval=16,
                        max_entries=2000) -> SimReport:
    """Sampled-field check of the estimator itself.

    Reuses the event trace of :func:`simulate_event_level` at the same
    (seed, replica), draws the joint Gaussian at all successful generation
    instants plus a midpoint evaluation grid of the target's true state,
    applies the conditional-mean estimate from the held sample, and
    averages squared errors time-weighted over intervals.  The gap to the
    event-level value on the same trace is pure estimator-sampling noise.
    """
    ev = simulate_event_level(source, field, link, scheme, periods, seed,
                              replica=replica)
    gen = ev.aux["gen_times_s"]
    src_sensor = ev.aux["used_sensor"]
    D = np.diff(gen)
    tau = link.tau
    m = field.target_index
    n_int = len(D)
    offsets = (np.arange(grid_per_interval) + 0.5) / grid_per_interval
    eval_times = (gen[:-1, None] + tau + offsets[None, :] * D[:, None]).ravel()
    eval_sensor_src = np.repeat(src_sensor[:-1], grid_per_interval)
    eval_gen = np.repeat(gen[:-1], grid_per_interval)

    entries = [(int(s), float(t)) for s, t in zip(src_sensor, gen)]
    n_samp = len(entries)
    total = n_samp + len(eval_times)
    if total > max_entries:
        raise ScaleLimitError(
            f"joint covariance would need {total} entries (> {max_entries}); "
            "reduce periods or the evaluation grid"
        )
    entries += [(m, float(t)) for t in eval_times]

    y, x = sample_joint_gaussian(
        source, field, entries, seed=[seed, replica, 986743], n_draws=n_draws,
        return_latent=True,
    )
    y_samp = y[:, :n_samp]
    x_true = x[:, n_samp:]

    # conditional-mean estimate from the held sample
    ages = eval_times - eval_gen
    r = field.distances[m - 1, eval_sensor_src - 1]
    rho = np.exp(-source.a * ages - source.b * r)
    gain = source.gamma_o / (source.gamma_o + 1.0)
    samp_idx = np.repeat(np.arange(n_int), grid_per_interval)
    x_hat = gain * rho[None, :] * y_samp[:, samp_idx]

    # time-weighted average: midpoint rule with weights D_v / grid size
    wts = np.repeat(D / grid_per_interval, grid_per_interval)
    wts = wts / wts.sum()
    per_draw = ((x_true - x_hat) ** 2 * wts[None, :]).sum(axis=1)
    avg = float(per_draw.mean())
    stderr = float(per_draw.std(ddof=1) / math.sqrt(n_draws))

    return SimReport(avg, stderr, periods, scheme.scheme, {
        "event_level_mse": ev.avg_mse,
        "n_samples": n_samp,
        "n_eval_points": len(eval_times),
    })
