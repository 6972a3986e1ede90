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
taken first and the success uniforms second, block by block of periods
from the same stream (a uniform uses one 64-bit output, so the blocks
concatenate to the draws of one call).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .blep import blep_average, blep_instantaneous, blep_segmented
from .errors import InvalidConfigError, ScaleLimitError
from .field import correlation, sample_joint_gaussian
from .mse import Scheme, _check_timing, reindex_by_correlation, scheme_weights


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

# periods per draw block: the block's SNRs, uniforms and BLEP values stay
# in cache between the steps that make the success mask
_BLOCK = 1 << 15

# the lowest set bit of each byte value (0 for 0, which is never looked up)
_LOW_BIT = np.array([(v & -v).bit_length() - 1 if v else 0 for v in range(256)],
                    dtype=np.intp)


def _first_success_rank(success, order):
    """Periods with a success, and the smallest rank r among them whose
    sensor ``order[r]`` succeeded.

    Per period, byte g of a code has bit b set when the sensor of rank
    8 g + b succeeded, so the first rank is 8 g + the lowest set bit of
    the first nonzero byte.  That keeps M / 8 bytes per period instead of
    a reordered copy of the (M, periods) mask, for any M.
    """
    M, P = success.shape
    code = np.zeros(((M + 7) // 8, P), dtype=np.uint8)
    bit = np.empty(P, dtype=np.uint8)
    for r, s in enumerate(order):
        np.left_shift(success[s].view(np.uint8), r % 8, out=bit)
        code[r // 8] |= bit
    ok_any = code[0] != 0
    for byte in code[1:]:
        ok_any |= byte != 0
    ks = np.nonzero(ok_any)[0]
    # the last byte first, then overwrite where an earlier byte has a bit
    rank = _LOW_BIT[code[-1, ks]] + 8 * (len(code) - 1)
    for g in range(len(code) - 2, -1, -1):
        byte = code[g, ks]
        hit = byte != 0
        rank[hit] = _LOW_BIT[byte[hit]] + 8 * g
    return ks, rank


def batch_means_stderr(batch_integrals, batch_durations) -> float:
    """Batch-means standard error of a time average: the spread of the
    per-batch averages over the non-empty batches; inf with fewer than two."""
    nz = batch_durations > 0
    nb = int(nz.sum())
    if nb < 2:
        return math.inf
    ratios = batch_integrals[nz] / batch_durations[nz]
    return float(np.std(ratios, ddof=1) / math.sqrt(nb))


def simulate_event_level(source, field, link, scheme, periods, seed,
                         replica=0, n_batches=100, success_prob_override=None,
                         use_q_model=False, collect_trace=False) -> SimReport:
    """Replay packet losses and integrate the reconstruction error exactly.

    A scheme is the sensors it draws (the target alone for no-infer, 1..M
    otherwise), their transmission offsets in a period (0, or (n - 1) h for
    asyn) and the server's reception rule: asyn uses every success in slot
    order, the others the first success of each period in the order of
    :func:`reindex_by_correlation`.  So no-infer is the one-sensor case of
    syn.

    success_prob_override : fixed failure probability replacing the fading
                            draw (0.0 forces every packet through)
    use_q_model           : draw successes from the Q-function form instead
                            of the segmented linear model
    collect_trace         : keep per-attempt TransmissionEvent rows; only a
                            traced run keeps the (sensors, periods) SNR draws

    ``aux`` keys: ``gaps_s`` (spacing of consecutive receptions),
    ``mean_gap_s``, ``receptions``, ``batch_integrals`` and
    ``batch_durations`` (per batch of contiguous periods),
    ``per_sensor_success_rate`` (per sensor drawn), ``gen_times_s`` and
    ``used_sensor`` (per reception), and for the asynchronous scheme
    ``slot_index`` (slot k M + n - 1 of each reception).  Statistics that
    only :func:`empirical_gap_stats` reads are derived there.
    """
    if periods < 1 or n_batches < 1:
        raise InvalidConfigError("periods and n_batches must be >= 1")
    p_fail = None if success_prob_override is None else float(success_prob_override)
    if p_fail is not None and not 0.0 <= p_fail <= 1.0:  # NaN too
        raise InvalidConfigError(
            f"success_prob_override must be in [0, 1], got {success_prob_override}"
        )
    asyn = scheme.scheme is Scheme.ASYN_INFER
    # one sensor per term of the closed form (scheme_weights checks the
    # field's size and target for syn/asyn), from the head of the server's
    # preference order, the correlation ranking, which starts at the target
    drawn = len(scheme_weights(source, field, scheme))
    ranked = np.array(reindex_by_correlation(source, field).order[:drawn])
    sensors = np.sort(ranked)  # the target alone, or 1..M; one row each
    offsets = (sensors - 1) * scheme.h if asyn else np.zeros(drawn)
    weights = field.target_factors(source.b)[sensors - 1]
    _check_timing(link, scheme, need_h=asyn)

    # per sensor: the stream of rng.exponential(gamma_r_bar, periods) into
    # one buffer (a traced run's own gamma row), scaled block by block
    gamma = np.empty((drawn, periods)) if collect_trace else None
    success = np.empty((drawn, periods), dtype=bool)
    snr = None if collect_trace else np.empty(periods)
    u = np.empty(min(periods, _BLOCK))
    blep = blep_instantaneous if use_q_model else blep_segmented
    for row, sensor in enumerate(sensors.tolist()):
        rng = np.random.default_rng([seed, replica, sensor])
        g = gamma[row] if collect_trace else snr
        rng.standard_exponential(out=g)
        for lo in range(0, periods, _BLOCK):
            gb = g[lo:lo + _BLOCK]
            gb *= link.gamma_r_bar
            ub = u[:len(gb)]
            rng.random(out=ub)
            fail = blep(link, gb) if p_fail is None else p_fail
            np.greater_equal(ub, fail, out=success[row, lo:lo + len(gb)])
    del snr, g, gb, u, ub, fail  # the views too, so the buffers are freed
    # row by row: count_nonzero over an axis is about 10x slower
    rates = np.array([np.count_nonzero(r) for r in success]) / periods

    # the period and sensor row of each reception the server uses; the
    # mask is dropped once read, before the next large array is allocated
    # (at 1e6 periods that keeps the resident peak about 3 MB lower), unless
    # the trace needs it
    aux = {}
    if asyn:
        aux["slot_index"] = np.flatnonzero(success.T)  # period-major slots
        if not collect_trace:
            del success
        period_of, row_of = np.divmod(aux["slot_index"], drawn)
    else:
        order = np.searchsorted(sensors, ranked)
        period_of, rank = _first_success_rank(success, order)
        if not collect_trace:
            del success
        row_of = order[rank]
        del rank  # freed before the interval arrays are built
    T, tau, a = scheme.T, link.tau, source.a
    gen_times = period_of * T + offsets[row_of]
    used_sensor = sensors[row_of]
    if len(gen_times) < 2:
        raise InvalidConfigError(
            "fewer than two successful receptions; increase periods or SNR"
        )

    # batch means over contiguous period ranges: period_of is sorted, so
    # batch b holds the intervals between the cuts at edges b and b + 1
    edges = np.linspace(0, periods, n_batches + 1)
    cuts = np.searchsorted(period_of[:-1], edges, side="left")
    go = source.gamma_o
    fac2 = weights[row_of[:-1]]
    fac2 *= go / (go + 1.0)
    del period_of, row_of  # freed before the interval arrays are built

    # closed-form integral of sigma2 (1 - go/(go+1) fac2 e^{-2a(t-u)})
    # over each interval [u_v + tau, u_{v+1} + tau), in one buffer:
    # sigma2 (D - go/(go+1) fac2 (e^{-2a tau} - e^{-2a (tau + D)}) / (2a))
    D = np.diff(gen_times)
    integrals = D + tau
    integrals *= -2.0 * a
    np.exp(integrals, out=integrals)
    np.subtract(math.exp(-2.0 * a * tau), integrals, out=integrals)
    integrals /= 2.0 * a
    integrals *= fac2
    del fac2
    np.subtract(D, integrals, out=integrals)
    integrals *= source.sigma2_x

    avg = float(integrals.sum()) / float(D.sum())
    batch_of = np.repeat(np.arange(n_batches), np.diff(cuts))
    bi = np.bincount(batch_of, weights=integrals, minlength=n_batches)
    bd = np.bincount(batch_of, weights=D, minlength=n_batches)

    aux.update({
        "gaps_s": D,
        "mean_gap_s": float(D.mean()),
        "receptions": int(len(gen_times)),
        "batch_integrals": bi,
        "batch_durations": bd,
        "per_sensor_success_rate": rates,
        "gen_times_s": gen_times,
        "used_sensor": used_sensor,
    })
    report = SimReport(avg, batch_means_stderr(bi, bd), periods, scheme.scheme, aux)
    if collect_trace:
        for row, (sensor, offset) in enumerate(zip(sensors.tolist(), offsets.tolist())):
            for k in range(periods):
                report.events.append(TransmissionEvent(
                    k, sensor, k * T + offset, float(gamma[row, k]),
                    bool(success[row, k])))
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
        drawn = len(report.aux["per_sensor_success_rate"])
        out["theory_mean_gap_s"] = expected_gap_syn(T, eps, drawn)
        out["theory_mean_exp_gap"] = expected_exp_gap_syn(a, T, eps, drawn)
    return out


# ---------------------------------------------------------------------------
# data-level oracle
# ---------------------------------------------------------------------------

# the data-level oracle's midpoint evaluation instants per inter-update
# interval, and its largest joint Gaussian (a dense k x k Cholesky, O(k^3))
_GRID_PER_INTERVAL = 16
_MAX_ENTRIES = 2000


def simulate_data_level(source, field, link, scheme, periods, seed,
                        replica=0, n_draws=1000) -> SimReport:
    """Sampled-field check of the estimator itself.

    Reuses the event trace of :func:`simulate_event_level` at the same
    (seed, replica), draws the joint Gaussian at all successful generation
    instants plus a midpoint evaluation grid of the target's true state,
    applies the conditional-mean estimate from the held sample, and
    averages squared errors time-weighted over intervals.  The gap to the
    event-level value on the same trace is pure estimator-sampling noise.
    The standard error over draws needs ``n_draws`` >= 2.
    """
    if n_draws < 2:
        raise InvalidConfigError(f"n_draws must be >= 2, got {n_draws}")
    ev = simulate_event_level(source, field, link, scheme, periods, seed,
                              replica=replica)
    gen = ev.aux["gen_times_s"]
    src_sensor = ev.aux["used_sensor"]
    D = np.diff(gen)
    tau = link.tau
    m = field.target_index
    n_int = len(D)
    offsets = (np.arange(_GRID_PER_INTERVAL) + 0.5) / _GRID_PER_INTERVAL
    eval_times = (gen[:-1, None] + tau + offsets[None, :] * D[:, None]).ravel()
    eval_sensor_src = np.repeat(src_sensor[:-1], _GRID_PER_INTERVAL)
    eval_gen = np.repeat(gen[:-1], _GRID_PER_INTERVAL)

    entries = [(int(s), float(t)) for s, t in zip(src_sensor, gen)]
    n_samp = len(entries)
    total = n_samp + len(eval_times)
    if total > _MAX_ENTRIES:
        raise ScaleLimitError(
            f"joint covariance would need {total} entries (> {_MAX_ENTRIES}); "
            "reduce periods"
        )
    entries += [(m, float(t)) for t in eval_times]

    y, x = sample_joint_gaussian(
        source, field, entries, seed=[seed, replica, 986743], n_draws=n_draws,
        return_latent=True,
    )
    y_samp = y[:, :n_samp]
    x_true = x[:, n_samp:]

    # conditional-mean estimate from the held sample
    rho = correlation(source, field, m, eval_sensor_src, eval_times - eval_gen)
    gain = source.gamma_o / (source.gamma_o + 1.0)
    samp_idx = np.repeat(np.arange(n_int), _GRID_PER_INTERVAL)
    x_hat = gain * rho[None, :] * y_samp[:, samp_idx]

    # time-weighted average: midpoint rule with weights D_v / grid size
    wts = np.repeat(D / _GRID_PER_INTERVAL, _GRID_PER_INTERVAL)
    wts = wts / wts.sum()
    per_draw = ((x_true - x_hat) ** 2 * wts[None, :]).sum(axis=1)
    avg = float(per_draw.mean())
    stderr = float(per_draw.std(ddof=1) / math.sqrt(n_draws))

    return SimReport(avg, stderr, periods, scheme.scheme, {
        "event_level_mse": ev.avg_mse,
        "n_samples": n_samp,
        "n_eval_points": len(eval_times),
    })
