"""Monte Carlo oracles for the closed-form average reconstruction error.

Two independent checks:

* event level -- replays packet successes period by period, tracks which
  sample the server holds, and integrates the instantaneous error
  sigma2 (1 - gamma_o exp(-2 a age - 2 b r) / (gamma_o + 1)) in closed form
  over every inter-update interval.  No time discretization, so at a fixed
  seed the only noise is the packet-loss process itself.  A period's first
  success in preference order is one small-integer rank per period,
  overwritten rank by rank from the last to the first.  The receptions are
  walked in groups of whole batches of about 32,768 periods, and only the
  per-batch sums of the interval integrals and durations are kept, so
  beside the success mask the footprint is fixed per group: at M = 5 the
  tracemalloc peak is the draw stage's, 13.3 bytes per period at 1e6
  periods and 14.3 at 2e5.  The integrals are taken in units of sigma2, whose one multiply
  is the report's: the average error is sigma2 times the sum of the batch
  integrals over the sum of the batch durations.

* data level -- actually draws the correlated Gaussian field at every
  generation instant plus a dense evaluation grid, applies the
  conditional-mean estimator to the noisy samples, and averages squared
  errors.  Validates the instantaneous-error expression the event level
  assumes.  Beside the drawn samples and states (8 bytes each per draw and
  entry), the estimator's error takes one buffer of at most 8 more.

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

from .blep import _positive_snr, _segment
from .errors import InvalidConfigError, _check_scale
from .field import correlation, sample_joint_gaussian
from .mse import Scheme, _check_timing, reindex_by_correlation, scheme_weights


@dataclass
class SimReport:
    """Time-averaged reconstruction error with batch-means error bar.

    ``aux`` holds what the oracle measured (keys listed under
    :func:`simulate_event_level` and :func:`simulate_data_level`).
    """

    avg_mse: float
    stderr: float
    periods: int
    scheme: Scheme
    aux: dict = dc_field(default_factory=dict)


# ---------------------------------------------------------------------------
# mean reception gaps, against the oracle's ``aux["mean_gap_s"]``
# ---------------------------------------------------------------------------

def expected_gap_syn(T, eps_bar, M) -> float:
    """Mean spacing of successful rounds: T / (1 - eps^M)."""
    return T / (1.0 - eps_bar ** M)


def expected_gap_asyn(T, eps_bar, M) -> float:
    """Mean spacing of successful receptions: T / (M (1 - eps))."""
    return T / (M * (1.0 - eps_bar))


# ---------------------------------------------------------------------------
# event-level oracle
# ---------------------------------------------------------------------------

# periods per draw block: the block's SNRs, uniforms and BLEP values stay
# in cache between the steps that make the success mask
_BLOCK = 1 << 15

# bytes a traced run keeps per period and sensor, counted against the
# per-period scale limit: the mask's byte, the SNR and the period, sensor
# and t_start_s columns
_TRACE_BYTES = 1 + 4 * 8


def _first_success_rank(success, order):
    """Periods with a success, and the smallest rank r among them whose
    sensor ``order[r]`` succeeded.  Each period's rank starts at M ("none")
    and r = M - 1 .. 0 overwrite it where ``order[r]`` succeeded, so one byte
    per period (two from M = 256) replaces a reordered (M, periods) mask.
    """
    M, P = success.shape
    rank = np.full(P, M, dtype=np.min_scalar_type(M))
    step = np.empty_like(rank)
    for r in range(M - 1, -1, -1):
        # rank - r >= 1 here, so the unsigned difference never wraps
        np.subtract(rank, r, out=step)
        step *= success[order[r]].view(np.uint8)  # no cast from bool
        rank -= step
    ks = np.flatnonzero(rank < M)
    return ks, rank[ks]


def batch_means_stderr(batch_integrals, batch_durations) -> float:
    """Batch-means standard error of a time average: the spread of the
    per-batch averages over the non-empty batches; inf with fewer than two.

    The event-level oracle passes integrals in units of sigma2, so each
    average is a time average of an error in [1/(gamma_o + 1), 1] and its
    square neither overflows nor underflows; the caller scales the result
    by sigma2.
    """
    nz = batch_durations > 0
    nb = int(nz.sum())
    if nb < 2:
        return math.inf
    ratios = batch_integrals[nz] / batch_durations[nz]
    return float(np.std(ratios, ddof=1) / math.sqrt(nb))


def simulate_event_level(source, field, link, scheme, periods, seed,
                         replica=0, n_batches=100, success_prob_override=None,
                         collect_trace=False) -> SimReport:
    """Replay packet losses and integrate the reconstruction error exactly.

    A scheme is the sensors it draws (the target alone for no-infer, 1..M
    otherwise), their transmission offsets in a period (0, or (n - 1) h for
    asyn) and the server's reception rule: asyn uses every success in slot
    order, the others the first success of each period in the order of
    :func:`reindex_by_correlation`.  So no-infer is the one-sensor case of
    syn.

    success_prob_override : fixed failure probability replacing the fading
                            draw (0.0 forces every packet through)
    collect_trace         : keep every packet attempt in ``aux["trace"]``, one
                            flat array per events-file column (``period``,
                            ``sensor``, ``t_start_s`` = k T + offset,
                            ``gamma_r``, boolean ``success``), sensor by
                            sensor, then period by period, and the
                            per-reception arrays listed below

    ``avg_mse`` is sigma2 sum(batch_integrals) / sum(batch_durations), and
    ``stderr`` sigma2 times the batch-means error of the integrals.  ``aux``
    keys: ``mean_gap_s``, ``receptions``, ``batch_integrals`` (in units of
    sigma2) and ``batch_durations`` (per batch of contiguous periods) and
    ``per_sensor_success_rate`` (per sensor drawn).  A traced run also
    keeps, per reception, ``gen_times_s`` and ``used_sensor``.  A run whose
    success mask and SNR row(s), with a trace its columns too
    (``_TRACE_BYTES`` per attempt), would pass the per-period scale limit
    raises ScaleLimitError before it draws.
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
    ranked = reindex_by_correlation(source, field)[:drawn]
    sensors = np.sort(ranked)  # the target alone, or 1..M; one row each
    offsets = (sensors - 1) * scheme.h if asyn else np.zeros(drawn)
    weights = field.target_factors(source.b)[sensors - 1]
    _check_timing(link, scheme, need_h=asyn)
    # untraced, the mask's byte per attempt and one reused SNR row
    _check_scale("period_bytes",
                 periods * (drawn * _TRACE_BYTES if collect_trace else drawn + 8),
                 f"periods = {periods:.3g}")

    # per sensor: the stream of rng.exponential(gamma_r_bar, periods) into
    # one buffer (a traced run's own gamma row), scaled block by block.  A
    # packet fails where its uniform u is below the clipped segmented BLEP
    # at its SNR; as 0 <= u < 1, u >= clip(v, 0, 1) exactly where u >= v,
    # so the segment v is left unclipped (a NaN v fails both)
    gamma = np.empty((drawn, periods)) if collect_trace else None
    success = np.empty((drawn, periods), dtype=bool)
    snr = None if collect_trace else np.empty(periods)
    u = np.empty(min(periods, _BLOCK))
    # the segment's block: an untraced run writes it over the SNRs, a
    # traced one keeps them
    v = np.empty_like(u) if collect_trace else None
    segment = _segment(link)
    for row, sensor in enumerate(sensors.tolist()):
        rng = np.random.default_rng([seed, replica, sensor])
        g = gamma[row] if collect_trace else snr
        rng.standard_exponential(out=g)
        for lo in range(0, periods, _BLOCK):
            gb = g[lo:lo + _BLOCK]
            gb *= link.gamma_r_bar
            ub = u[:len(gb)]
            rng.random(out=ub)
            vb = gb if v is None else v[:len(gb)]
            fail = segment(_positive_snr(gb), vb) if p_fail is None else p_fail
            np.greater_equal(ub, fail, out=success[row, lo:lo + len(gb)])
    del snr, g, gb, u, ub, v, vb, fail  # the views too, so the buffers are freed
    # row by row: count_nonzero over an axis is about 10x slower
    rates = np.array([np.count_nonzero(r) for r in success]) / periods

    aux = {}
    if collect_trace:
        k = np.arange(periods)
        aux["trace"] = {
            "period": np.tile(k, drawn), "sensor": np.repeat(sensors, periods),
            "t_start_s": (k * scheme.T + offsets[:, None]).ravel(),
            "gamma_r": gamma.ravel(), "success": success.ravel()}

    # The receptions the server uses, walked in groups of whole batches of
    # about _BLOCK periods.  Batch b holds the intervals that start in a
    # period of [ceil(edges_b), ceil(edges_{b+1})).  Each group starts from
    # the carry, the last reception before it, so the interval that crosses
    # into the group is added to the carry's batch after that batch's own
    # sum: every batch sum is the sequential sum of its intervals.  Only a
    # traced run keeps the per-reception arrays
    edges = np.ceil(np.linspace(0, periods, n_batches + 1)).astype(np.int64)
    step = max(1, _BLOCK * n_batches // periods)
    order = None if asyn else np.searchsorted(sensors, ranked)
    T, tau, a, go = scheme.T, link.tau, source.a, source.gamma_o
    fac = weights * (go / (go + 1.0))
    bi, bd = np.zeros(n_batches), np.zeros(n_batches)
    carry = None  # (generation time, fac, batch) of the last reception
    receptions, kept = 0, []  # kept: a traced run's arrays, group by group
    for b0 in range(0, n_batches, step):
        b1 = min(b0 + step, n_batches)
        p0, p1 = edges[b0], edges[b1]
        if asyn:
            # period-major slots k M + n - 1; stacking the group's rows
            # makes the period-major copy twice as fast as flatnonzero's
            # copy of the transposed view
            slot = np.flatnonzero(np.stack(success[:, p0:p1], axis=1))
            period_of = slot // drawn
            row_of = slot - period_of * drawn
        else:
            period_of, rank = _first_success_rank(success[:, p0:p1], order)
            row_of = order.take(rank)  # indexing casts rank to intp first
        if not len(period_of):
            continue
        period_of += p0
        receptions += len(period_of)
        gen_times = period_of * T
        if asyn:  # the other schemes' offsets are 0
            gen_times += offsets[row_of]
        fac2 = fac[row_of[:-1]]
        if carry is not None:
            gen_times = np.concatenate(([carry[0]], gen_times))
            fac2 = np.concatenate(([carry[1]], fac2))

        # closed-form integral of 1 - go/(go+1) fac2 e^{-2a(t-u)}, the error
        # in units of sigma2, over each interval [u_v + tau, u_{v+1} + tau),
        # in one buffer: D - go/(go+1) fac2 (e^{-2a tau} - e^{-2a (tau + D)}) / (2a)
        D = np.diff(gen_times)
        integrals = D + tau
        integrals *= -2.0 * a
        np.exp(integrals, out=integrals)
        np.subtract(math.exp(-2.0 * a * tau), integrals, out=integrals)
        integrals /= 2.0 * a
        integrals *= fac2
        np.subtract(D, integrals, out=integrals)

        # the group's own intervals, batch by batch, then the crossing one
        cuts = np.searchsorted(period_of[:-1], edges[b0:b1 + 1], side="left")
        batch_of = np.repeat(np.arange(b1 - b0), np.diff(cuts))
        own = 0 if carry is None else 1  # where the group's own intervals start
        bi[b0:b1] = np.bincount(batch_of, weights=integrals[own:], minlength=b1 - b0)
        bd[b0:b1] = np.bincount(batch_of, weights=D[own:], minlength=b1 - b0)
        if own:
            bi[carry[2]] += integrals[0]
            bd[carry[2]] += D[0]
        carry = (gen_times[-1], fac[row_of[-1]],
                 int(np.searchsorted(edges, period_of[-1], side="right")) - 1)
        if collect_trace:
            kept.append((gen_times[own:], sensors[row_of]))
    if receptions < 2:
        raise InvalidConfigError("fewer than two successful receptions; "
                                 "increase periods or SNR")

    keys = ("gen_times_s", "used_sensor")
    aux.update({key: np.concatenate(parts) for key, parts in zip(keys, zip(*kept))})
    aux.update({
        "mean_gap_s": float(bd.sum()) / (receptions - 1),
        "receptions": receptions,
        "batch_integrals": bi,
        "batch_durations": bd,
        "per_sensor_success_rate": rates,
    })
    s2 = source.sigma2_x
    return SimReport(s2 * float(bi.sum() / bd.sum()), s2 * batch_means_stderr(bi, bd),
                     periods, scheme.scheme, aux)


# ---------------------------------------------------------------------------
# data-level oracle
# ---------------------------------------------------------------------------

# the data-level oracle's midpoint evaluation instants per inter-update
# interval
_GRID_PER_INTERVAL = 16


def simulate_data_level(source, field, link, scheme, periods, seed,
                        replica=0, n_draws=1000) -> SimReport:
    """Sampled-field check of the estimator itself.

    Reuses the event trace of :func:`simulate_event_level` at the same
    (seed, replica), draws the joint Gaussian at all successful generation
    instants plus the target's true state on an (interval, midpoint) grid,
    applies the conditional-mean estimate from the interval's held sample,
    and averages squared errors time-weighted over intervals.  The gap to the
    event-level value on the same trace is pure estimator-sampling noise.
    The standard error over draws needs ``n_draws`` >= 2.
    """
    if n_draws < 2:
        raise InvalidConfigError(f"n_draws must be >= 2, got {n_draws}")
    ev = simulate_event_level(source, field, link, scheme, periods, seed,
                              replica=replica, collect_trace=True)
    gen = ev.aux["gen_times_s"]
    src_sensor = ev.aux["used_sensor"]
    D = np.diff(gen)
    m = field.target_index
    offsets = (np.arange(_GRID_PER_INTERVAL) + 0.5) / _GRID_PER_INTERVAL
    eval_times = gen[:-1, None] + link.tau + offsets * D[:, None]

    n_samp = len(gen)
    _check_scale("data_entries", n_samp + eval_times.size, "joint covariance")
    # the held samples, then the target's states on the grid
    y, x = sample_joint_gaussian(
        source, field, np.concatenate((src_sensor, np.full(eval_times.size, m))),
        np.concatenate((gen, eval_times.ravel())), seed=[seed, replica, 986743],
        n_draws=n_draws,
    )
    # the conditional-mean estimate from the held sample, then its squared
    # error, in one (draws, interval, midpoint) buffer
    rho = correlation(source, field, m, src_sensor[:-1, None],
                      eval_times - gen[:-1, None])
    gain = source.gamma_o / (source.gamma_o + 1.0)
    err = gain * rho * y[:, :n_samp - 1, None]
    np.subtract(x[:, n_samp:].reshape(err.shape), err, out=err)
    del y, x
    err *= err

    # time-weighted average: midpoint rule with weights D_v / grid size
    wts = np.repeat(D / _GRID_PER_INTERVAL, _GRID_PER_INTERVAL)
    err *= (wts / wts.sum()).reshape(rho.shape)
    per_draw = err.reshape(n_draws, -1).sum(axis=1)
    avg = float(per_draw.mean())
    stderr = float(per_draw.std(ddof=1) / math.sqrt(n_draws))

    return SimReport(avg, stderr, periods, scheme.scheme, {
        "event_level_mse": ev.avg_mse,
        "n_samples": n_samp,
        "n_eval_points": eval_times.size,
    })
