"""Two independent Monte Carlo oracles against the closed forms.

The event-level replay draws only the packet-loss process and integrates
the conditional error in closed form over every inter-update interval, so
1e5 periods run in well under a second.  The data-level check actually
samples the correlated Gaussian field and applies the conditional-mean
estimator, validating the instantaneous-error expression the event level
takes for granted.
"""

import numpy as np

import sptrecon as sp

src = sp.SourceParams()
field = sp.place_sensors(5, 10.0, seed=7)
link = sp.LinkParams.from_db(gamma_r_bar_db=5.0)

print("event-level replay, 1e5 periods:")
for tag, scheme in (
    ("no-infer", sp.SchemeConfig(sp.Scheme.NO_INFER, T=0.150, M=1, m=1)),
    ("syn-infer", sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.150, M=5, m=1)),
    ("asyn-infer h=5ms", sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150,
                                         h=0.005, M=5, m=1)),
    ("asyn-infer h=30ms", sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150,
                                          h=0.030, M=5, m=1)),
):
    f = field if scheme.M == 5 else sp.SensorField(
        positions=field.positions[:1], target_index=1)
    rep = sp.simulate_event_level(src, f, link, scheme, 100_000, seed=2024)
    ana = sp.average_mse(src, f, link, scheme)
    z = (rep.avg_mse - ana) / rep.stderr
    print(f"  {tag:<18} mc {rep.avg_mse:.5f} +- {rep.stderr:.5f}  "
          f"closed form {ana:.5f}  z {z:+.2f}")

print("\nrenewal-gap statistics (asynchronous, h = 5 ms):")
scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.005, M=5, m=1)
rep = sp.simulate_event_level(src, field, link, scheme, 100_000, seed=2024,
                              collect_trace=True)
eps = sp.blep_average(link)
print(f"  mean reception gap {rep.aux['mean_gap_s']:.5f} s "
      f"(theory {sp.expected_gap_asyn(scheme.T, eps, scheme.M):.5f} s)")
# the transmission slots k M + n - 1 that succeeded, period-major
success = rep.aux["trace"]["success"].reshape(scheme.M, rep.periods)
steps = np.diff(np.flatnonzero(success.T))
print("  slots skipped between successes (empirical vs geometric law):")
for s in range(1, 6):
    print(f"    {s}: {np.mean(steps == s):.4f} vs {eps ** (s - 1) * (1 - eps):.4f}")

print("\ndata-level estimator check (M = 3, sampled Gaussian field):")
f3 = sp.place_sensors(3, 10.0, seed=11)
s3 = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.150, M=3, m=1)
rep3 = sp.simulate_data_level(src, f3, link, s3, periods=50, seed=5,
                              n_draws=2_000)
print(f"  sampled-field error {rep3.avg_mse:.5f} +- {rep3.stderr:.5f}")
print(f"  event-level on the same trace {rep3.aux['event_level_mse']:.5f}")
print(f"  ({rep3.aux['n_samples']} held samples, "
      f"{rep3.aux['n_eval_points']} evaluation instants)")
