"""Block error probability models for short packets over Rayleigh fading.

Shows the Q-function form, its piecewise-linear surrogate, the closed-form
fading average, and the simplified average used inside the optimizers.
"""

import numpy as np

import sptrecon as sp

link = sp.LinkParams.from_db(L=160.0, N=80, T_s=1e-4, gamma_r_bar_db=5.0)
print(f"link: L={link.L:g} bits, N={link.N} c.u., tau={1e3 * link.tau:g} ms, "
      f"decoding threshold eta={link.eta:.3f}")

print("\ninstantaneous BLEP around the decoding threshold:")
print(f"{'snr':>8} {'q-form':>10} {'segmented':>10}")
for g in np.linspace(0.3 * link.eta, 1.8 * link.eta, 9):
    print(f"{g:8.3f} {sp.blep_instantaneous(link, g):10.4f} "
          f"{sp.blep_segmented(link, g):10.4f}")

print("\nfading-averaged BLEP vs blocklength (5 dB average SNR):")
print(f"{'N':>6} {'closed form':>12} {'simplified':>12}")
for n in (40, 80, 120, 200, 400, 800):
    print(f"{n:6d} {sp.blep_average(link, N=n):12.6f} "
          f"{sp.blep_average_simplified(link, N=n):12.6f}")

print("\nfading-averaged BLEP vs average SNR (N = 80):")
for db in (0, 5, 10, 15, 20):
    lk = sp.LinkParams.from_db(gamma_r_bar_db=db)
    print(f"{db:4d} dB  ->  {sp.blep_average(lk):.6f}")

print("\nMonte Carlo cross-check (1e6 exponential SNR draws):")
rng = np.random.default_rng(1)
draws = rng.exponential(link.gamma_r_bar, 1_000_000)
mc = float(np.mean(sp.blep_segmented(link, draws)))
print(f"closed form {sp.blep_average(link):.6f}  vs  Monte Carlo {mc:.6f}")
