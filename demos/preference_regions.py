"""Which scheme wins where: thresholds on the spatial-correlation axis.

Below thr1 the neighbours are too uncorrelated to beat plain no-inference;
above thr2 the asynchronous scheme's freshness advantage dominates; the
synchronous scheme owns the band in between.  thr1 stays below the squared
temporal correlation over one period, so inference pays off surprisingly
early.
"""

from dataclasses import replace

import numpy as np

import sptrecon as sp

src = sp.SourceParams(a=2.0)
link = sp.LinkParams.from_db(gamma_r_bar_db=5.0)

print("thresholds vs transmission period (h = 5 ms):")
print(f"{'T [ms]':>8} {'thr1':>8} {'thr2':>8} {'e^-2aT':>8}")
for T in (0.05, 0.10, 0.15, 0.25, 0.50):
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=T, h=0.005, M=5, m=1)
    thr1 = sp.threshold_infer(src, link, scheme)
    thr2 = sp.threshold_asyn_over_syn(src, link, scheme)
    print(f"{1e3 * T:8.0f} {thr1:8.4f} {thr2:8.4f} {np.exp(-2 * src.a * T):8.4f}")

print("\nthresholds vs average received SNR (T = 150 ms):")
print(f"{'SNR dB':>8} {'eps':>8} {'thr1':>8} {'thr2':>8}")
for db in (0, 5, 10, 15, 20, 30):
    lk = sp.LinkParams.from_db(gamma_r_bar_db=db)
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.005, M=5, m=1)
    thr1 = sp.threshold_infer(src, lk, scheme)
    thr2 = sp.threshold_asyn_over_syn(src, lk, scheme)
    print(f"{db:8d} {sp.blep_average(lk):8.4f} {thr1:8.4f} {thr2:8.4f}")

print("\nclassification vs direct evaluation on a correlation grid:")
scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.005, M=5, m=1)
thr1 = sp.threshold_infer(src, link, scheme)
thr2 = sp.threshold_asyn_over_syn(src, link, scheme)
grid = np.linspace(0.05, 1.0, 20)
oracle = sp.exhaustive_region_oracle(src, link, scheme, grid)
for rho, winner in oracle[::4]:
    got = sp.classify(rho, thr1, thr2)
    no, syn = (sp.average_mse(src, None, link, replace(scheme, scheme=kind), mssc_value=rho)
               for kind in (sp.Scheme.NO_INFER, sp.Scheme.SYN_INFER))
    mark = "=" if got is winner else "!"
    print(f"  mssc={rho:5.2f}  classifier: {got.value:<10} "
          f"direct: {winner.value:<10} {mark}  gain-over-no-infer {no / syn:5.3f}")
