"""Average reconstruction error of the three schemes.

Walks the closed forms over the error-probability and spatial-correlation
axes, including the counterintuitive regime where a lossier link briefly
HELPS the asynchronous scheme: with a short time shift and weak spatial
correlation the last slot's barely-useful sample covers the long wrap gap
at the period boundary, and losing it hands that stretch to a better
correlated, slightly older sample.
"""

import numpy as np

import sptrecon as sp

src = sp.SourceParams(sigma2_x=1.0, gamma_o=5.0, a=2.0, b=0.01)
field = sp.place_sensors(5, 10.0, seed=7)
link = sp.LinkParams.from_db(gamma_r_bar_db=5.0)
syn = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.150, M=5, m=1)
asyn = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.005, M=5, m=1)
no = sp.SchemeConfig(sp.Scheme.NO_INFER, T=0.150, M=1, m=1)

rho = sp.mssc(src, field)
print(f"field MSSC = {rho:.3f}, average BLEP = {sp.blep_average(link):.3f}")
print(f"no-infer  : {sp.average_mse(src, None, link, no):.4f}")
print(f"syn-infer : {sp.average_mse(src, field, link, syn):.4f}")
print(f"asyn-infer: {sp.average_mse(src, field, link, asyn):.4f}")

print("\nerror vs average BLEP (closed forms, this field):")
print(f"{'eps':>6} {'no':>8} {'syn':>8} {'asyn':>8}")
for eps in (0.0, 0.2, 0.4, 0.6, 0.8, 0.95):
    print(f"{eps:6.2f} "
          f"{sp.average_mse(src, None, link, no, eps_bar=eps):8.4f} "
          f"{sp.average_mse(src, field, link, syn, eps_bar=eps):8.4f} "
          f"{sp.average_mse(src, field, link, asyn, eps_bar=eps):8.4f}")

print("\nerror vs MSSC (substituted closed forms):")
print(f"{'mssc':>6} {'syn':>8} {'asyn':>8}")
for r in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
    print(f"{r:6.2f} "
          f"{sp.average_mse(src, None, link, syn, mssc_value=r):8.4f} "
          f"{sp.average_mse(src, None, link, asyn, mssc_value=r):8.4f}")

print("\nloss-helps regime (weak correlation, target in the penultimate slot):")
pos = np.array([[50., 0.], [0., 50.], [-50., 0.], [0., 0.], [35., 35.]])
f_w = sp.SensorField(positions=pos, target_index=4)
src_w = sp.SourceParams(b=0.1)
sch_w = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.005, M=5, m=4)
ups = sp.upsilon(src_w, f_w, link, sch_w)
print(f"MSSC = {sp.mssc(src_w, f_w):.5f} < shape threshold {ups:.2f} -> dip expected")
grid = np.linspace(0.0, 0.98, 8)
for eps in grid:
    v = sp.average_mse(src_w, f_w, link, sch_w, eps_bar=eps)
    print(f"  eps={eps:4.2f}  error={v:.4f}")
e_star, v_star = sp.eps_star_asyn(src_w, f_w, link, sch_w)
print(f"interior minimum at eps = {e_star:.3f} (error {v_star:.4f})")

print("\nbounds along both axes at the default field:")
for axis in ("blep", "spatial"):
    lo, hi = sp.bounds(src, field, link, asyn, axis)
    print(f"  asyn {axis:>7}: [{lo:.4f}, {hi:.4f}]")
