"""Acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts the stated tolerance.  The default operating point throughout:
M = 5 sensors (placement seed 7) in a 20 m x 20 m square, sigma2_x = 1,
gamma_o = 5, a = 2 /s, b = 0.01 /m, L = 160 bits, N = 80 c.u., T_s = 0.1 ms,
average received SNR 5 dB, period T = 150 ms, 1e5 periods per run.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

import sptrecon as sp
from sptrecon.optimize import _objective

PERIODS = 100_000
SEED = 2024


def report(criterion, ok, detail):
    line = f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return ok


@pytest.fixture(scope="module")
def source():
    return sp.SourceParams(sigma2_x=1.0, gamma_o=5.0, a=2.0, b=0.01)


@pytest.fixture(scope="module")
def field():
    return sp.place_sensors(5, 10.0, seed=7)


@pytest.fixture(scope="module")
def link():
    return sp.LinkParams.from_db(L=160.0, N=80, T_s=1e-4, gamma_r_bar_db=5.0)


@pytest.fixture(scope="module")
def syn_scheme():
    return sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.150, M=5, m=1)


@pytest.fixture(scope="module")
def syn_run(source, field, link, syn_scheme):
    return sp.simulate_event_level(source, field, link, syn_scheme, PERIODS, SEED)


@pytest.fixture(scope="module")
def asyn_runs(source, field, link):
    out = {}
    for h in (0.005, 0.030):
        scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=h, M=5, m=1)
        out[h] = (scheme,
                  sp.simulate_event_level(source, field, link, scheme, PERIODS, SEED))
    return out


def weak_mssc_dip_config():
    """Weak spatial correlation, target in the penultimate transmission slot."""
    pos = np.array([[50., 0.], [0., 50.], [-50., 0.], [0., 0.], [35., 35.]])
    f = sp.SensorField(positions=pos, target_index=4)
    src = sp.SourceParams(b=0.1)
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.005, M=5, m=4)
    return src, f, scheme


# ---------------------------------------------------------------------------
# 1. event-level Monte Carlo vs the synchronous closed form
# ---------------------------------------------------------------------------

def test_criterion_1_syn_oracle_agreement(source, field, link, syn_scheme, syn_run):
    ana = sp.average_mse(source, field, link, syn_scheme)
    rel = abs(syn_run.avg_mse - ana) / ana
    z = (syn_run.avg_mse - ana) / syn_run.stderr
    ok = rel < 0.01 and abs(z) <= 4.0
    assert report(
        "criterion 1", ok,
        f"syn Monte Carlo {syn_run.avg_mse:.6f} vs closed form {ana:.6f} "
        f"(rel {rel:.2e}, z {z:+.2f})")


# ---------------------------------------------------------------------------
# 2. asynchronous oracle agreement plus the two eps-shapes
# ---------------------------------------------------------------------------

def test_criterion_2_asyn_oracle_agreement(source, field, link, asyn_runs):
    oks, details = [], []
    for h, (scheme, run) in asyn_runs.items():
        ana = sp.average_mse(source, field, link, scheme)
        rel = abs(run.avg_mse - ana) / ana
        z = (run.avg_mse - ana) / run.stderr
        oks.append(rel < 0.01 and abs(z) <= 4.0)
        details.append(f"h={1e3 * h:g}ms rel {rel:.2e} z {z:+.2f}")
    assert report("criterion 2a", all(oks), "; ".join(details))


def test_criterion_2_shapes(source, field, link):
    # h = T/M: monotone increasing in the average block error probability
    balanced = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.030, M=5, m=1)
    grid = np.linspace(0.0, 0.999, 250)
    vals = [sp.average_mse(source, field, link, balanced, eps_bar=e)
            for e in grid]
    monotone = bool(np.all(np.diff(vals) >= -1e-12))

    # short shift + weak spatial correlation: dip then rise
    src_w, f_w, scheme_w = weak_mssc_dip_config()
    vals_w = [sp.average_mse(src_w, f_w, link, scheme_w, eps_bar=e)
              for e in grid]
    k = int(np.argmin(vals_w))
    dips = 0 < k < len(grid) - 1 and vals_w[k] < vals_w[0] - 1e-9
    rises = vals_w[-1] > vals_w[k] + 1e-9
    ok = monotone and dips and rises
    assert report(
        "criterion 2b", ok,
        f"h=T/M monotone: {monotone}; weak-correlation dip at eps~{grid[k]:.2f} "
        f"({vals_w[0]:.4f} -> {vals_w[k]:.4f} -> {vals_w[-1]:.4f})")


# ---------------------------------------------------------------------------
# 3. renewal-gap statistics
# ---------------------------------------------------------------------------

def test_criterion_3_gap_statistics(source, field, link, syn_scheme, syn_run,
                                    asyn_runs):
    eps = sp.blep_average(link)
    syn_gap = syn_run.aux["mean_gap_s"]
    syn_theory = sp.expected_gap_syn(syn_scheme.T, eps, syn_scheme.M)
    rel_syn = abs(syn_gap - syn_theory) / syn_theory

    scheme, run = asyn_runs[0.005]
    asyn_gap = run.aux["mean_gap_s"]
    asyn_theory = sp.expected_gap_asyn(scheme.T, eps, scheme.M)
    rel_asyn = abs(asyn_gap - asyn_theory) / asyn_theory

    ok = rel_syn < 0.01 and rel_asyn < 0.01
    assert report(
        "criterion 3", ok,
        f"successful-round gap rel {rel_syn:.2e}; reception gap rel {rel_asyn:.2e}")


# ---------------------------------------------------------------------------
# 4. inference threshold fixture
# ---------------------------------------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="the quoted fixture value 0.4 is a one-significant-figure rounding; "
           "the threshold formula at squared temporal correlation 0.5 and "
           "error probability 0.3 evaluates to 7/17 = 0.41176..., so equality "
           "to 1e-12 cannot hold (see the decisions ledger)")
def test_criterion_4_threshold_fixture_as_stated(source, link):
    T = math.log(2.0) / (2.0 * source.a)  # exp(-2 a T) = 0.5 exactly
    scheme = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=T, M=5, m=1)
    thr = sp.threshold_infer(source, link, scheme, eps_bar=0.3)
    ok = abs(thr - 0.4) <= 1e-12
    report("criterion 4a", ok,
           f"thr at (0.5, 0.3) = {thr!r}, quoted 0.4 (exact value is 7/17)")
    assert ok


def test_criterion_4_threshold_formula_and_saturation(source, link):
    T = math.log(2.0) / (2.0 * source.a)
    scheme = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=T, M=5, m=1)
    thr = sp.threshold_infer(source, link, scheme, eps_bar=0.3)
    formula_ok = abs(thr - 7.0 / 17.0) <= 1e-12

    E = 0.5
    sat_ok = all(
        sp.threshold_infer(source, link, scheme, eps_bar=e) <= E + 1e-15
        for e in np.linspace(0.0, 0.999, 200))
    ok = formula_ok and sat_ok
    assert report(
        "criterion 4b", ok,
        f"formula value 7/17 to 1e-12: {formula_ok}; "
        f"threshold <= squared temporal correlation on the grid: {sat_ok}")


# ---------------------------------------------------------------------------
# 5. scheme crossover
# ---------------------------------------------------------------------------

def test_criterion_5_crossover(source, link):
    scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.005, M=5, m=1)
    thr1 = sp.threshold_infer(source, link, scheme)
    thr2 = sp.threshold_asyn_over_syn(source, link, scheme)
    syn = replace(scheme, scheme="syn-infer")
    syn_v = sp.average_mse(source, None, link, syn, mssc_value=thr2)
    asyn_v = sp.average_mse(source, None, link, scheme, mssc_value=thr2)
    eq = abs(syn_v - asyn_v)

    below = (sp.average_mse(source, None, link, syn, mssc_value=thr2 - 1e-3)
             < sp.average_mse(source, None, link, scheme, mssc_value=thr2 - 1e-3))
    above = (sp.average_mse(source, None, link, scheme, mssc_value=thr2 + 1e-3)
             < sp.average_mse(source, None, link, syn, mssc_value=thr2 + 1e-3))

    grid = np.linspace(0.005, 1.0, 200)
    step = grid[1] - grid[0]
    oracle = sp.exhaustive_region_oracle(source, link, scheme, grid)
    agree = all(
        sp.classify(rho, thr1, thr2) is winner
        for rho, winner in oracle
        if min(abs(rho - thr1), abs(rho - thr2)) >= step)

    ok = eq < 1e-9 and below and above and agree
    assert report(
        "criterion 5", ok,
        f"|syn-asyn| at thr2 = {eq:.2e}; ordering flips: {below and above}; "
        f"classifier matches oracle away from boundaries: {agree}")


# ---------------------------------------------------------------------------
# 6. bounds
# ---------------------------------------------------------------------------

def test_criterion_6_bounds(link):
    rng = np.random.default_rng(606)
    contained = 0
    total = 0
    for _ in range(100):
        M = int(rng.integers(2, 7))
        src = sp.SourceParams(sigma2_x=float(rng.uniform(0.5, 2.0)),
                              gamma_o=float(rng.uniform(1.0, 10.0)),
                              a=float(rng.uniform(0.5, 4.0)),
                              b=float(rng.uniform(0.0, 0.2)))
        f = sp.place_sensors(M, 10.0, seed=int(rng.integers(0, 10000)),
                             target_index=int(rng.integers(1, M + 1)))
        lk = sp.LinkParams.from_db(N=int(rng.integers(20, 300)),
                                   gamma_r_bar_db=float(rng.uniform(0.0, 20.0)))
        T = float(rng.uniform(lk.tau * 1.5, 0.6))
        h = float(rng.uniform(lk.T_s, (T - lk.tau) / (M - 1)))
        syn = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=T, M=M, m=f.target_index)
        asyn = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=T, h=h, M=M, m=f.target_index)
        for schm in (syn, asyn):
            v = sp.average_mse(src, f, lk, schm)
            for axis in ("blep", "spatial"):
                lo, hi = sp.bounds(src, f, lk, schm, axis)
                total += 1
                contained += bool(lo - 1e-9 <= v <= hi + 1e-9)

    # limit identities at the defaults, to 1e-12
    src = sp.SourceParams()
    f = sp.place_sensors(5, 10.0, seed=7)
    syn = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.150, M=5, m=1)
    asyn = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.005, M=5, m=1)
    checks = []
    lo, hi = sp.bounds(src, f, link, syn, "blep")
    checks.append(abs(hi - sp.average_mse(src, f, link, syn, eps_bar=1.0)))
    checks.append(abs(lo - sp.average_mse(src, f, link, syn, eps_bar=0.0)))
    lo, hi = sp.bounds(src, f, link, syn, "spatial")
    checks.append(abs(hi - sp.average_mse(src, None, link, syn, mssc_value=0.0)))
    checks.append(abs(lo - sp.average_mse(src, None, link, syn, mssc_value=1.0)))
    lo, hi = sp.bounds(src, f, link, asyn, "blep")
    checks.append(abs(hi - sp.average_mse(src, f, link, asyn, eps_bar=1.0)))
    lo, hi = sp.bounds(src, f, link, asyn, "spatial")
    checks.append(abs(hi - sp.average_mse(src, None, link, asyn, mssc_value=0.0)))
    checks.append(abs(lo - sp.average_mse(src, None, link, asyn, mssc_value=1.0)))
    limits_ok = max(checks) <= 1e-12

    ok = contained == total and limits_ok
    assert report(
        "criterion 6", ok,
        f"{contained}/{total} bound containments; limit identities max gap "
        f"{max(checks):.1e}")


# ---------------------------------------------------------------------------
# 7. optimizers
# ---------------------------------------------------------------------------

def test_criterion_7_optimizers(source, field):
    # blocklength adaptation on the long-period high-SNR setup
    link15 = sp.LinkParams.from_db(gamma_r_bar_db=15.0)
    syn = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.300, M=5, m=1)
    res = sp.optimize_blocklength(source, field, link15, syn)
    ex_s = sp.exhaustive_search(source, field, link15, syn, objective="simplified")
    ex_e = sp.exhaustive_search(source, field, link15, syn, objective="exact")
    n_ok = res.N_star == ex_s.N_star and abs(res.N_star - ex_e.N_star) <= 1

    # joint adaptation vs the 2-D exhaustive baseline at the defaults
    link5 = sp.LinkParams.from_db(gamma_r_bar_db=5.0)
    asyn = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.005, M=5, m=1)
    jt = sp.jtsbo(source, field, link5, asyn, sp.OptimizerConfig(I_max=3))
    ex2 = sp.exhaustive_search(source, field, link5, asyn, objective="exact")
    gap = (jt.mse_star - ex2.mse_star) / ex2.mse_star
    jt_ok = gap <= 0.01
    mono = all(a.mse >= b.mse - 1e-12 for a, b in zip(jt.trace, jt.trace[1:]))

    # joint adaptation never loses to shift-only adaptation across the sweep
    sweep_ok = True
    for b in (0.0, 0.002, 0.005, 0.01, 0.02, 0.05, 0.15, 0.3):
        src_b = sp.SourceParams(b=b)
        joint = sp.jtsbo(src_b, field, link5, asyn, sp.OptimizerConfig(I_max=3))
        h_only = sp.optimize_time_shift(src_b, field, link5, asyn)
        sweep_ok &= joint.mse_star <= h_only.mse_star + 1e-12

    ok = n_ok and jt_ok and mono and sweep_ok
    assert report(
        "criterion 7", ok,
        f"N*={res.N_star} vs exhaustive {ex_s.N_star}/{ex_e.N_star}; joint-vs-"
        f"exhaustive gap {gap:.2e}; trace monotone: {mono}; "
        f"joint <= shift-only on sweep: {sweep_ok}")


# ---------------------------------------------------------------------------
# 8. headline reductions at perfect spatial correlation
# ---------------------------------------------------------------------------

def test_criterion_8_headline_reductions(field):
    # baseline: no inference at the fixed default blocklength of 80, the
    # comparison the reported reductions (63 percent / 50 percent) refer to;
    # adapting the baseline's blocklength as well is reported alongside
    src = sp.SourceParams(b=0.0)  # perfect spatial correlation
    link5 = sp.LinkParams.from_db(gamma_r_bar_db=5.0)
    no = sp.SchemeConfig(sp.Scheme.NO_INFER, T=0.150, M=1, m=1)
    base_fixed = sp.average_mse(src, None, link5, no)
    base_opt = sp.optimize_blocklength(
        src, field, link5, sp.SchemeConfig(sp.Scheme.NO_INFER, T=0.150, M=1, m=1)
    ).mse_star

    syn = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.150, M=5, m=1)
    asyn = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.005, M=5, m=1)
    syn_opt = sp.optimize_blocklength(src, field, link5, syn).mse_star
    asyn_opt = sp.jtsbo(src, field, link5, asyn, sp.OptimizerConfig(I_max=3)).mse_star

    red_syn = 1.0 - syn_opt / base_fixed
    red_asyn = 1.0 - asyn_opt / base_fixed
    ok = red_asyn >= 0.50 and red_syn >= 0.40
    assert report(
        "criterion 8", ok,
        f"reductions vs fixed-blocklength baseline: asyn {100 * red_asyn:.1f}% "
        f"(>=50), syn {100 * red_syn:.1f}% (>=40); vs adapted baseline: "
        f"asyn {100 * (1 - asyn_opt / base_opt):.1f}%, "
        f"syn {100 * (1 - syn_opt / base_opt):.1f}%")


# ---------------------------------------------------------------------------
# 9. derivative correctness and convexity
# ---------------------------------------------------------------------------

def test_criterion_9_derivatives(source, field):
    rng = np.random.default_rng(909)
    link15 = sp.LinkParams.from_db(gamma_r_bar_db=15.0)
    syn = sp.SchemeConfig(sp.Scheme.SYN_INFER, T=0.300, M=5, m=1)
    asyn = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.150, h=0.005, M=5, m=1)
    link5 = sp.LinkParams.from_db(gamma_r_bar_db=5.0)
    cube = np.finfo(float).eps ** (1 / 3)

    def fd_ok(f, g, points, scale):
        worst = 0.0
        for x in points:
            s = max(scale * cube, cube * abs(x))
            num = (f(x + s) - f(x - s)) / (2 * s)
            worst = max(worst, abs(g(x) - num) / max(abs(num), 1e-300))
        return worst

    w_h = fd_ok(lambda n: _objective(source, field, link15, syn, n),
                lambda n: sp.eval_H(source, field, link15, syn, n),
                rng.uniform(40, 2500, 50), 1.0)
    h_hi = (asyn.T - link5.tau) / 4
    w_j = fd_ok(lambda h: _objective(source, field, link5, asyn, link5.N, h),
                lambda h: sp.eval_J(source, field, link5, asyn, h),
                rng.uniform(link5.T_s, h_hi, 50), 1e-3)
    w_f = fd_ok(lambda n: _objective(source, field, link5, asyn, n, asyn.h),
                lambda n: sp.eval_F(source, field, link5, asyn, n),
                rng.uniform(40, 1400, 50), 1.0)
    w_e = fd_ok(lambda n: sp.blep_average_simplified(link5, N=n),
                lambda n: sp.dblep_dN(link5, N=n),
                rng.uniform(40, 1400, 50), 1.0)
    deriv_ok = max(w_h, w_j, w_f, w_e) < 1e-4

    # convexity: shift axis over the whole feasible band; blocklength axis
    # at the balanced shift on the neighbourhood covering the optimum
    # (beyond ~3x the optimum the exact curves turn marginally concave as
    # only the delay exponential still moves)
    hs = np.linspace(link5.T_s, h_hi, 220)
    vals_h = np.array([_objective(source, field, link5, asyn, 80, float(h))
                       for h in hs])
    conv_h = bool(np.all(np.diff(vals_h, 2) > -1e-15))

    balanced = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=0.300, h=0.060, M=5, m=1)
    probe = np.linspace(40, (0.300 - 4 * 0.060) / link15.T_s, 400)
    pv = [_objective(source, field, link15, balanced, float(n), 0.060)
          for n in probe]
    n_opt = float(probe[int(np.argmin(pv))])
    ns = np.linspace(40, 2 * n_opt, 250)
    vals_n = np.array([_objective(source, field, link15, balanced, float(n), 0.060)
                       for n in ns])
    conv_n = bool(np.all(np.diff(vals_n, 2) > -1e-15))

    probe_s = np.linspace(40, 0.300 / link15.T_s, 400)
    pv_s = [_objective(source, field, link15, syn, float(n)) for n in probe_s]
    n_opt_s = float(probe_s[int(np.argmin(pv_s))])
    ns_s = np.linspace(40, 2 * n_opt_s, 250)
    vals_s = np.array([_objective(source, field, link15, syn, float(n))
                       for n in ns_s])
    conv_s = bool(np.all(np.diff(vals_s, 2) > -1e-15))

    ok = deriv_ok and conv_h and conv_n and conv_s
    assert report(
        "criterion 9", ok,
        f"worst derivative mismatch {max(w_h, w_j, w_f, w_e):.2e} (<1e-4); "
        f"convexity shift-axis {conv_h}, blocklength-axis syn {conv_s} / "
        f"asyn-at-balanced-shift {conv_n}")


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(source, field, link, syn_scheme, syn_run,
                                  asyn_runs, tmp_path):
    rerun = sp.simulate_event_level(source, field, link, syn_scheme, PERIODS, SEED)
    sim_ok = (rerun.avg_mse == syn_run.avg_mse and rerun.stderr == syn_run.stderr)

    scheme, first = asyn_runs[0.005]
    second = sp.simulate_event_level(source, field, link, scheme, PERIODS, SEED)
    asyn_ok = second.avg_mse == first.avg_mse

    # byte-level: the same report serialized twice hashes identically
    def digest(rep):
        text = ",".join([repr(rep.avg_mse), repr(rep.stderr),
                         repr(rep.aux["mean_gap_s"])])
        return hashlib.sha256(text.encode()).hexdigest()

    byte_ok = digest(rerun) == digest(syn_run)
    ok = sim_ok and asyn_ok and byte_ok
    assert report(
        "criterion 10", ok,
        f"re-run equality syn {sim_ok}, asyn {asyn_ok}, serialized hash match "
        f"{byte_ok}")
