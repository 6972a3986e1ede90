import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import sptrecon as sp
from sptrecon import experiments
from sptrecon.cli import main as cli_main
from sptrecon.errors import (_SCALE_LIMITS, BracketError, InvalidConfigError,
                             InvariantError, RegionDegenerateError, ScaleLimitError)
from sptrecon.experiments import (
    ANALYTIC_COLUMNS,
    compare_report,
    list_bundled_specs,
    load_spec,
    parse_spec,
    run_experiment,
)

POINT_SPEC = """
[experiment]
name = point_eval
outputs = analytic
seed = 3

[source]
a_per_s = 2.0
b_per_m = 0.01

[field]
M = 5
half_width_m = 10.0
placement_seed = 7

[link]
N_blocklength = 80
gamma_r_bar_db = 5.0

[scheme]
scheme = syn-infer
period_s = 0.150
"""

SIM_SPEC = """
[experiment]
name = smallsim
outputs = analytic, simulate
seed = 2

[field]
M = 5
placement_seed = 7

[scheme]
scheme = syn-infer
period_s = 0.150

[sim]
periods = 8000
"""


def _sweep_points(spec):
    """The sweep's points, one axis -> value dict each, in row order: the
    Cartesian product of the axes in config order, the last axis fastest."""
    return [dict(zip(spec.sweep, values))
            for values in itertools.product(*spec.sweep.values())]


def test_parse_point_spec():
    spec = parse_spec(POINT_SPEC)
    assert spec.name == "point_eval"
    assert spec.outputs == ["analytic"]
    assert spec.scheme.scheme is sp.Scheme.SYN_INFER
    assert spec.sweep == {}
    assert _sweep_points(spec) == [{}]


def test_parse_rejects_bad_axis():
    with pytest.raises(InvalidConfigError):
        parse_spec(POINT_SPEC + "\n[sweep]\nbogus = 1, 2\n")


def test_parse_rejects_bad_output():
    with pytest.raises(InvalidConfigError):
        parse_spec(POINT_SPEC.replace("outputs = analytic", "outputs = nonsense"))


def test_point_evaluation_single_row(tmp_path):
    spec = parse_spec(POINT_SPEC)
    manifest = run_experiment(spec, tmp_path)
    csv_path = tmp_path / "point_eval_analytic.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == ",".join(ANALYTIC_COLUMNS)
    assert len(lines) == 2
    assert manifest["status"] == "complete"
    assert manifest["outputs"][0]["rows"] == 1


def test_sweep_rows_and_determinism(tmp_path):
    text = POINT_SPEC + "\n[sweep]\neps_bar = 0.1, 0.3, 0.5\nmssc = 0.2, 0.9\n"
    spec = parse_spec(text)
    m1 = run_experiment(spec, tmp_path / "a")
    m2 = run_experiment(spec, tmp_path / "b")
    f1 = (tmp_path / "a" / "point_eval_analytic.csv").read_bytes()
    f2 = (tmp_path / "b" / "point_eval_analytic.csv").read_bytes()
    assert f1 == f2
    assert m1["outputs"][0]["sha256"] == m2["outputs"][0]["sha256"]
    assert m1["outputs"][0]["rows"] == 6  # cartesian product in declared order


def test_manifest_lists_all_outputs_with_hashes(tmp_path):
    spec = parse_spec(SIM_SPEC)
    manifest = run_experiment(spec, tmp_path)
    listed = {o["file"] for o in manifest["outputs"]}
    assert listed == {"smallsim_analytic.csv", "smallsim_simulate.csv"}
    for entry in manifest["outputs"]:
        import hashlib
        digest = hashlib.sha256((tmp_path / entry["file"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]
    on_disk = json.loads((tmp_path / "smallsim.manifest.json").read_text())
    assert on_disk["status"] == "complete"
    assert on_disk["seed"] == 2


def test_compare_pass_and_injected_fault(tmp_path):
    spec = parse_spec(SIM_SPEC)
    run_experiment(spec, tmp_path)
    ana = tmp_path / "smallsim_analytic.csv"
    sim = tmp_path / "smallsim_simulate.csv"
    passed, rows = compare_report(ana, sim, rel_bound=0.01)
    assert passed and all(r["verdict"] == "pass" for r in rows)

    # identical inputs always pass
    passed_id, _ = compare_report(sim, sim)
    assert passed_id

    # perturb the analytic value by +10 percent: must fail with the row listed
    lines = ana.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    col = header.index("mse_analytic")
    row[col] = repr(float(row[col]) * 1.10)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([lines[0], ",".join(row)]) + "\n")
    passed_bad, rows_bad = compare_report(bad, sim, rel_bound=0.01)
    assert not passed_bad
    assert rows_bad[0]["verdict"] == "fail"


def test_compare_zero_or_nonfinite_stderr_needs_exact_match(tmp_path):
    ana = tmp_path / "ana.csv"
    ana.write_text("mse_analytic\n0.5\n0.5\n0.5\n0.5\n")
    sim = tmp_path / "sim.csv"
    sim.write_text("mse_mc,stderr\n0.5,0.0\n0.5000001,0.0\n0.5000001,inf\n"
                   "0.5000001,nan\n")
    passed, rows = compare_report(ana, sim)
    assert not passed
    assert [r["verdict"] for r in rows] == ["pass", "fail", "fail", "fail"]
    assert rows[0]["z_score"] == 0.0
    assert all(r["z_score"] == math.inf for r in rows[1:])


def test_simulate_needs_two_nonempty_batches(tmp_path):
    # one period puts every reception into a single batch
    text = SIM_SPEC.replace("scheme = syn-infer",
                            "scheme = asyn-infer\ntime_shift_s = 0.005")
    text = text.replace("outputs = analytic, simulate", "outputs = simulate")
    text = text.replace("periods = 8000", "periods = 1")
    text += "\n[link]\ngamma_r_bar_db = 30.0\n"
    with pytest.raises(InvalidConfigError, match="1 periods.*1 non-empty batches"):
        run_experiment(parse_spec(text), tmp_path)
    manifest = json.loads((tmp_path / "smallsim.manifest.json").read_text())
    assert manifest["status"] == "partial"


def test_asyn_surface_spec_rows_within_bounds(tmp_path):
    # MSSC sweep rows take the BLEP-axis bound from the substituted weights
    run_experiment(load_spec("asyn_surface_short_shift"), tmp_path)
    with open(tmp_path / "asyn_surface_short_shift_analytic.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 850
    outside = [i for i, r in enumerate(rows)
               if not float(r["mse_lb"]) <= float(r["mse_analytic"]) <= float(r["mse_ub"])]
    assert outside == []


# events-file SHA-256 of SIM_SPEC at 40 periods and 2 replicas, recorded
# when the file was written from per-attempt objects
FROZEN_EVENTS = {
    "no-infer": ("", 1 + 2 * 40,
                 "08b62c3e05ec60365e60602d8d52471f2098b0ab4ad55f398bcd33ea6251bf04"),
    "syn-infer": ("", 1 + 2 * 40 * 5,
                  "d24907113ee8b62a64ef569804cb41649b1711df15265bcaf9c2c6591d124165"),
    "asyn-infer": ("\ntime_shift_s = 0.005", 1 + 2 * 40 * 5,
                   "bf96f3587647b4081c61d2c2ab23ea6784de4043355fa3b08aa3b11fce30f967"),
}


@pytest.mark.parametrize("scheme", sorted(FROZEN_EVENTS))
def test_trace_dump(tmp_path, scheme):
    shift, n_lines, digest = FROZEN_EVENTS[scheme]
    text = SIM_SPEC.replace("periods = 8000", "periods = 40\ndump_trace = true")
    text = text.replace("seed = 2", "seed = 2\nreplicas = 2")
    text = text.replace("scheme = syn-infer", f"scheme = {scheme}{shift}")
    manifest = run_experiment(parse_spec(text), tmp_path)
    epath = tmp_path / "smallsim_events_0.csv"
    lines = epath.read_text().strip().splitlines()
    assert lines[0] == "period,sensor,t_start_s,gamma_r,success"
    assert len(lines) == n_lines
    assert any(o["file"] == "smallsim_events_0.csv" for o in manifest["outputs"])
    assert hashlib.sha256(epath.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("chunk", [1, 7, 400, 401])
def test_trace_dump_in_chunks(tmp_path, monkeypatch, chunk):
    # the events file is made, hashed and written chunk by chunk: any chunk
    # size gives the same bytes, and the manifest hashes what is on disk
    monkeypatch.setattr(experiments, "_CHUNK_ROWS", chunk)
    shift, n_lines, digest = FROZEN_EVENTS["asyn-infer"]
    text = SIM_SPEC.replace("periods = 8000", "periods = 40\ndump_trace = true")
    text = text.replace("seed = 2", "seed = 2\nreplicas = 2")
    text = text.replace("scheme = syn-infer", f"scheme = asyn-infer{shift}")
    manifest = run_experiment(parse_spec(text), tmp_path)
    entry = next(o for o in manifest["outputs"] if o["file"] == "smallsim_events_0.csv")
    data = (tmp_path / entry["file"]).read_bytes()
    assert hashlib.sha256(data).hexdigest() == entry["sha256"] == digest
    assert entry["rows"] == n_lines - 1


def test_sim_row_zero_stderr_follows_the_compare_rule(tmp_path):
    # at a = 1e6 /s every interval's error is sigma2 to the last bit, so the
    # batch means have no spread: an exact match has z = 0, as in compare
    text = load_spec("sim_vs_analytic_default").raw_text
    text = text.replace("a_per_s = 2.0", "a_per_s = 1e6")
    text = text.replace("periods = 100000", "periods = 3000")
    run_experiment(parse_spec(text), tmp_path)
    ana, sim = (tmp_path / f"sim_vs_analytic_default_{kind}.csv"
                for kind in ("analytic", "simulate"))
    row = _read_rows(sim)[0]
    assert [row[c] for c in ("mse_mc", "stderr", "mse_analytic", "z_score")] == [
        "1.0", "0.0", "1.0", "0.0"]
    assert compare_report(ana, sim)[0]


@pytest.mark.parametrize("old, new", [
    ("gamma_r_bar_db = 5.0", "gamma_r_bar_db = 1e6"),
    ("[sweep]", "[sweep]\ngamma_r_bar_db = 5, 4000"),
], ids=["link", "sweep"])
def test_snr_without_a_finite_linear_value_is_a_config_error(tmp_path, old, new):
    # 10^(dB/10) overflows a float above about 3083 dB, in the [link] key
    # and in a swept value alike
    text = load_spec("fig4_syn_surface").raw_text.replace(old, new)
    with pytest.raises(InvalidConfigError, match="gamma_r_bar_db"):
        run_experiment(parse_spec(text), tmp_path)


@pytest.mark.parametrize("spec, old, new, shown", [
    # a "complete" row with mse_lb = -0.159
    ("asyn_surface_short_shift", "mssc = linspace:0.02:1.0:25", "mssc = 0.5, 1.5", "1.5"),
    # winner asyn-infer
    ("regions_vs_period", "mssc = linspace:0.02:1.0:50", "mssc = nan", "nan"),
    # InvariantError with a partial manifest
    ("fig4_syn_surface", "mssc = linspace:0.02:1.0:25", "mssc = -1", "-1.0"),
    ("fig4_syn_surface", "mssc = linspace:0.02:1.0:25", "mssc = inf", "inf"),
    # failed only once the closed form ran
    ("fig4_syn_surface", "eps_bar = linspace:0.001:0.99:34", "eps_bar = 0.2, 1.5", "1.5"),
    ("fig4_syn_surface", "eps_bar = linspace:0.001:0.99:34", "eps_bar = -inf", "-inf"),
], ids=["mssc-1.5", "mssc-nan", "mssc-minus-1", "mssc-inf", "eps-1.5", "eps-minus-inf"])
def test_sweep_values_outside_the_unit_interval_fail_at_parse_time(spec, old, new,
                                                                   shown):
    text = load_spec(spec).raw_text
    assert old in text
    axis = new.split()[0]
    with pytest.raises(InvalidConfigError,
                       match=rf"sweep axis {axis} takes values in \[0, 1\], got {shown}$"):
        parse_spec(text.replace(old, new))


def test_mid_run_failure_writes_partial_manifest(tmp_path):
    # second sweep point carries an infeasible time shift
    text = SIM_SPEC.replace("scheme = syn-infer",
                            "scheme = asyn-infer\ntime_shift_s = 0.005")
    text = text.replace("outputs = analytic, simulate", "outputs = analytic")
    text += "\n[sweep]\nh_s = 0.005, 0.2\n"
    spec = parse_spec(text)
    with pytest.raises(InvalidConfigError):
        run_experiment(spec, tmp_path)
    manifest = json.loads((tmp_path / "smallsim.manifest.json").read_text())
    assert manifest["status"] == "partial"
    assert "error" in manifest


def test_cli_round_trip(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SIM_SPEC)
    out = tmp_path / "out"
    assert cli_main(["run", str(cfg), "--out-dir", str(out)]) == 0
    assert cli_main(["compare", str(out / "smallsim_analytic.csv"),
                     str(out / "smallsim_simulate.csv")]) == 0
    # exit 1 on config error
    bad = tmp_path / "bad.cfg"
    bad.write_text("[experiment]\noutputs = nonsense\n")
    assert cli_main(["run", str(bad), "--out-dir", str(out)]) == 1
    # exit 2 on acceptance failure
    lines = (out / "smallsim_analytic.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index("mse_analytic")] = "0.99"
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("\n".join([lines[0], ",".join(row)]) + "\n")
    assert cli_main(["compare", str(wrong),
                     str(out / "smallsim_simulate.csv")]) == 2


def test_cli_usage_error_exits_1(capsys):
    # 2 is reserved for a failed comparison
    assert cli_main(["run", "x", "--threads", "4"]) == 1
    assert "--threads" in capsys.readouterr().err
    assert cli_main(["no-such-command"]) == 1
    assert cli_main(["--help"]) == 0


def test_cli_compare_non_numeric_cell_is_config_error(tmp_path, capsys):
    spec = parse_spec(SIM_SPEC)
    run_experiment(spec, tmp_path)
    ana = tmp_path / "smallsim_analytic.csv"
    lines = ana.read_text().splitlines()
    header, row = lines[0].split(","), lines[1].split(",")
    row[header.index("mse_analytic")] = "n/a"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([lines[0], ",".join(row)]) + "\n")
    assert cli_main(["compare", str(bad), str(tmp_path / "smallsim_simulate.csv")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [("optimize", "include_exhaustive"),
                                          ("sim", "dump_trace")])
def test_boolean_keys_parse_or_fail_loudly(section, key):
    def spec_with(value):
        return parse_spec(POINT_SPEC + f"\n[{section}]\n{key} = {value}\n")

    for value, expected in (("true", True), ("Yes", True), ("on", True), ("1", True),
                            ("false", False), ("no", False), ("off", False), ("0", False)):
        assert getattr(spec_with(value), key) is expected
    assert getattr(parse_spec(POINT_SPEC), key) is False
    with pytest.raises(InvalidConfigError, match=key):
        spec_with("ture")


def test_cli_list_specs(capsys):
    assert cli_main(["list-specs"]) == 0
    names = capsys.readouterr().out.split()
    assert "fig4_syn_surface" in names
    assert "fig11_min_mse_vs_mssc" in names


def test_bundled_specs_parse():
    for name in list_bundled_specs():
        spec = load_spec(name)
        assert spec.outputs


# loads the package with scipy blocked, evaluates the Q-function model,
# runs every bundled spec and prints each run's status
_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from sptrecon import LinkParams, blep_instantaneous
from sptrecon.experiments import list_bundled_specs, load_spec, run_experiment
blep_instantaneous(LinkParams(), [0.5, 2.0])
print(json.dumps({name: run_experiment(load_spec(name), sys.argv[1] + "/" + name)["status"]
                  for name in list_bundled_specs()}))
"""


def test_bundled_specs_run_without_scipy(tmp_path):
    # SciPy is needed only by the tests: loading the package, the
    # Q-function model and every bundled spec must not import it
    src = Path(sp.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
                          capture_output=True, text=True, timeout=300,
                          env={"PYTHONPATH": str(src), "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    statuses = json.loads(proc.stdout)
    assert statuses == {name: "complete" for name in list_bundled_specs()}


def test_seed_override(tmp_path):
    spec = load_spec("sim_vs_analytic_default", seed=123)
    assert spec.seed == 123


@pytest.mark.parametrize("text, overrides, key", [
    ("seed = -1", {}, "seed"),
    ("replicas = 0", {}, "replicas"),
    ("replicas = -2", {}, "replicas"),
    ("[sim]\nperiods = 0", {}, "periods"),
    ("seed = 4", {"seed": -1}, "seed"),
    ("replicas = 2", {"replicas": 0}, "replicas"),
    ("", {"replicas": -1}, "replicas"),
])
def test_run_settings_below_their_floor_are_config_errors(text, overrides, key):
    # config keys and CLI overrides pass one check at parse time, not numpy's
    # seed error or an empty concatenate partway through a run
    with pytest.raises(InvalidConfigError, match=f"{key} must be at least"):
        parse_spec(f"[experiment]\n{text}\n", **overrides)
    assert parse_spec("[experiment]\n", seed=0, replicas=1).seed == 0


def test_blocklength_cap_below_the_floor_is_a_config_error():
    # at parse time, not after the analytic CSV of an optimize run
    with pytest.raises(InvalidConfigError, match="N_max=5 is below N_min=10"):
        parse_spec(POINT_SPEC + "\n[optimize]\nN_max = 5\n")
    with pytest.raises(InvalidConfigError, match="N_max=19 is below N_min=20"):
        parse_spec(POINT_SPEC + "\n[optimize]\nN_min = 20\nN_max = 19\n")
    assert parse_spec(POINT_SPEC + "\n[optimize]\nN_max = 10\n").optimizer.N_max == 10


def test_fig11_spec_thinned_run(tmp_path):
    spec = load_spec("fig11_min_mse_vs_mssc")
    text = spec.raw_text.replace(
        "b_per_m = 0.0, 0.002, 0.005, 0.01, 0.02, 0.04, 0.08, 0.15, 0.3",
        "b_per_m = 0.0, 0.02")
    text = text.replace("include_exhaustive = true", "include_exhaustive = false")
    thin = parse_spec(text)
    manifest = run_experiment(thin, tmp_path)
    rows = (tmp_path / "fig11_min_mse_vs_mssc_optimize.csv").read_text().splitlines()
    # three schemes per sweep point
    assert len(rows) == 1 + 2 * 3
    schemes = [r.split(",")[0] for r in rows[1:]]
    assert schemes == ["no-infer", "syn-infer", "asyn-infer"] * 2
    # per-point joint-optimizer traces present
    assert (tmp_path / "fig11_min_mse_vs_mssc_optimize_trace_0.csv").exists()
    assert (tmp_path / "fig11_min_mse_vs_mssc_optimize_trace_1.csv").exists()


def test_fig4_spec_grid_shape(tmp_path):
    spec = load_spec("fig4_syn_surface")
    assert len(_sweep_points(spec)) == 34 * 25
    # run a thinned copy end to end
    text = spec.raw_text.replace("linspace:0.001:0.99:34", "0.1, 0.5, 0.9")
    text = text.replace("linspace:0.02:1.0:25", "0.2, 0.8")
    thin = parse_spec(text)
    manifest = run_experiment(thin, tmp_path)
    assert manifest["outputs"][0]["rows"] == 6


SCHEME_SECTIONS = {
    "no-infer": "scheme = no-infer",
    "syn-infer": "scheme = syn-infer",
    "asyn-infer": "scheme = asyn-infer\ntime_shift_s = 0.005",
}


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _scalar_analytic_row(spec, point):
    """One analytic row from the public scalar closed forms and bounds."""
    source, field = spec.source, spec.field
    link = spec.link.with_blocklength(int(point["N"])) if "N" in point else spec.link
    scheme = spec.scheme
    if "T_period_s" in point:
        scheme = dataclasses.replace(scheme, T=point["T_period_s"])
    eps, rho = point.get("eps_bar"), point.get("mssc")
    val = sp.average_mse(source, field, link, scheme, eps_bar=eps, mssc_value=rho)
    weights = field
    if rho is not None and scheme.scheme is sp.Scheme.ASYN_INFER:
        weights = sp.scheme_weights(source, None, scheme, rho)
    lo, hi = sp.bounds(source, weights, link, scheme, sp.BoundAxis.BLEP, eps_bar=eps)
    return [link.N, scheme.T, sp.mssc(source, field) if rho is None else rho,
            sp.blep_average(link) if eps is None else eps, val, lo, hi]


@pytest.mark.parametrize("scheme", sorted(SCHEME_SECTIONS))
@pytest.mark.parametrize("sweep", [
    "mssc = 0.2, 0.9\neps_bar = 0.05, 0.4, 0.8",               # eps_bar last
    "eps_bar = 0.05, 0.4, 0.8\nmssc = 0.2, 0.9",               # eps_bar first
    "N = 60, 120\neps_bar = 0.05, 0.8\nmssc = 0.2, 0.9",       # eps_bar in the middle
    "eps_bar = 0.05, 0.8\nN = 60, 120\nmssc = 0.2, 0.9",       # N between eps_bar and mssc
    "T_period_s = 0.1, 0.15\neps_bar = 0.0, 0.3, 1.0",         # field weights
    "N = 60, 120\nmssc = 0.2, 0.9",                          # no eps_bar axis
])
def test_grouped_analytic_rows_equal_scalar_calls(tmp_path, scheme, sweep):
    text = POINT_SPEC.replace("scheme = syn-infer", SCHEME_SECTIONS[scheme])
    spec = parse_spec(text + "\n[sweep]\n" + sweep + "\n")
    run_experiment(spec, tmp_path)
    rows = _read_rows(tmp_path / "point_eval_analytic.csv")
    points = _sweep_points(spec)
    assert len(rows) == len(points)
    cols = ["N", "T", "mssc", "eps_bar", "mse_analytic", "mse_lb", "mse_ub"]
    for row, point in zip(rows, points):
        # bit for bit: the CSV holds repr of each float
        assert [float(row[c]) for c in cols] == _scalar_analytic_row(spec, point), point


def test_bounds_called_once_per_group_and_not_cached(tmp_path, monkeypatch):
    calls = []
    real = experiments.bounds

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "bounds", counting)
    spec = load_spec("asyn_surface_short_shift")
    for run in ("a", "b"):
        calls.clear()
        manifest = run_experiment(spec, tmp_path / run)
        assert manifest["outputs"][0]["rows"] == 34 * 25
        assert len(calls) == 1  # one per geometry, over all 25 mssc values, in both runs


def test_bound_violation_raises_and_leaves_partial_manifest(tmp_path, monkeypatch):
    real = experiments.bounds

    def lower_too_high(*args, **kwargs):
        lo, hi = real(*args, **kwargs)
        return hi, hi

    monkeypatch.setattr(experiments, "bounds", lower_too_high)
    text = POINT_SPEC + "\n[sweep]\neps_bar = 0.1, 0.5\n"
    with pytest.raises(InvariantError, match=r"outside its BLEP-axis bounds "
                       r"\[1\.0, 1\.0\] at sweep point \{'eps_bar': 0\.1\}"):
        run_experiment(parse_spec(text), tmp_path)
    manifest = json.loads((tmp_path / "point_eval.manifest.json").read_text())
    assert manifest["status"] == "partial"
    assert manifest["error"].startswith("InvariantError")


def test_asyn_surface_at_a_tiny_sigma2_stays_within_its_bounds(tmp_path):
    # at sigma2 = 1e-300 the slope of the whole MSE underflowed in its
    # complex step, the refine stopped off the root and the bound sat above
    # some rows; the rows scale with sigma2
    text = load_spec("asyn_surface_short_shift").raw_text
    run_experiment(parse_spec(text), tmp_path / "one")
    run_experiment(parse_spec(text.replace("sigma2_x = 1.0", "sigma2_x = 1e-300")),
                   tmp_path / "tiny")
    one, tiny = (_read_rows(tmp_path / d / "asyn_surface_short_shift_analytic.csv")
                 for d in ("one", "tiny"))
    for a, b in zip(one, tiny):
        for col in ("mse_analytic", "mse_lb", "mse_ub"):
            assert float(b[col]) / 1e-300 == pytest.approx(float(a[col]), rel=1e-12)


@pytest.mark.parametrize("sigma2", ["1e-300", "1e300"])
def test_sim_row_is_scale_free(tmp_path, sigma2):
    # at 1e300 the squared batch means overflowed and the row raised a wrong
    # batch-count error; at 1e-300 they underflowed to stderr 0 and z = inf
    text = load_spec("sim_vs_analytic_default").raw_text
    text = text.replace("periods = 100000", "periods = 2000")
    run_experiment(parse_spec(text), tmp_path / "one")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_experiment(parse_spec(text.replace("sigma2_x = 1.0", f"sigma2_x = {sigma2}")),
                       tmp_path / "scaled")
    one, scaled = (_read_rows(tmp_path / d / "sim_vs_analytic_default_simulate.csv")[0]
                   for d in ("one", "scaled"))
    assert float(scaled["stderr"]) / float(sigma2) == pytest.approx(
        float(one["stderr"]), rel=1e-12)
    assert float(scaled["z_score"]) == pytest.approx(float(one["z_score"]), rel=1e-12)


# the cells that hold an MSE, or its slope, in units of sigma2
_SIGMA2_COLUMNS = {"mse_analytic", "mse_lb", "mse_ub", "mse_mc", "stderr", "mse",
                   "residual_h", "residual_N"}


@pytest.mark.parametrize("e", [-900, 900])
def test_sigma2_scales_every_bundled_output_exactly(tmp_path, e):
    # the MSE is exactly linear in sigma2 and sigma2 is one multiply at the
    # edge, so at a power of two, where that multiply does not round, every
    # MSE-valued cell is 2^e times its sigma2 = 1 value bit for bit, and
    # every other cell (N, h, thresholds, z) is unchanged
    cells = 0
    for name in list_bundled_specs():
        text = load_spec(name).raw_text
        assert "sigma2_x = 1.0" in text
        run_experiment(parse_spec(text), tmp_path / "one" / name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_experiment(parse_spec(text.replace("sigma2_x = 1.0",
                                                   f"sigma2_x = {2.0 ** e!r}")),
                           tmp_path / "scaled" / name)
        files = sorted(f.name for f in (tmp_path / "one" / name).glob("*.csv"))
        assert files == sorted(f.name for f in (tmp_path / "scaled" / name).glob("*.csv"))
        for file in files:
            one, scaled = (_read_rows(tmp_path / d / name / file) for d in ("one", "scaled"))
            assert len(one) == len(scaled)
            for a, b in zip(one, scaled):
                assert a.keys() == b.keys()
                for col, text_one in a.items():
                    want = (repr(math.ldexp(float(text_one), e))
                            if col in _SIGMA2_COLUMNS and text_one else text_one)
                    assert b[col] == want, (file, col, text_one)
                    cells += 1
    assert cells > 20000


@pytest.mark.parametrize("old, new", [
    ("time_shift_s = 0.005", "time_shift_s = 1e300"),
    ("period_s = 0.150", "period_s = 1e300"),
    ("symbol_duration_s = 1e-4", "symbol_duration_s = 1e-300"),
], ids=["h", "T", "T_s"])
def test_a_blocklength_cap_past_the_integer_range_is_a_config_error(tmp_path, old, new):
    # the shifted cap (T - (M - 1) h) / T_s was cast to int with a
    # RuntimeWarning before the typed error
    text = load_spec("asyn_surface_short_shift").raw_text
    assert old in text
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidConfigError, match="blocklength cap"):
            run_experiment(parse_spec(text.replace(old, new)), tmp_path)


def test_a_saturated_adaptation_blep_raises_without_an_overflow(tmp_path):
    # at L/N > 709.78 exp(L/N) overflowed in the simplified BLEP before the
    # typed error
    text = load_spec("fig11_min_mse_vs_mssc").raw_text
    assert "L_bits = 160" in text
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BracketError, match="average BLEP saturated"):
            run_experiment(parse_spec(text.replace("L_bits = 160", "L_bits = 1e6")),
                           tmp_path)


def test_an_exhaustive_grid_past_the_budget_fails_before_scoring(tmp_path):
    # fig11 at a 7 s period scores 612 M (N, h) points, and ran past 25 s;
    # its exhaustive search raises at once and leaves a partial manifest
    text = load_spec("fig11_min_mse_vs_mssc").raw_text
    assert "period_s = 0.150" in text
    points = sp.expected_evaluation_count(7.0, 1e-4, 5)
    assert points == 612_307_515 > _SCALE_LIMITS["grid"][0]
    with pytest.raises(ScaleLimitError, match=f"grid would need {points} points"):
        run_experiment(parse_spec(text.replace("period_s = 0.150", "period_s = 7")),
                       tmp_path)
    manifest = json.loads((tmp_path / "fig11_min_mse_vs_mssc.manifest.json").read_text())
    assert manifest["status"] == "partial"
    assert manifest["error"].startswith("ScaleLimitError")


def test_an_empty_asyn_range_fails_before_any_scan(tmp_path, monkeypatch):
    # fig11 at M = 8000: even at the smallest shift h = T_s the shift time
    # (M - 1) T_s = 0.8 s passes the 0.15 s period, so no asyn blocklength
    # fits; jtsbo says so before the syn step or any exhaustive scan scores
    # the syn weights of 8,000 sensors (some 8 s)
    calls = []

    def scored(*args, **kwargs):
        calls.append(args[3].scheme)
        raise AssertionError(f"{args[3].scheme} scored before the asyn range was checked")

    monkeypatch.setattr(experiments, "exhaustive_search", scored)
    monkeypatch.setattr(experiments, "optimize_blocklength", scored)
    text = load_spec("fig11_min_mse_vs_mssc").raw_text
    assert "\nM = 5\n" in text
    with pytest.raises(InvalidConfigError, match=re.escape("empty blocklength range [10, -6499]")):
        run_experiment(parse_spec(text.replace("\nM = 5\n", "\nM = 8000\n")), tmp_path)
    assert calls == []


def test_an_empty_asyn_range_fails_before_any_weight_is_formed(tmp_path, monkeypatch):
    # fig11 at M = 1e6 formed every point's syn and asyn weights, some 2 s
    # and 265 MB of sorting and distance rows, before jtsbo found its range
    # empty; the range reads no weight, so it is checked first
    def formed(*args, **kwargs):
        raise AssertionError("weights formed before the asyn range was checked")

    monkeypatch.setattr(experiments, "scheme_weights", formed)
    text = load_spec("fig11_min_mse_vs_mssc").raw_text
    assert "\nM = 5\n" in text
    with pytest.raises(InvalidConfigError,
                       match=re.escape("empty blocklength range [10, -998499]")):
        run_experiment(parse_spec(text.replace("\nM = 5\n", "\nM = 1000000\n")), tmp_path)


# runs, in a process whose address space is capped at its first argument in
# bytes, each bundled spec at M = 1e6 sensors, the bundled sim at M = 8000
# and 2,000 periods, and eps_star_asyn on a vector of 3e5 weights; prints one
# "name: error type: message" or "name: ran" line per run
_UNDER_RLIMIT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]),) * 2)
import numpy as np
import sptrecon as sp
from sptrecon.experiments import list_bundled_specs, load_spec, parse_spec, run_experiment
def run(name, job):
    try:
        job()
        print(name + ": ran")
    except Exception as exc:
        print(f"{name}: {type(exc).__name__}: {exc}")
for name in list_bundled_specs():
    text = load_spec(name).raw_text.replace("\\nM = 5\\n", "\\nM = 1000000\\n")
    run(name, lambda: run_experiment(parse_spec(text), sys.argv[2] + "/" + name))
text = (load_spec("sim_vs_analytic_default").raw_text.replace("\\nM = 5\\n", "\\nM = 8000\\n")
        .replace("\\nperiods = 100000\\n", "\\nperiods = 2000\\n"))
run("sim at M = 8000", lambda: run_experiment(parse_spec(text), sys.argv[2] + "/m8000"))
link = sp.LinkParams(T_s=1e-9)
scheme = sp.SchemeConfig(sp.Scheme.ASYN_INFER, T=1.0, h=1e-9, M=300000, m=1)
run("eps_star_asyn", lambda: sp.eps_star_asyn(sp.SourceParams(), np.full(300000, 0.5),
                                              link, scheme))
"""


def test_a_million_sensors_is_a_scale_limit_before_any_array_is_sized(tmp_path):
    # at M = 1e6 an 850-row analytic sweep's (rows x M) weight stack would
    # take 6.33 GiB, the sim's per-period arrays 93.1 GiB and eps_star_asyn's
    # (512 x M) scan of 3e5 sensors 1.14 GiB; each raises before it is sized,
    # in a process whose address space is capped, so a guard that fails to
    # fire ends in MemoryError rather than taking the machine's memory.
    # fig11's asyn range is empty from M = 1,492 on, (M - 1) T_s passing
    # its period. No (M, M) array is sized: the sim at M = 8000 runs under
    # the cap
    src = Path(sp.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _UNDER_RLIMIT, str(768 << 20),
                           str(tmp_path)], capture_output=True, text=True, timeout=300,
                          env={"PYTHONPATH": str(src), "PATH": "", "OMP_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    got = dict(line.split(": ", 1) for line in proc.stdout.splitlines())
    stack = "ScaleLimitError: 850 analytic rows of 1000000 spatial weights would need 6.33 GiB"
    want = {
        "asyn_surface_short_shift": stack,
        "fig11_min_mse_vs_mssc": "InvalidConfigError: empty blocklength range [10, -998499]",
        "fig4_syn_surface": stack,
        # its thresholds read no weight: the time shift no longer fits first
        "regions_vs_period": "InvalidConfigError: time shift h=0.005 outside feasible band",
        "sim_vs_analytic_default": "ScaleLimitError: periods = 1e+05 would need 93.1 GiB "
                                   "of per-period arrays",
        "sim at M = 8000": "ran",
        "eps_star_asyn": "ScaleLimitError: the 512-point eps grid of 300000 sensors "
                         "would need 1.14 GiB",
    }
    assert sorted(got) == sorted(want)
    for name, start in want.items():
        assert got[name].startswith(start), (name, got[name])


def test_the_sensor_array_budget_is_inclusive(tmp_path, set_scale_limit):
    # a run may size exactly the budget: 8 bytes per weight of an analytic
    # group's rows
    spec = load_spec("fig4_syn_surface")
    set_scale_limit("sensor_bytes", 8 * 850 * 5)
    run_experiment(spec, tmp_path / "at")
    set_scale_limit("sensor_bytes", 8 * 850 * 5 - 1)
    with pytest.raises(ScaleLimitError, match="850 analytic rows of 5 spatial weights"):
        run_experiment(spec, tmp_path / "past")


def test_periods_times_replicas_past_the_budget_fails_before_any_draw(tmp_path,
                                                                     monkeypatch):
    # replicas = 1e6 of the bundled 1e5 periods ran past 20 s; a run at the
    # budget reaches its first draw, one replica or period more raises at
    # once, a replica counting as at least _REPLICA_PERIODS periods
    budget, floor = _SCALE_LIMITS["sim_periods"][0], experiments._REPLICA_PERIODS
    assert budget >= 1000 * 10 ** 6  # the oracle benchmark's 1e6 x 1, far below

    class Drawn(Exception):
        pass

    def draw(*args, **kwargs):
        raise Drawn

    monkeypatch.setattr(experiments, "simulate_event_level", draw)
    spec = load_spec("sim_vs_analytic_default")
    assert spec.periods == 100000
    for periods, replicas in ((budget // 64, 64), (1, budget // floor)):
        run = dataclasses.replace(spec, periods=periods, replicas=replicas)
        with pytest.raises(Drawn):
            run_experiment(run, tmp_path)
        for past in (dataclasses.replace(run, replicas=replicas + 1),
                     dataclasses.replace(run, periods=periods + 1) if periods > 1 else None):
            if past is None:
                continue
            with pytest.raises(ScaleLimitError, match="periods x replicas"):
                run_experiment(past, tmp_path)
    with pytest.raises(ScaleLimitError, match=r"= 100000 x 1000000, a replica counting as "
                       r"at least 4096 periods, would need 100000000000 period equivalents"):
        run_experiment(load_spec("sim_vs_analytic_default", replicas=10 ** 6), tmp_path)


@pytest.mark.parametrize("rows", [
    [[-0.0, 0.0, 1, 1.0, True, None, math.nan, math.inf, -math.inf]],
    [["a,b", 'say "hi"', "two\nlines", "", 'x",\n"y']],
    [[None], [""], [], ["", ""], [1e-300, 2.5e250, 0.1 + 0.2, 5e-324]],
    [["syn-infer", 3, "x"], ["syn-infer", 3, "y"]],
])
def test_csv_cells_are_written_as_csv_writer_writes_them(tmp_path, rows):
    # the written bytes, their hash and the row count, over two chunks, with
    # cell objects shared between rows as the grouped outputs share them
    shared = [0.1, "c,d", None]
    rows = [list(r) + shared for r in rows] + [shared, shared]
    _assert_written_as_csv_writer_writes(tmp_path / "t.csv", ["h1", "h2"], rows, 2)


def _assert_written_as_csv_writer_writes(path, header, rows, cut):
    """_write_csv of the rows' _cell texts, in two chunks split at ``cut``,
    gives csv.writer's bytes, their SHA-256 and the row count."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header] + rows)
    text = [[experiments._cell(v) for v in row] for row in rows]
    digest, n = experiments._write_csv(path, header, [text[:cut], text[cut:]])
    assert path.read_bytes() == buf.getvalue().encode()
    assert digest == hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert n == len(rows)


# every character that csv.writer treats apart (comma, quote, CR, LF) and some
# it does not (blanks, non-ASCII)
_CSV_TEXT = st.text(alphabet=',"\r\n \tab\xe9\u20ac', max_size=6)
_CSV_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), _CSV_TEXT,
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                     2.2250738585072014e-308 / 3, 1e16, 1e-5, 0.1 + 0.2]),
    st.floats().map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
)


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=st.lists(_CSV_TEXT, max_size=3),
       rows=st.lists(st.lists(_CSV_VALUES, max_size=5), max_size=8),
       cut=st.integers(0, 8))
@example(header=[""], rows=[[None], [""], [], [math.nan], ["a\rb"], ["\r"]], cut=1)
def test_cell_rule_writes_what_csv_writer_writes(tmp_path, header, rows, cut):
    # rows of one cell take csv.writer's own rule: a lone empty cell is ""
    _assert_written_as_csv_writer_writes(tmp_path / "t.csv", header, rows, cut)


def test_a_sweep_keeps_the_sign_of_zero(tmp_path):
    # the analytic surface formats each distinct eps_bar and MSSC once; -0.0
    # and 0.0 are two values there, each written as the sweep gave it
    text = POINT_SPEC + "\n[sweep]\neps_bar = 0.0, -0.0\nmssc = -0.0, 0.3, 0.0\n"
    run_experiment(parse_spec(text), tmp_path)
    rows = _read_rows(tmp_path / "point_eval_analytic.csv")
    assert [(r["eps_bar"], r["mssc"]) for r in rows] == [
        (e, m) for e in ("0.0", "-0.0") for m in ("-0.0", "0.3", "0.0")]


def _traced_sim_spec(scheme):
    """sim_vs_analytic_default at 2,000 periods with its events dumped."""
    text = load_spec("sim_vs_analytic_default").raw_text
    assert "periods = 100000" in text and "scheme = syn-infer" in text
    text = text.replace("periods = 100000", "periods = 2000")
    if scheme == "asyn":
        text = text.replace("scheme = syn-infer", "scheme = asyn-infer\ntime_shift_s = 0.005")
    return parse_spec(text + "dump_trace = true\n")


def _canonical_number(cell):
    """False when the cell reads as a number but is not written as
    str(int(cell)) or repr(float(cell))."""
    for kind, text in ((int, str), (float, repr)):
        try:
            return cell == text(kind(cell))
        except ValueError:
            pass
    return True  # not a number


@pytest.mark.parametrize("name", list_bundled_specs() + ["traced-syn", "traced-asyn"])
def test_every_output_cell_is_canonical(tmp_path, name):
    # every CSV a run writes (side files and the compare report too) reads back
    # through csv.reader and csv.writer as the same bytes, and each numeric
    # cell is the text the cell rule makes of a float or an int
    spec = _traced_sim_spec(name[7:]) if name.startswith("traced-") else load_spec(name)
    run_experiment(spec, tmp_path)
    if name == "sim_vs_analytic_default":
        compare_report(tmp_path / f"{name}_analytic.csv", tmp_path / f"{name}_simulate.csv",
                       out_path=tmp_path / "compare.csv")
    paths = sorted(tmp_path.glob("*.csv"))
    assert len(paths) == {"fig11_min_mse_vs_mssc": 10, "sim_vs_analytic_default": 3,
                          "traced-syn": 3, "traced-asyn": 3}.get(name, 1)
    for path in paths:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert buf.getvalue().encode() == path.read_bytes(), path.name
        bad = [c for row in rows[1:] for c in row if not _canonical_number(c)]
        assert not bad, (path.name, bad[:5])


@pytest.mark.parametrize("section, line, shown", [
    ("experiment", "seed = x", "seed in [experiment] must be an integer, got 'x'"),
    ("source", "sigma2_x = one", "sigma2_x in [source] must be a number, got 'one'"),
    ("scheme", "scheme = asyn", "scheme in [scheme] must be one of"),
    ("sweep", "mssc = 0.5, x", "mssc in [sweep] must be a comma list of numbers"),
])
def test_config_value_errors_name_the_key_and_its_section(tmp_path, capsys, section,
                                                          line, shown):
    path = tmp_path / "bad.cfg"
    path.write_text("[experiment]\n" + ("" if section == "experiment" else
                                         f"[{section}]\n") + line + "\n")
    with pytest.raises(InvalidConfigError, match=re.escape(shown)):
        load_spec(path)
    assert cli_main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error: " + shown)


@pytest.mark.parametrize("data, line, why", [
    (b"sensor_id, x_m, y_m\n1, 0.0, 0.0\n2, 0.0\n", 3, "got '2, 0.0'"),
    ("# seed = 4\n# caf\xe9\n1, 0.0, 0.0\n".encode("latin-1"), 2, "not UTF-8 text"),
], ids=["short-row", "not-utf8"])
def test_positions_file_errors_name_the_file_and_the_line(tmp_path, data, line, why):
    path = tmp_path / "positions.txt"
    path.write_bytes(data)
    with pytest.raises(InvalidConfigError,
                       match=re.escape(f"field file {str(path)!r} line {line}: ") + ".*"
                       + re.escape(why)):
        parse_spec(f"[experiment]\n[field]\npositions_file = {path}\n")


@pytest.mark.parametrize("scheme, M, sweep", [
    ("syn-infer", 5, "mssc = 0.5\neps_bar = 0.1, 1.5, 0.2"),   # bad eps mid-group
    ("asyn-infer", 5, "eps_bar = 0.1, 0.2\nh_s = 0.005, 0.2"),  # infeasible time shift
    ("syn-infer", 1, "mssc = 0.5\neps_bar = 0.1, 0.2"),        # MSSC form needs M >= 2
])
def test_batched_validation_still_raises(tmp_path, scheme, M, sweep):
    text = POINT_SPEC.replace("scheme = syn-infer", SCHEME_SECTIONS[scheme])
    text = text.replace("M = 5", f"M = {M}")
    # the sweep is set on the parsed spec, so the run's own checks must raise
    # (parse_spec already rejects eps_bar = 1.5)
    spec = parse_spec(text)
    spec.sweep = {key.strip(): experiments.parse_values(values)
                  for key, values in (line.split("=") for line in sweep.split("\n"))}
    with pytest.raises(InvalidConfigError):
        run_experiment(spec, tmp_path)
    manifest = json.loads((tmp_path / "point_eval.manifest.json").read_text())
    assert manifest["status"] == "partial"
    assert manifest["error"].startswith("InvalidConfigError")


def test_grouped_region_rows_equal_scalar_calls(tmp_path, monkeypatch):
    # at -10 dB no finite syn/asyn crossover exists (a degenerate group)
    text = POINT_SPEC.replace("outputs = analytic", "outputs = regions").replace(
        "scheme = syn-infer", SCHEME_SECTIONS["asyn-infer"])
    text += "\n[sweep]\nmssc = 0.1, 0.5, 0.95\ngamma_r_bar_db = -10, 5\n"
    spec = parse_spec(text)
    calls = {}
    real = experiments.threshold_asyn_over_syn

    def count(module, name):
        fn = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)

    for module, name in ((experiments, "threshold_asyn_over_syn"),
                         (experiments, "threshold_infer"), (sp.mse, "blep_average"),
                         (experiments, "blep_average")):
        count(module, name)
    run_experiment(spec, tmp_path)
    # once per gamma_r_bar_db value: each group forms its BLEP once, for
    # both thresholds
    assert calls == {"threshold_asyn_over_syn": 2, "threshold_infer": 2, "blep_average": 2}
    rows = _read_rows(tmp_path / "point_eval_regions.csv")
    points = _sweep_points(spec)
    assert len(rows) == len(points)
    for row, point in zip(rows, points):
        link = dataclasses.replace(spec.link,
                                   gamma_r_bar=10 ** (point["gamma_r_bar_db"] / 10.0))
        thr1 = sp.threshold_infer(spec.source, link, spec.scheme)
        try:
            thr2 = real(spec.source, link, spec.scheme)
            winner = sp.classify(point["mssc"], thr1, thr2).value
        except RegionDegenerateError as exc:
            assert not exc.always_superior
            thr2, winner = math.inf, "degenerate:syn/no"
        assert [float(row["mssc"]), float(row["thr1"]), float(row["thr2"]),
                row["winner"]] == [point["mssc"], thr1, thr2, winner]
    assert {r["winner"] for r in rows[::2]} == {"degenerate:syn/no"}


def test_swept_blocklength_must_be_an_integer(tmp_path):
    spec = parse_spec(POINT_SPEC + "\n[sweep]\nN = 80.7, 80.2\n")
    with pytest.raises(InvalidConfigError, match="must be an integer, got 80.7"):
        run_experiment(spec, tmp_path / "bad")
    run_experiment(parse_spec(POINT_SPEC + "\n[sweep]\nN = 80.0, 81\n"), tmp_path)
    with open(tmp_path / "point_eval_analytic.csv", newline="") as fh:
        assert [row["N"] for row in csv.DictReader(fh)] == ["80", "81"]


@pytest.mark.parametrize("section, key, whole", [
    ("field", "M", "5.0"), ("field", "placement_seed", "7.0"),
    ("field", "target_index", "2.0"), ("link", "N_blocklength", "8e1"),
    ("sim", "periods", "1e5"), ("optimize", "N_min", "20.0"),
    ("optimize", "N_max", "300.0"), ("optimize", "I_max", "4.0"),
])
def test_integer_keys_reject_fractions(section, key, whole):
    # a fractional value is an error, as for a swept N, not truncated;
    # a whole number written as a float stays valid
    def with_key(value):
        lines = [ln for ln in POINT_SPEC.splitlines()
                 if not ln.startswith(f"{key} =")]
        if f"[{section}]" not in lines:
            lines += ["", f"[{section}]"]
        i = lines.index(f"[{section}]") + 1
        return "\n".join(lines[:i] + [f"{key} = {value}"] + lines[i:])

    with pytest.raises(InvalidConfigError,
                       match=rf"{key} in \[{section}\] must be an integer, got 5\.5"):
        parse_spec(with_key("5.5"))
    spec = parse_spec(with_key(whole))
    if key == "periods":
        assert spec.periods == 100000 and isinstance(spec.periods, int)


@pytest.mark.parametrize("text, section, key", [
    (POINT_SPEC.replace("N_blocklength = 80", "N_blocklength = 80\nN_min = 30"),
     "link", "N_min"),
    (POINT_SPEC.replace("period_s = 0.150", "periods_s = 0.150"), "scheme", "periods_s"),
    (POINT_SPEC + "\n[optimise]\nI_max = 3\n", "optimise", None),
    (POINT_SPEC.replace("M = 5", "M = 5\ndensity_per_m2 = 0.02"), "field",
     "density_per_m2"),
], ids=["stale-link-floor", "misspelt-key", "misspelt-section", "stale-density"])
def test_unknown_config_keys_fail_at_parse_time(text, section, key):
    with pytest.raises(InvalidConfigError, match=rf"\[{section}\]") as err:
        parse_spec(text)
    if key is not None:
        assert repr(key) in str(err.value)


@pytest.mark.parametrize("output, axis", [
    ("simulate", "mssc"), ("simulate", "eps_bar"),
    ("optimize", "mssc"), ("optimize", "eps_bar"), ("optimize", "N"),
    ("optimize", "h_s"),
])
def test_outputs_reject_sweep_axes_they_cannot_honour(output, axis):
    # the row would carry the swept value but be computed without it
    text = SIM_SPEC.replace("outputs = analytic, simulate", f"outputs = {output}")
    text = text.replace("scheme = syn-infer", SCHEME_SECTIONS["asyn-infer"])
    with pytest.raises(InvalidConfigError, match=rf"{output}.*'{axis}'"):
        parse_spec(text + f"\n[sweep]\n{axis} = 0.1, 0.9\n")
    parse_spec(text.replace(f"outputs = {output}", "outputs = analytic")
               + f"\n[sweep]\n{axis} = 0.005, 0.01\n")


def test_blocklength_floor_is_the_optimizer_key(tmp_path):
    # at 55 dB the optimizers want about 20 channel uses; the one floor is
    # [optimize] N_min, and the stale [link] N_min is refused by name
    text = (POINT_SPEC.replace("outputs = analytic", "outputs = optimize")
            .replace("gamma_r_bar_db = 5.0", "gamma_r_bar_db = 55.0")
            .replace("scheme = syn-infer", SCHEME_SECTIONS["asyn-infer"]))
    with pytest.raises(InvalidConfigError, match=r"'N_min' in \[link\]"):
        parse_spec(text.replace("N_blocklength = 80", "N_blocklength = 80\nN_min = 30"))
    for floor, lowest in ((10, 20), (30, 30)):
        spec = parse_spec(text + f"\n[optimize]\nN_min = {floor}\ninclude_exhaustive = true\n")
        run_experiment(spec, tmp_path / str(floor))
        rows = _read_rows(tmp_path / str(floor) / "point_eval_optimize.csv")
        assert min(int(r["N"]) for r in rows) == lowest


# every SCHEMA key at a non-default value: (section, key, text, read, value)
NON_DEFAULT = [
    ("experiment", "name", "covered", lambda s: s.name, "covered"),
    ("experiment", "outputs", "analytic, regions", lambda s: s.outputs,
     ["analytic", "regions"]),
    ("experiment", "seed", "4", lambda s: s.seed, 4),
    ("experiment", "replicas", "3", lambda s: s.replicas, 3),
    ("source", "sigma2_x", "2.0", lambda s: s.source.sigma2_x, 2.0),
    ("source", "gamma_o", "7.0", lambda s: s.source.gamma_o, 7.0),
    ("source", "a_per_s", "3.0", lambda s: s.source.a, 3.0),
    ("source", "b_per_m", "0.05", lambda s: s.source.b, 0.05),
    ("field", "M", "4", lambda s: (s.field.n_sensors, s.scheme.M), (4, 4)),
    ("field", "half_width_m", "3.0", lambda s: s.field.positions.tolist(),
     sp.place_sensors(4, 3.0, seed=11).positions.tolist()),
    ("field", "placement_seed", "11", lambda s: s.field.seed, 11),
    ("field", "target_index", "2", lambda s: (s.field.target_index, s.scheme.m), (2, 2)),
    ("link", "L_bits", "200", lambda s: s.link.L, 200.0),
    ("link", "N_blocklength", "90", lambda s: s.link.N, 90),
    ("link", "symbol_duration_s", "2e-4", lambda s: s.link.T_s, 2e-4),
    ("link", "gamma_r_bar_db", "10", lambda s: s.link.gamma_r_bar, 10.0),
    ("scheme", "scheme", "asyn-infer", lambda s: s.scheme.scheme, sp.Scheme.ASYN_INFER),
    ("scheme", "period_s", "0.2", lambda s: s.scheme.T, 0.2),
    ("scheme", "time_shift_s", "0.004", lambda s: s.scheme.h, 0.004),
    ("sim", "periods", "500", lambda s: s.periods, 500),
    ("sim", "dump_trace", "yes", lambda s: s.dump_trace, True),
    ("optimize", "N_min", "20", lambda s: s.optimizer.N_min, 20),
    ("optimize", "N_max", "300", lambda s: s.optimizer.N_max, 300),
    ("optimize", "I_max", "5", lambda s: s.optimizer.I_max, 5),
    ("optimize", "include_exhaustive", "on", lambda s: s.include_exhaustive, True),
] + [("sweep", axis, "0.1, 0.2", lambda s, axis=axis: s.sweep.get(axis), [0.1, 0.2])
     for axis in sorted(experiments.SWEEPABLE)]


def _config(entries):
    sections = {}
    for section, key, text, *_ in entries:
        sections.setdefault(section, []).append(f"{key} = {text}")
    return "\n".join(f"[{s}]\n" + "\n".join(lines) for s, lines in sections.items())


def test_every_schema_key_reaches_its_object(tmp_path):
    covered = {(section, key) for section, key, *_ in NON_DEFAULT}
    schema = {(s, k) for s, keys in experiments.SCHEMA.items() for k in keys}
    assert schema - covered == {("field", "positions_file")}
    spec = parse_spec(_config(NON_DEFAULT))
    default = parse_spec("[experiment]\n")
    for section, key, _, read, value in NON_DEFAULT:
        assert read(spec) == value, (section, key)
        assert read(default) != value, (section, key)  # not the default
    assert default.optimizer == sp.OptimizerConfig()
    assert parse_spec("[experiment]\n[optimize]\nN_max = 0\n").optimizer.N_max is None
    with pytest.raises(InvalidConfigError, match=r"\[experiment\] section"):
        parse_spec("[source]\nb_per_m = 0.02\n")

    # positions_file loads a saved field, target included, and excludes
    # the placement keys
    saved = sp.place_sensors(4, 5.0, seed=3, target_index=2)
    path = tmp_path / "positions.txt"
    sp.save_field(saved, path)
    spec = parse_spec(f"[experiment]\n[field]\npositions_file = {path}\n")
    assert spec.field.positions.tolist() == saved.positions.tolist()
    assert (spec.field.target_index, spec.scheme.M, spec.scheme.m) == (2, 4, 2)
    with pytest.raises(InvalidConfigError, match="positions_file"):
        parse_spec(f"[experiment]\n[field]\npositions_file = {path}\nM = 4\n")


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_unreadable_spec_path_is_a_config_error(tmp_path, capsys, kind):
    why = {"directory": "Is a directory", "not_utf8": "not UTF-8 text"}[kind]
    path = tmp_path / "latin1.cfg"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes("[experiment]\nname = caf\xe9\n".encode("latin-1"))
    with pytest.raises(InvalidConfigError,
                       match=f"cannot read experiment config '{path}': {why}"):
        load_spec(path)
    assert cli_main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error: cannot read")


@pytest.mark.parametrize("periods", ["0.02", "0.008"])
def test_region_spec_outside_the_timing_rule_is_a_config_error(tmp_path, periods):
    # at T = 0.02 s the 5 ms shift leaves its band [1e-4, 0.003] s; at
    # T = 0.008 s the period equals the packet delay; average_mse rejects both
    text = load_spec("regions_vs_period").raw_text.replace(
        "T_period_s = 0.05, 0.1, 0.15, 0.25, 0.5", f"T_period_s = {periods}")
    message = {"0.02": "feasible band", "0.008": "packet delay"}[periods]
    with pytest.raises(InvalidConfigError, match=message):
        run_experiment(parse_spec(text), tmp_path)


def test_missing_positions_file_is_a_config_error(tmp_path):
    path = tmp_path / "absent.txt"
    with pytest.raises(InvalidConfigError, match=f"positions_file '{path}'"):
        parse_spec(f"[experiment]\n[field]\npositions_file = {path}\n")


@pytest.mark.parametrize("half_width", ["inf", "1e308"])
def test_unbounded_placement_region_is_a_config_error(half_width):
    with pytest.raises(InvalidConfigError, match="region_half_width"):
        parse_spec(f"[experiment]\n[field]\nhalf_width_m = {half_width}\n")


def test_placement_region_beyond_the_coordinate_bound_is_a_config_error():
    # finite, but sensors 1e307 m apart overflow their squared distance
    with pytest.raises(InvalidConfigError, match="at most 1e\\+150 m"):
        parse_spec("[experiment]\n[field]\nhalf_width_m = 1e307\n")


def test_non_finite_positions_file_is_a_config_error(tmp_path):
    path = tmp_path / "positions.txt"
    path.write_text("sensor_id, x_m, y_m\n1, 0.0, 0.0\n2, nan, 4.0\n")
    with pytest.raises(InvalidConfigError, match="coordinates must be finite"):
        parse_spec(f"[experiment]\n[field]\npositions_file = {path}\n")


@pytest.mark.parametrize("section, key", sorted(
    (s, k) for s, keys in experiments.SCHEMA.items() for k in keys))
def test_empty_value_is_an_error(section, key):
    # one rule for every key: an empty value never stands for the default
    with pytest.raises(InvalidConfigError, match=rf"{key} in \[{section}\] is empty"):
        parse_spec(f"[{section}]\n{key} =\n")


@pytest.mark.parametrize("values", [",", ", ,", "linspace:0:1:0"])
def test_empty_sweep_axis_is_an_error(values):
    # an axis with no values would give no sweep points and 0-row CSVs
    with pytest.raises(InvalidConfigError, match="sweep axis N has no values"):
        parse_spec(f"[experiment]\nname = z\n[sweep]\nN = {values}\n")


@pytest.mark.parametrize("section, key", [
    ("link", "L_bits"), ("link", "N_blocklength"), ("link", "symbol_duration_s"),
    ("link", "gamma_r_bar_db"), ("scheme", "period_s"), ("scheme", "time_shift_s")])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_link_and_scheme_values_are_config_errors(section, key, value):
    # caught where the objects are built, not as an OverflowError or a NaN
    # BLEP when the run starts
    with pytest.raises(InvalidConfigError):
        parse_spec(f"[experiment]\nname = z\n[{section}]\n{key} = {value}\n")


def test_no_infer_runs_once_per_spatial_group(tmp_path, monkeypatch):
    # the no-infer form reads no spatial weight: one step and one exhaustive
    # scan per b_per_m group; the syn step, jtsbo and the syn and asyn scans
    # are one stacked call per group; the rows are those per-point calls
    # would give
    calls = {"optimize_blocklength": [], "exhaustive_search": [], "jtsbo": []}
    for name, seen in calls.items():
        def counting(*args, _real=getattr(experiments, name), _seen=seen, **kwargs):
            _seen.append(args[3].scheme)
            return _real(*args, **kwargs)
        monkeypatch.setattr(experiments, name, counting)
    spec = load_spec("fig11_min_mse_vs_mssc")
    run_experiment(spec, tmp_path / "fig11")
    assert calls["optimize_blocklength"].count(sp.Scheme.NO_INFER) == 1
    assert calls["optimize_blocklength"].count(sp.Scheme.SYN_INFER) == 1
    assert calls["exhaustive_search"] == [sp.Scheme.NO_INFER, sp.Scheme.SYN_INFER,
                                          sp.Scheme.ASYN_INFER]
    assert calls["jtsbo"] == [sp.Scheme.ASYN_INFER]
    rows = _read_rows(tmp_path / "fig11" / "fig11_min_mse_vs_mssc_optimize.csv")
    assert len(rows) == 9 * 6
    no_cfg = sp.SchemeConfig(sp.Scheme.NO_INFER, T=spec.scheme.T, M=1, m=1)
    for b, group in zip(spec.sweep["b_per_m"], (rows[i:i + 6] for i in range(0, 54, 6))):
        source = dataclasses.replace(spec.source, b=b)
        step = sp.optimize_blocklength(source, spec.field, spec.link, no_cfg, spec.optimizer)
        scan = sp.exhaustive_search(source, spec.field, spec.link, no_cfg, spec.optimizer)
        for row, res in ((group[0], step), (group[3], scan)):
            assert row["scheme"].startswith("no-infer")
            assert (int(row["N"]), float(row["mse_analytic"])) == (res.N_star, res.mse_star)
            assert float(row["mssc"]) == sp.mssc(source, spec.field)

    # another axis splits the groups: one no-infer run per SNR value
    text = spec.raw_text.replace("b_per_m = 0.0, 0.002, 0.005, 0.01, 0.02, 0.04, "
                                 "0.08, 0.15, 0.3", "b_per_m = 0.0, 0.3\n"
                                 "gamma_r_bar_db = 5.0, 10.0")
    for seen in calls.values():
        seen.clear()
    two = parse_spec(text)
    run_experiment(two, tmp_path / "snr")
    assert [seen.count(sp.Scheme.NO_INFER) for seen in calls.values()] == [2, 2, 0]
    assert calls["optimize_blocklength"].count(sp.Scheme.SYN_INFER) == 2
    assert calls["exhaustive_search"].count(sp.Scheme.ASYN_INFER) == 2
    assert calls["jtsbo"] == [sp.Scheme.ASYN_INFER] * 2
    # each point's rows and trace, in sweep order (b_per_m slowest), are
    # those of a run of that point alone
    name = "fig11_min_mse_vs_mssc"
    rows = (tmp_path / "snr" / f"{name}_optimize.csv").read_text().splitlines()
    assert len(rows) == 1 + 4 * 6
    for i, (b, db) in enumerate(itertools.product(*two.sweep.values())):
        alone = dataclasses.replace(
            two, source=dataclasses.replace(two.source, b=b),
            link=dataclasses.replace(two.link, gamma_r_bar=10 ** (db / 10.0)), sweep={})
        run_experiment(alone, tmp_path / f"alone{i}")
        own = (tmp_path / f"alone{i}" / f"{name}_optimize.csv").read_text().splitlines()
        assert rows[1 + 6 * i:7 + 6 * i] == own[1:], (b, db)
        assert ((tmp_path / "snr" / f"{name}_optimize_trace_{i}.csv").read_bytes()
                == (tmp_path / f"alone{i}" / f"{name}_optimize_trace_0.csv").read_bytes())


def test_eps_bar_column_is_one_blep_call_per_spatial_group(tmp_path, monkeypatch):
    # a b_per_m group's eps_bar cells are one blep_average call over the N
    # of its rows, each cell the exact BLEP at its own row's N
    calls = []
    monkeypatch.setattr(experiments, "blep_average", lambda link, N, _real=sp.blep_average:
                        calls.append(list(N)) or _real(link, N=N))
    spec = load_spec("fig11_min_mse_vs_mssc")
    two = parse_spec(spec.raw_text.replace(
        "b_per_m = 0.0, 0.002, 0.005, 0.01, 0.02, 0.04, 0.08, 0.15, 0.3",
        "b_per_m = 0.0, 0.3\ngamma_r_bar_db = 5.0, 10.0"))
    run_experiment(two, tmp_path)
    rows = _read_rows(tmp_path / "fig11_min_mse_vs_mssc_optimize.csv")
    points = list(itertools.product(*two.sweep.values()))  # b_per_m slowest
    assert len(rows) == 6 * len(points) and len(calls) == 2
    for g, db in enumerate(two.sweep["gamma_r_bar_db"]):
        link = dataclasses.replace(two.link, gamma_r_bar=10 ** (db / 10.0))
        group = [row for i, p in enumerate(points) if p[1] == db
                 for row in rows[6 * i:6 * i + 6]]
        assert calls[g] == [int(row["N"]) for row in group]
        for row in group:
            assert float(row["eps_bar"]) == sp.blep_average(
                link.with_blocklength(int(row["N"])))
