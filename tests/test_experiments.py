import csv
import json
import math

import pytest

import sptrecon as sp
from sptrecon.cli import main as cli_main
from sptrecon.errors import InvalidConfigError
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


def test_parse_point_spec():
    spec = parse_spec(POINT_SPEC)
    assert spec.name == "point_eval"
    assert spec.outputs == ["analytic"]
    assert spec.scheme.scheme is sp.Scheme.SYN_INFER
    assert spec.sweep == {}
    assert spec.sweep_points() == [{}]


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


def test_threaded_run_matches_serial(tmp_path):
    text = POINT_SPEC + "\n[sweep]\neps_bar = 0.1, 0.3, 0.5, 0.7\n"
    spec = parse_spec(text)
    run_experiment(spec, tmp_path / "serial", threads=1)
    run_experiment(spec, tmp_path / "pool", threads=4)
    assert ((tmp_path / "serial" / "point_eval_analytic.csv").read_bytes()
            == (tmp_path / "pool" / "point_eval_analytic.csv").read_bytes())


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


def test_trace_dump(tmp_path):
    text = SIM_SPEC.replace("periods = 8000", "periods = 20\ndump_trace = true")
    spec = parse_spec(text)
    manifest = run_experiment(spec, tmp_path)
    epath = tmp_path / "smallsim_events_0.csv"
    lines = epath.read_text().strip().splitlines()
    assert lines[0] == "period,sensor,t_start_s,gamma_r,success"
    assert len(lines) == 1 + 20 * 5
    assert any(o["file"] == "smallsim_events_0.csv" for o in manifest["outputs"])


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


def test_cli_list_specs(capsys):
    assert cli_main(["list-specs"]) == 0
    names = capsys.readouterr().out.split()
    assert "fig4_syn_surface" in names
    assert "fig11_min_mse_vs_mssc" in names


def test_bundled_specs_parse():
    for name in list_bundled_specs():
        spec = load_spec(name)
        assert spec.outputs


def test_seed_override(tmp_path):
    spec = load_spec("sim_vs_analytic_default", seed=123)
    assert spec.seed == 123


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
    pts = spec.sweep_points()
    assert len(pts) == 34 * 25
    # run a thinned copy end to end
    text = spec.raw_text.replace("linspace:0.001:0.99:34", "0.1, 0.5, 0.9")
    text = text.replace("linspace:0.02:1.0:25", "0.2, 0.8")
    thin = parse_spec(text)
    manifest = run_experiment(thin, tmp_path)
    assert manifest["outputs"][0]["rows"] == 6
