import csv
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import sptrecon as sp
from sptrecon import experiments
from sptrecon.cli import main as cli_main
from sptrecon.errors import InvalidConfigError, InvariantError, RegionDegenerateError
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
    pts = spec.sweep_points()
    assert len(pts) == 34 * 25
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
        weights = sp.mssc_weights(scheme.M, scheme.m, rho)
    lo, hi = sp.bounds(source, weights, link, scheme, sp.BoundAxis.BLEP, eps_bar=eps)
    return [link.N, scheme.T, sp.mssc(source, field) if rho is None else rho,
            sp.blep_average(link) if eps is None else eps, val, lo, hi]


@pytest.mark.parametrize("scheme", sorted(SCHEME_SECTIONS))
@pytest.mark.parametrize("sweep", [
    "mssc = 0.2, 0.9\neps_bar = 0.05, 0.4, 0.8",               # eps_bar last
    "eps_bar = 0.05, 0.4, 0.8\nmssc = 0.2, 0.9",               # eps_bar first
    "N = 60, 120\neps_bar = 0.05, 0.8\nmssc = 0.2, 0.9",       # eps_bar in the middle
    "T_period_s = 0.1, 0.15\neps_bar = 0.0, 0.3, 1.0",         # field weights
    "N = 60, 120\nmssc = 0.2, 0.9",                          # no eps_bar axis
])
def test_grouped_analytic_rows_equal_scalar_calls(tmp_path, scheme, sweep):
    text = POINT_SPEC.replace("scheme = syn-infer", SCHEME_SECTIONS[scheme])
    spec = parse_spec(text + "\n[sweep]\n" + sweep + "\n")
    run_experiment(spec, tmp_path)
    rows = _read_rows(tmp_path / "point_eval_analytic.csv")
    points = spec.sweep_points()
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
        assert len(calls) == 25  # one per mssc value, in both runs


def test_bound_violation_raises_and_leaves_partial_manifest(tmp_path, monkeypatch):
    real = experiments.bounds

    def lower_too_high(*args, **kwargs):
        lo, hi = real(*args, **kwargs)
        return hi, hi

    monkeypatch.setattr(experiments, "bounds", lower_too_high)
    text = POINT_SPEC + "\n[sweep]\neps_bar = 0.1, 0.5\n"
    with pytest.raises(InvariantError, match="outside its BLEP-axis bounds"):
        run_experiment(parse_spec(text), tmp_path)
    manifest = json.loads((tmp_path / "point_eval.manifest.json").read_text())
    assert manifest["status"] == "partial"
    assert manifest["error"].startswith("InvariantError")


@pytest.mark.parametrize("scheme, M, sweep", [
    ("syn-infer", 5, "mssc = 0.5\neps_bar = 0.1, 1.5, 0.2"),   # bad eps mid-group
    ("asyn-infer", 5, "eps_bar = 0.1, 0.2\nh_s = 0.005, 0.2"),  # infeasible time shift
    ("syn-infer", 1, "mssc = 0.5\neps_bar = 0.1, 0.2"),        # MSSC form needs M >= 2
])
def test_batched_validation_still_raises(tmp_path, scheme, M, sweep):
    text = POINT_SPEC.replace("scheme = syn-infer", SCHEME_SECTIONS[scheme])
    text = text.replace("M = 5", f"M = {M}")
    with pytest.raises(InvalidConfigError):
        run_experiment(parse_spec(text + "\n[sweep]\n" + sweep + "\n"), tmp_path)
    manifest = json.loads((tmp_path / "point_eval.manifest.json").read_text())
    assert manifest["status"] == "partial"
    assert manifest["error"].startswith("InvalidConfigError")


def test_grouped_region_rows_equal_scalar_calls(tmp_path, monkeypatch):
    # at -10 dB no finite syn/asyn crossover exists (a degenerate group)
    text = POINT_SPEC.replace("outputs = analytic", "outputs = regions").replace(
        "scheme = syn-infer", SCHEME_SECTIONS["asyn-infer"])
    text += "\n[sweep]\nmssc = 0.1, 0.5, 0.95\ngamma_r_bar_db = -10, 5\n"
    spec = parse_spec(text)
    calls = []
    real = experiments.threshold_asyn_over_syn

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "threshold_asyn_over_syn", counting)
    run_experiment(spec, tmp_path)
    assert len(calls) == 2  # once per gamma_r_bar_db value
    rows = _read_rows(tmp_path / "point_eval_regions.csv")
    points = spec.sweep_points()
    assert len(rows) == len(points)
    for row, point in zip(rows, points):
        link = dataclasses.replace(spec.link,
                                   gamma_r_bar=10 ** (point["gamma_r_bar_db"] / 10.0))
        thr1 = sp.threshold_infer(spec.source, link, spec.scheme)
        try:
            thr2 = real(spec.source, link, spec.scheme)
            winner = sp.classify(point["mssc"], sp.RegionThresholds(thr1, thr2)).value
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

    with pytest.raises(InvalidConfigError, match=f"{key} must be an integer, got 5.5"):
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


def test_missing_positions_file_is_a_config_error(tmp_path):
    path = tmp_path / "absent.txt"
    with pytest.raises(InvalidConfigError, match=f"positions_file '{path}'"):
        parse_spec(f"[experiment]\n[field]\npositions_file = {path}\n")


@pytest.mark.parametrize("half_width", ["inf", "1e308"])
def test_unbounded_placement_region_is_a_config_error(half_width):
    with pytest.raises(InvalidConfigError, match="region_half_width"):
        parse_spec(f"[experiment]\n[field]\nhalf_width_m = {half_width}\n")


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
    # scan per b_per_m group, the rows as per-point calls would give them
    calls = {"optimize_blocklength": [], "exhaustive_search": []}
    for name, seen in calls.items():
        def counting(*args, _real=getattr(experiments, name), _seen=seen, **kwargs):
            _seen.append(args[3].scheme)
            return _real(*args, **kwargs)
        monkeypatch.setattr(experiments, name, counting)
    spec = load_spec("fig11_min_mse_vs_mssc")
    run_experiment(spec, tmp_path / "fig11")
    for seen in calls.values():
        assert seen.count(sp.Scheme.NO_INFER) == 1
        assert seen.count(sp.Scheme.SYN_INFER) == 9
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
    run_experiment(parse_spec(text), tmp_path / "snr")
    assert [seen.count(sp.Scheme.NO_INFER) for seen in calls.values()] == [2, 2]
