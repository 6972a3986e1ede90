"""The output contract across processes: checks that need a fresh
interpreter with its own environment, each run in a subprocess."""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sptrecon as sp
from sptrecon.experiments import list_bundled_specs, load_spec

SRC = Path(sp.__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

# makes SciPy unimportable before sptrecon is imported: only the tests
# need it, so every run and compare below checks that the package does not
_CLI_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from sptrecon.cli import main
"""

# runs, through the command-line entry point, each (spec, output folder)
# pair of its arguments in turn; exits nonzero at the first run that fails
_RUN = _CLI_WITHOUT_SCIPY + """
for spec, out in zip(sys.argv[1::2], sys.argv[2::2]):
    if main(["run", spec, "--out-dir", out]):
        sys.exit(f"{spec} failed")
"""


def _run(runs, **env):
    """Runs the (spec, output folder) pairs in a fresh interpreter with
    warnings as errors and ``env`` on top of this one's environment, where
    a None value unsets the variable; returns the finished process."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONWARNINGS": "error", **env}
    proc = subprocess.run([sys.executable, "-c", _RUN, *map(str, sum(runs, ()))],
                          capture_output=True, text=True, timeout=300,
                          env={k: v for k, v in env.items() if v is not None})
    assert proc.returncode == 0, proc.stderr
    return proc


def _variant(path, name, *edits):
    """Writes to ``path`` and returns it: the bundled spec ``name`` with
    each (old, new) line replaced, every old line being in the spec."""
    text = load_spec(name).raw_text
    for old, new in edits:
        assert f"\n{old}\n" in text, old
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
    path.write_text(text)
    return path


def _files(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def test_same_bytes_from_a_second_process(tmp_path):
    # every bundled spec and a traced dump of the sim at 2,000 periods,
    # run in two processes under different string-hash seeds, with warnings
    # as errors, write the same files, manifests included; the other tests
    # check determinism only within one process
    traced = _variant(tmp_path / "traced.cfg", "sim_vs_analytic_default",
                      ("periods = 100000", "periods = 2000\ndump_trace = true"))
    names = list_bundled_specs()
    assert names
    trees = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"hash{hash_seed}"
        _run([*((name, out / name) for name in names), (traced, out / "traced")],
             PYTHONHASHSEED=hash_seed)
        trees.append(out)
    first, again = trees
    assert sum(name.endswith(".manifest.json") for name in _files(again)) == 6
    assert _files(first) == _files(again)
    for name in _files(again):
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


def _cell_moves(old, new):
    """(moved cells, largest relative move) of a CSV text against its golden
    text.  A numeric cell moves by |a - b| / max(|a|, |b|), a non-finite or
    non-numeric one by inf, and so does each cell of a row that is missing
    or of another length."""
    moved, largest = 0, 0.0
    rows = (csv.reader(io.StringIO(text)) for text in (old, new))
    for a_row, b_row in itertools.zip_longest(*rows, fillvalue=()):
        if len(a_row) != len(b_row):
            moved, largest = moved + max(len(a_row), len(b_row)), math.inf
            continue
        for a, b in zip(a_row, b_row):
            if a == b:
                continue
            moved += 1
            try:
                x, y = float(a), float(b)
            except ValueError:
                x = y = math.inf
            finite = math.isfinite(x) and math.isfinite(y)
            largest = max(largest, abs(x - y) / max(abs(x), abs(y)) if finite else math.inf)
    return moved, largest


def test_bundled_outputs_match_the_golden_files(tmp_path):
    # the output contract as committed files: every bundled spec, run with
    # SciPy blocked, writes the files under golden/.  On the numpy
    # major.minor that wrote them (golden/versions.json) every byte must
    # match; on another, every numeric CSV cell must lie within 1e-12
    # relative and every other cell and manifest line must match, each
    # output's SHA-256 aside.  A change that moves bytes re-writes golden/
    # in the same diff (`sptrecon run <spec> --out-dir tests/golden/<spec>`
    # for every bundled spec, and versions.json) and lists the moves
    names = list_bundled_specs()
    assert names
    _run([(name, tmp_path / name) for name in names])
    written = json.loads((GOLDEN / "versions.json").read_text())
    exact = np.__version__.split(".")[:2] == written["numpy"].split(".")[:2]
    files = _files(tmp_path)
    assert files == [f for f in _files(GOLDEN) if f != "versions.json"]
    moved = []
    for name in files:
        old, new = ((root / name).read_bytes().decode() for root in (GOLDEN, tmp_path))
        if old == new:
            continue
        if name.endswith(".csv"):
            count, largest = _cell_moves(old, new)
            if exact or largest > 1e-12:
                moved.append(f"{name}: {count} cells moved, the largest by {largest:.3g}"
                             " relative")
            continue
        lines = [(a, b) for a, b in itertools.zip_longest(old.splitlines(), new.splitlines())
                 if a != b and (exact or '"sha256"' not in f"{a}{b}")]
        if lines:
            moved.append(f"{name}: {len(lines)} lines moved, the first {lines[0]}")
    assert not moved, (f"numpy {np.__version__} against golden numpy {written['numpy']}:\n"
                       + "\n".join(moved))


def _numpy_links_openblas():
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        np.show_config()
    return "openblas" in text.getvalue().lower()


def test_same_bundled_bytes_on_the_avx2_blas_kernel(tmp_path):
    # every bundled spec writes the same files, manifests included, on the
    # kernel this CPU picks and on OpenBLAS's Haswell (AVX2) kernel, which
    # some CI runners pick: no output byte depends on a BLAS kernel's
    # summation order
    names = list_bundled_specs()
    assert names
    default, haswell = tmp_path / "default", tmp_path / "haswell"
    _run([(name, default / name) for name in names], OPENBLAS_CORETYPE=None)
    proc = _run([(name, haswell / name) for name in names],
                OPENBLAS_CORETYPE="Haswell", OPENBLAS_VERBOSE="2")
    if _numpy_links_openblas():  # else the variables are no-ops
        assert "Core: Haswell" in proc.stderr, proc.stderr
    assert sum(name.endswith(".manifest.json") for name in _files(default)) == len(names)
    assert _files(default) == _files(haswell)
    for name in _files(default):
        assert (default / name).read_bytes() == (haswell / name).read_bytes(), name


def test_the_asyn_surface_runs_at_a_tiny_source_variance(tmp_path):
    # every closed form, bound, slope and oracle integral is computed at unit
    # variance and sigma2 is one multiply where a value leaves the package,
    # so at sigma2 = 1e-300 the bound's refine sees the slopes of sigma2 = 1
    # and every row stays within its bounds, with no warning
    spec = _variant(tmp_path / "tiny_sigma2.cfg", "asyn_surface_short_shift",
                    ("sigma2_x = 1.0", "sigma2_x = 1e-300"))
    _run([(spec, tmp_path / "out")])


def test_adaptation_residuals_stay_nonzero_at_a_tiny_source_variance(tmp_path):
    # each slope is the complex step of the unit-variance objective, times
    # sigma2, so at sigma2 = 1e-300 each jtsbo trace residual is finite and
    # nonzero (the smallest about 7e-316), none underflowed to 0
    spec = _variant(tmp_path / "tiny_sigma2.cfg", "fig11_min_mse_vs_mssc",
                    ("sigma2_x = 1.0", "sigma2_x = 1e-300"))
    _run([(spec, tmp_path / "out")])
    files = sorted((tmp_path / "out").glob("*_optimize_trace_*.csv"))
    cells = [float(row[c]) for f in files
             for row in csv.DictReader(f.read_text().splitlines())
             for c in ("residual_h", "residual_N")]
    assert cells and all(math.isfinite(x) and x != 0 for x in cells), min(map(abs, cells),
                                                                          default=None)


def test_the_sim_z_score_stays_finite_at_extreme_source_variances(tmp_path):
    # the oracle's batch means are errors in units of sigma2, in
    # [1/(gamma_o + 1), 1], so their squares neither overflow nor underflow
    # and the z-score stays finite at sigma2 = 1e300 and 1e-300
    runs = [(_variant(tmp_path / f"sim_{s2}.cfg", "sim_vs_analytic_default",
                      ("sigma2_x = 1.0", f"sigma2_x = {s2}"),
                      ("periods = 100000", "periods = 2000")), tmp_path / s2)
            for s2 in ("1e300", "1e-300")]
    _run(runs)
    for _, out in runs:
        with open(out / "sim_vs_analytic_default_simulate.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert math.isfinite(float(row["z_score"])), (out.name, row)


def test_compare_passes_on_the_bundled_simulation(tmp_path):
    # the bundled sim row's z-score and `sptrecon compare` follow one rule,
    # so compare accepts the bundled spec's own analytic and simulate CSVs
    out = tmp_path / "out"
    _run([("sim_vs_analytic_default", out)])
    csvs = [out / f"sim_vs_analytic_default_{kind}.csv" for kind in ("analytic", "simulate")]
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONWARNINGS": "error"}
    script = _CLI_WITHOUT_SCIPY + "sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", script, "compare", *map(str, csvs)],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("scheme", [
    "scheme = syn-infer", "scheme = asyn-infer\ntime_shift_s = 0.005"])
def test_a_traced_dump_is_the_file_its_manifest_names(tmp_path, scheme):
    # the events file is written from the oracle's trace arrays, 2,000
    # periods x 5 sensors, one row per packet attempt, in chunks of rows;
    # the manifest's SHA-256, taken chunk by chunk, is that of the bytes
    spec = _variant(tmp_path / "traced.cfg", "sim_vs_analytic_default",
                    ("scheme = syn-infer", scheme),
                    ("periods = 100000", "periods = 2000\ndump_trace = true"))
    out = tmp_path / "out"
    _run([(spec, out)])
    events = out / "sim_vs_analytic_default_events_0.csv"
    assert events.read_bytes().count(b"\n") == 10_001  # as wc -l counts
    manifest = json.loads((out / "sim_vs_analytic_default.manifest.json").read_text())
    entry = next(o for o in manifest["outputs"] if o["file"] == events.name)
    assert entry["sha256"] == hashlib.sha256(events.read_bytes()).hexdigest()
