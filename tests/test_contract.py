"""The output contract across processes: checks that need a fresh
interpreter with its own environment, each run in a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

import sptrecon as sp
from sptrecon.experiments import load_spec

SRC = Path(sp.__file__).resolve().parents[1]

# runs, through the command-line entry point, every bundled spec and then the
# config at its second argument, each into its own folder under the first;
# exits nonzero at the first run that fails
_RUN_ALL = """
import sys
from sptrecon.cli import main
from sptrecon.experiments import list_bundled_specs
out, traced = sys.argv[1:]
names = list_bundled_specs()
if not names:
    sys.exit("no bundled spec")
for name, spec in [*zip(names, names), ("traced", traced)]:
    if main(["run", spec, "--out-dir", f"{out}/{name}"]):
        sys.exit(f"{name} failed")
"""


def _files(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def test_same_bytes_from_a_second_process(tmp_path):
    # every bundled spec and a traced dump of the sim at 2,000 periods,
    # run in two processes under different string-hash seeds, with warnings
    # as errors, write the same files, manifests included; the other tests
    # check determinism only within one process
    text = load_spec("sim_vs_analytic_default").raw_text
    assert "\nperiods = 100000\n" in text
    traced = tmp_path / "traced.cfg"
    traced.write_text(text.replace("\nperiods = 100000\n", "\nperiods = 2000\n")
                      + "dump_trace = true\n")
    trees = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"hash{hash_seed}"
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed,
               "PYTHONWARNINGS": "error"}
        proc = subprocess.run([sys.executable, "-c", _RUN_ALL, str(out), str(traced)],
                              capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        trees.append(out)
    first, again = trees
    assert sum(name.endswith(".manifest.json") for name in _files(again)) == 6
    assert _files(first) == _files(again)
    for name in _files(again):
        assert (first / name).read_bytes() == (again / name).read_bytes(), name
