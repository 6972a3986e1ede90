"""Workload definitions: seeded configs generated from the bundled specs.

A workload seed selects one of ``VARIANTS`` input sets.  Variant v sets the
experiment ``seed`` to 1 + v and the field ``placement_seed`` to 7 + v in
every generated config, so variant 0 (the default seed) leaves each bundled
spec byte for byte unchanged.  The set is finite so that every variant has
reference values taken at the seed commit (``refs.json``).  The program
only ever sees the generated config files.
"""

from __future__ import annotations

import re
from pathlib import Path

from sptrecon import experiments, simulate

VARIANTS = 16

SPEC_DIR = Path(__file__).resolve().parent.parent / "src" / "sptrecon" / "specs"

# periods of the data-level oracle: 545 and 664 covariance entries at the
# default seed, well under the 2000-entry cap of simulate_data_level
DATA_LEVEL_PERIODS = 60

ORACLE_PERIODS = "1000000"

# workload -> list of (generated config name, bundled spec, key overrides);
# an override maps (section, key) to a value and appends missing keys
WORKLOADS = {
    "asyn_surface": [
        ("asyn_surface_short_shift", "asyn_surface_short_shift", {}),
    ],
    "adapt": [
        ("fig11_min_mse_vs_mssc", "fig11_min_mse_vs_mssc", {}),
    ],
    "oracle": [
        ("oracle_syn", "sim_vs_analytic_default", {
            ("experiment", "name"): "oracle_syn",
            ("sim", "periods"): ORACLE_PERIODS,
        }),
        ("oracle_asyn", "sim_vs_analytic_default", {
            ("experiment", "name"): "oracle_asyn",
            ("scheme", "scheme"): "asyn-infer",
            ("scheme", "time_shift_s"): "0.005",
            ("sim", "periods"): ORACLE_PERIODS,
        }),
    ],
    "small_specs": [
        ("fig4_syn_surface", "fig4_syn_surface", {}),
        ("regions_vs_period", "regions_vs_period", {}),
        ("sim_vs_analytic_default", "sim_vs_analytic_default", {}),
    ],
}

# workloads that also call the data-level oracle on each of their configs
DATA_LEVEL = {"oracle"}


def variant_of(seed):
    return seed % VARIANTS


def set_key(text, section, key, value):
    """Set ``key = value`` inside ``[section]``, keeping every other byte."""
    lines = text.split("\n")
    start = next(i for i, ln in enumerate(lines) if ln.strip() == f"[{section}]")
    end = next((i for i in range(start + 1, len(lines))
                if lines[i].startswith("[")), len(lines))
    pattern = re.compile(rf"^{re.escape(key)}\s*=")
    for i in range(start + 1, end):
        if pattern.match(lines[i]):
            lines[i] = f"{key} = {value}"
            return "\n".join(lines)
    insert = end
    while insert > start + 1 and not lines[insert - 1].strip():
        insert -= 1
    lines.insert(insert, f"{key} = {value}")
    return "\n".join(lines)


def bundled_text(spec):
    return (SPEC_DIR / f"{spec}.cfg").read_text()


def config_text(spec, overrides, variant):
    text = bundled_text(spec)
    for (section, key), value in overrides.items():
        text = set_key(text, section, key, value)
    text = set_key(text, "experiment", "seed", str(1 + variant))
    return set_key(text, "field", "placement_seed", str(7 + variant))


def write_configs(workload, variant, cfg_dir):
    """Write the workload's generated configs; returns [(name, path, spec)]."""
    cfg_dir.mkdir(parents=True, exist_ok=True)
    out = []
    for name, spec, overrides in WORKLOADS[workload]:
        path = cfg_dir / f"{name}.cfg"
        path.write_text(config_text(spec, overrides, variant))
        out.append((name, path, spec))
    return out


def run_iteration(workload, configs, out_dir):
    """One workload iteration: load and run every config, in order.

    Returns {"manifests": {name: manifest}, "data_level": {name: report}}.
    Functions are looked up on their modules at call time, so a tracer that
    has replaced them is seen.
    """
    manifests, data_level = {}, {}
    for name, path, _ in configs:
        spec = experiments.load_spec(path)
        manifests[name] = experiments.run_experiment(spec, out_dir)
        if workload in DATA_LEVEL:
            data_level[name] = simulate.simulate_data_level(
                spec.source, spec.field, spec.link, spec.scheme,
                periods=DATA_LEVEL_PERIODS, seed=spec.seed)
    return {"manifests": manifests, "data_level": data_level}


def fingerprint(result):
    """Everything an iteration produced, as comparable values."""
    files = {o["file"]: o["sha256"]
             for m in result["manifests"].values() for o in m["outputs"]}
    for name, rep in result["data_level"].items():
        files[f"data_level:{name}"] = (rep.avg_mse, rep.stderr,
                                       rep.aux["event_level_mse"])
    return files
