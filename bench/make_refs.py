"""Regenerate bench/refs.json from the current sources.

    python3 bench/make_refs.py

Run this only at a commit whose outputs are the accepted behaviour: the
file freezes the value columns of every workload for every variant, and
records which rows fail the two known-defect checks there.  Any other
failed check aborts, so no other failure can be recorded as known.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def main():
    base = ROOT / ".bench_work" / "make_refs"
    by_variant, known = {}, {}
    for variant in range(workloads.VARIANTS):
        projections, failures = {}, {kind: [] for kind in checks.KNOWN_DEFECT_KINDS}
        for workload in workloads.WORKLOADS:
            work = base / workload
            shutil.rmtree(work, ignore_errors=True)
            configs = workloads.write_configs(workload, variant, work / "cfg")
            result = workloads.run_iteration(workload, configs, work / "out")
            records, proj = checks.output_checks(result, work / "out", None)
            records += checks.bundled_checks(result, configs, variant,
                                             workloads.bundled_text)
            for kind, key, ok in records:
                if ok:
                    continue
                if kind not in failures:
                    sys.exit(f"variant {variant}: {kind} {key} failed")
                failures[kind].append(key)
            projections.update(proj)
        by_variant[str(variant)] = projections
        known[str(variant)] = {kind: checks.group_keys(keys)
                                for kind, keys in failures.items()}
        print(f"variant {variant}: " + ", ".join(
            f"{k} {len(v)}" for k, v in failures.items()), flush=True)

    first = by_variant["0"]
    shared = {key: value for key, value in first.items()
              if all(v.get(key) == value for v in by_variant.values())}
    for projections in by_variant.values():
        for key in shared:
            del projections[key]
    refs = {"variants": workloads.VARIANTS, "rel_tol": checks.REL_TOL,
            "shared": shared, "by_variant": by_variant,
            "known_failures": known}
    checks.REFS_PATH.write_text(json.dumps(refs, separators=(",", ":")) + "\n")
    shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    main()
