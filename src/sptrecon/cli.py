"""Command-line entry point.

    sptrecon run <spec-file-or-name> [--seed S] [--out-dir D] [--replicas R]
    sptrecon compare <analytic.csv> <sim.csv> [--rel-bound B] [--out FILE]
    sptrecon list-specs

Exit codes: 0 success, 1 usage or configuration error (or a failed run),
2 comparison failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import InvalidConfigError
from .experiments import compare_report, list_bundled_specs, load_spec, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sptrecon", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("spec", help="path to a .cfg file or a bundled spec name")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out-dir", default=".")
    p_run.add_argument("--replicas", type=int, default=None)

    p_cmp = sub.add_parser("compare", help="check a simulation CSV against an analytic CSV")
    p_cmp.add_argument("analytic_csv")
    p_cmp.add_argument("sim_csv")
    p_cmp.add_argument("--rel-bound", type=float, default=0.01)
    p_cmp.add_argument("--out", default=None)

    sub.add_parser("list-specs", help="list bundled experiment configs")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return 0 if exc.code == 0 else 1

    if args.command == "list-specs":
        for name in list_bundled_specs():
            print(name)
        return 0

    if args.command == "run":
        try:
            spec = load_spec(args.spec, seed=args.seed, replicas=args.replicas)
            manifest = run_experiment(spec, args.out_dir)
        except InvalidConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:  # a run that fails midway leaves a partial manifest
            print(f"run failed: {exc}", file=sys.stderr)
            return 1
        for entry in manifest["outputs"]:
            print(f"wrote {entry['file']}  rows={entry['rows']}  sha256={entry['sha256'][:12]}")
        return 0

    if args.command == "compare":
        try:
            passed, rows = compare_report(args.analytic_csv, args.sim_csv,
                                          rel_bound=args.rel_bound,
                                          out_path=args.out)
        # ValueError covers InvalidConfigError and a non-numeric cell
        except (ValueError, OSError, KeyError, TypeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
        failures = [r for r in rows if r["verdict"] == "fail"]
        for r in failures:
            print(f"row {r['row']}: z={r['z_score']:.2f} rel={r['rel_error']:.4f}  FAIL")
        print(f"{len(rows) - len(failures)}/{len(rows)} rows pass")
        return 0 if passed else 2

    return 1


if __name__ == "__main__":
    sys.exit(main())
