"""Declarative experiment runner.

An experiment is a plain-text config (key = value, INI sections) naming a
base parameter set, optional sweep axes and the outputs to produce.  Each
requested output becomes one CSV; a JSON manifest records the config hash,
seed, package version and a content hash per file, and re-running the same
config with the same seed reproduces every byte.

dB-to-linear SNR conversion happens here, at the config boundary; all
internal math uses linear SNR and SI units (seconds, metres).
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .blep import LinkParams, blep_average
from .errors import InvalidConfigError, RegionDegenerateError
from .field import SensorField, SourceParams, load_field, mssc, place_sensors
from .mse import (
    BoundAxis,
    Scheme,
    SchemeConfig,
    average_mse,
    bounds,
    mse_asyn_infer_approx,
    mse_no_infer,
    mse_syn_infer_approx,
    mssc_weights,
)
from .optimize import OptimizerConfig, exhaustive_search, jtsbo, optimize_blocklength_syn
from .regions import RegionThresholds, classify, threshold_asyn_over_syn, threshold_infer
from .simulate import simulate_event_level

ANALYTIC_COLUMNS = ["scheme", "T_s", "L", "N", "T", "h", "M", "mssc",
                    "eps_bar", "mse_analytic", "mse_lb", "mse_ub"]
REGION_COLUMNS = ["T", "gamma_r_bar_dB", "mssc", "thr1", "thr2", "winner"]
TRACE_COLUMNS = ["iter", "h_s", "N", "mse", "residual_h", "residual_N"]
SIM_COLUMNS = ["scheme", "T_s", "L", "N", "T", "h", "M", "mssc", "periods",
               "seed", "mse_mc", "stderr", "mse_analytic", "z_score"]
EVENT_COLUMNS = ["period", "sensor", "t_start_s", "gamma_r", "success"]

SWEEPABLE = {"eps_bar", "mssc", "N", "h_s", "T_period_s", "gamma_r_bar_db",
             "b_per_m"}


@dataclass
class ExperimentSpec:
    """Parsed experiment description."""

    name: str
    outputs: list
    seed: int
    replicas: int
    source: SourceParams
    field: SensorField
    link_db: float            # average received SNR in dB (config boundary)
    link: LinkParams
    scheme: SchemeConfig
    periods: int
    optimizer: OptimizerConfig
    sweep: dict               # axis name -> list of values (insertion order)
    include_exhaustive: bool = False
    dump_trace: bool = False
    raw_text: str = ""

    def sweep_points(self):
        """Cartesian product of the sweep axes, deterministic order."""
        if not self.sweep:
            return [dict()]
        keys = list(self.sweep)
        return [dict(zip(keys, vals))
                for vals in itertools.product(*(self.sweep[k] for k in keys))]


def parse_values(text):
    """Comma list of floats, or 'linspace:start:stop:num'."""
    text = text.strip()
    if text.startswith("linspace:"):
        _, a, b, n = text.split(":")
        return [float(v) for v in np.linspace(float(a), float(b), int(n))]
    return [float(v) for v in text.split(",") if v.strip()]


def load_spec(path_or_name, seed=None, replicas=None) -> ExperimentSpec:
    """Load an experiment config from a path or a bundled spec name."""
    path = Path(path_or_name)
    if path.exists():
        text = path.read_text()
    else:
        name = str(path_or_name)
        if not name.endswith(".cfg"):
            name += ".cfg"
        ref = resources.files("sptrecon").joinpath("specs", name)
        if not ref.is_file():
            raise InvalidConfigError(f"no such experiment config: {path_or_name}")
        text = ref.read_text()
    return parse_spec(text, seed=seed, replicas=replicas)


def list_bundled_specs():
    base = resources.files("sptrecon").joinpath("specs")
    return sorted(p.name[:-4] for p in base.iterdir() if p.name.endswith(".cfg"))


def parse_spec(text, seed=None, replicas=None) -> ExperimentSpec:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keep key case: T_period_s vs t_period_s
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise InvalidConfigError(f"config parse error: {exc}") from exc

    try:
        exp = cp["experiment"]
        name = exp.get("name", "experiment").strip()
        outputs = [o.strip() for o in exp.get("outputs", "analytic").split(",") if o.strip()]
        cfg_seed = exp.getint("seed", 1)
        cfg_replicas = exp.getint("replicas", 1)

        src = cp["source"] if cp.has_section("source") else {}
        source = SourceParams(
            sigma2_x=_getf(src, "sigma2_x", 1.0),
            gamma_o=_getf(src, "gamma_o", 5.0),
            a=_getf(src, "a_per_s", 2.0),
            b=_getf(src, "b_per_m", 0.01),
        )

        fld = cp["field"] if cp.has_section("field") else {}
        if "positions_file" in fld:
            field, _ = load_field(fld["positions_file"])
        else:
            field = place_sensors(
                M=int(_getf(fld, "M", 5)),
                region_half_width=_getf(fld, "half_width_m", 10.0),
                density=_getf(fld, "density_per_m2", None),
                seed=int(_getf(fld, "placement_seed", 7)),
                target_index=int(_getf(fld, "target_index", 1)),
            )

        lnk = cp["link"] if cp.has_section("link") else {}
        gamma_db = _getf(lnk, "gamma_r_bar_db", 5.0)
        link = LinkParams.from_db(
            L=_getf(lnk, "L_bits", 160.0),
            N=int(_getf(lnk, "N_blocklength", 80)),
            T_s=_getf(lnk, "symbol_duration_s", 1e-4),
            gamma_r_bar_db=gamma_db,
            N_min=int(_getf(lnk, "N_min", 10)),
        )

        sch = cp["scheme"] if cp.has_section("scheme") else {}
        scheme = SchemeConfig(
            scheme=Scheme(sch.get("scheme", "syn-infer").strip()),
            T=_getf(sch, "period_s", 0.150),
            h=_getf(sch, "time_shift_s", None),
            M=field.n_sensors,
            m=field.target_index,
        )

        sim = cp["sim"] if cp.has_section("sim") else {}
        periods = int(_getf(sim, "periods", 100000))
        dump_trace = (str(sim.get("dump_trace", "false")).strip().lower()
                      in ("1", "true", "yes") if hasattr(sim, "get") else False)

        opt = cp["optimize"] if cp.has_section("optimize") else {}
        optimizer = OptimizerConfig(
            N_min=int(_getf(opt, "N_min", 10)),
            N_max=(int(_getf(opt, "N_max", 0)) or None),
            I_max=int(_getf(opt, "I_max", 3)),
            tol_h=_getf(opt, "tol_h_s", 1e-4),
            tol_N=_getf(opt, "tol_N", 1.0),
        )
        include_exhaustive = (str(opt.get("include_exhaustive", "false")).strip().lower()
                              in ("1", "true", "yes") if hasattr(opt, "get") else False)

        sweep = {}
        if cp.has_section("sweep"):
            for key, val in cp["sweep"].items():
                if key not in SWEEPABLE:
                    raise InvalidConfigError(
                        f"unknown sweep axis {key!r}; allowed: {sorted(SWEEPABLE)}"
                    )
                sweep[key] = parse_values(val)
    except (KeyError, ValueError) as exc:
        if isinstance(exc, InvalidConfigError):
            raise
        raise InvalidConfigError(f"config error: {exc}") from exc

    if not outputs:
        raise InvalidConfigError("at least one output must be requested")
    for out in outputs:
        if out not in ("analytic", "simulate", "optimize", "regions"):
            raise InvalidConfigError(f"unknown output kind {out!r}")

    return ExperimentSpec(
        name=name, outputs=outputs,
        seed=cfg_seed if seed is None else int(seed),
        replicas=cfg_replicas if replicas is None else int(replicas),
        source=source, field=field, link_db=gamma_db, link=link,
        scheme=scheme, periods=periods, optimizer=optimizer, sweep=sweep,
        include_exhaustive=include_exhaustive, dump_trace=dump_trace,
        raw_text=text,
    )


def _getf(section, key, default):
    if hasattr(section, "get"):
        val = section.get(key, None)
    else:
        val = None
    if val is None or (isinstance(val, str) and not val.strip()):
        return default
    return float(val)


# ---------------------------------------------------------------------------
# point evaluation
# ---------------------------------------------------------------------------

def _apply_point(spec: ExperimentSpec, point: dict):
    """Materialize one sweep point: returns (source, field, link, scheme, eps)."""
    source, field, link, scheme = spec.source, spec.field, spec.link, spec.scheme
    if "b_per_m" in point:
        source = SourceParams(sigma2_x=source.sigma2_x, gamma_o=source.gamma_o,
                              a=source.a, b=point["b_per_m"])
    if "gamma_r_bar_db" in point:
        link = LinkParams(L=link.L, N=link.N, T_s=link.T_s,
                          gamma_r_bar=10 ** (point["gamma_r_bar_db"] / 10.0),
                          N_min=link.N_min)
    if "N" in point:
        link = link.with_blocklength(int(point["N"]))
    if "T_period_s" in point or "h_s" in point:
        scheme = SchemeConfig(
            scheme=scheme.scheme,
            T=point.get("T_period_s", scheme.T),
            h=point.get("h_s", scheme.h),
            M=scheme.M, m=scheme.m,
        )
    eps = point.get("eps_bar", None)
    rho = point.get("mssc", None)
    return source, field, link, scheme, eps, rho


def _analytic_row(spec, point):
    source, field, link, scheme, eps, rho = _apply_point(spec, point)
    eps_val = blep_average(link) if eps is None else eps
    rho_val = mssc(source, field) if rho is None else rho
    # the BLEP-axis bound must cover the weights the value was computed with
    weights = field
    if rho is None:
        val = average_mse(source, field, link, scheme, eps_bar=eps).value
    # sweep over the MSSC axis uses the substituted closed forms
    elif scheme.scheme is Scheme.SYN_INFER:
        val = mse_syn_infer_approx(source, rho_val, link, scheme, eps_bar=eps).value
    elif scheme.scheme is Scheme.ASYN_INFER:
        val = mse_asyn_infer_approx(source, rho_val, link, scheme, eps_bar=eps).value
        weights = mssc_weights(scheme.M, scheme.m, rho_val)
    else:
        val = mse_no_infer(source, link, scheme, eps_bar=eps).value
    lo, hi = bounds(source, weights, link, scheme, BoundAxis.BLEP, eps_bar=eps)
    return [scheme.scheme.value, link.T_s, link.L, link.N, scheme.T,
            scheme.h if scheme.h is not None else "",
            scheme.M, rho_val, eps_val, val, lo.value, hi.value]


def _region_row(spec, point):
    source, field, link, scheme, eps, rho = _apply_point(spec, point)
    rho_val = mssc(source, field) if rho is None else rho
    thr1 = threshold_infer(source, link, scheme, eps_bar=eps)
    try:
        thr2 = threshold_asyn_over_syn(source, link, scheme, eps_bar=eps)
        winner = classify(rho_val, RegionThresholds(thr1, thr2)).value
    except RegionDegenerateError as exc:
        thr2 = math.inf
        winner = "degenerate:" + ("asyn" if exc.always_superior else "syn/no")
    db = 10.0 * math.log10(link.gamma_r_bar)
    return [scheme.T, db, rho_val, thr1, thr2, winner]


def _sim_row(spec, point):
    source, field, link, scheme, eps, rho = _apply_point(spec, point)
    rho_val = mssc(source, field) if rho is None else rho
    reports = [
        simulate_event_level(source, field, link, scheme, spec.periods,
                             spec.seed, replica=r,
                             collect_trace=spec.dump_trace)
        for r in range(spec.replicas)
    ]
    bi = np.concatenate([r.aux["batch_integrals"] for r in reports])
    bd = np.concatenate([r.aux["batch_durations"] for r in reports])
    nz = bd > 0
    if nz.sum() < 2:
        raise InvalidConfigError(
            f"{spec.periods} periods x {spec.replicas} replicas filled "
            f"{int(nz.sum())} non-empty batches; the batch-means standard "
            "error needs at least 2, raise periods"
        )
    mse_mc = float(bi.sum() / bd.sum())
    ratios = bi[nz] / bd[nz]
    stderr = float(np.std(ratios, ddof=1) / math.sqrt(nz.sum()))
    ana = average_mse(source, field, link, scheme).value
    z = (mse_mc - ana) / stderr if stderr > 0 else math.inf
    row = [scheme.scheme.value, link.T_s, link.L, link.N, scheme.T,
           scheme.h if scheme.h is not None else "", scheme.M, rho_val,
           spec.periods, spec.seed, mse_mc, stderr, ana, z]
    events = [[e.period, e.sensor, e.t_start_s, e.gamma_r, int(e.success)]
              for r in reports for e in r.events]
    return row, events


def _optimize_rows(spec, point):
    """Adapted operating point per scheme (and per optimizer when enabled)."""
    source, field, link, scheme, eps, rho = _apply_point(spec, point)
    rho_val = mssc(source, field) if rho is None else rho
    no_cfg = SchemeConfig(Scheme.NO_INFER, T=scheme.T, M=1, m=1)
    syn_cfg = SchemeConfig(Scheme.SYN_INFER, T=scheme.T, M=scheme.M, m=scheme.m)
    asyn_cfg = SchemeConfig(Scheme.ASYN_INFER, T=scheme.T,
                            h=scheme.h if scheme.h is not None else link.T_s,
                            M=scheme.M, m=scheme.m)
    runs = [
        ("no-infer", optimize_blocklength_syn(source, field, link, no_cfg,
                                              spec.optimizer)),
        ("syn-infer", optimize_blocklength_syn(source, field, link, syn_cfg,
                                               spec.optimizer)),
        ("asyn-infer", jtsbo(source, field, link, asyn_cfg, spec.optimizer)),
    ]
    if spec.include_exhaustive:
        for tag, cfg in (("no-infer", no_cfg), ("syn-infer", syn_cfg),
                         ("asyn-infer", asyn_cfg)):
            res = exhaustive_search(source, field, link, cfg, spec.optimizer)
            runs.append((tag + ":exhaustive", res))
    rows = []
    trace = []
    for tag, res in runs:
        eps_val = blep_average(link.with_blocklength(res.N_star))
        rows.append([tag, link.T_s, link.L, res.N_star, scheme.T,
                     res.h_star if res.h_star is not None else "", scheme.M,
                     rho_val, eps_val, res.mse_star, "", ""])
        if tag == "asyn-infer":
            trace = [[t.iteration, t.h_s if t.h_s is not None else "", t.N,
                      t.mse, t.residual_h, t.residual_N] for t in res.trace]
    return rows, trace


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def run_experiment(spec: ExperimentSpec, out_dir, threads=1) -> dict:
    """Execute every requested output; returns the manifest dict.

    Sweep points are dispatched to a thread pool but rows are written in
    sweep order, so outputs are byte-identical regardless of thread count.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    points = spec.sweep_points()
    manifest = {
        "experiment": spec.name,
        "config_sha256": hashlib.sha256(spec.raw_text.encode()).hexdigest(),
        "seed": spec.seed,
        "replicas": spec.replicas,
        "package_version": __version__,
        "internal_units": {"time": "s", "distance": "m", "snr": "linear"},
        "outputs": [],
        "status": "complete",
    }

    builders = {
        "analytic": (ANALYTIC_COLUMNS, _analytic_row),
        "regions": (REGION_COLUMNS, _region_row),
    }

    try:
        for kind in spec.outputs:
            if kind == "optimize":
                _run_optimize_output(spec, points, out_dir, manifest, threads)
                continue
            if kind == "simulate":
                _run_simulate_output(spec, points, out_dir, manifest, threads)
                continue
            columns, fn = builders[kind]
            rows = _map_points(fn, spec, points, threads)
            path = out_dir / f"{spec.name}_{kind}.csv"
            _write_csv(path, columns, rows)
            _record(manifest, path, len(rows))
    except Exception as exc:
        manifest["status"] = "partial"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        _write_manifest(out_dir, spec, manifest)
        raise

    _write_manifest(out_dir, spec, manifest)
    return manifest


def _run_simulate_output(spec, points, out_dir, manifest, threads):
    results = _map_points(_sim_row, spec, points, threads)
    rows = [row for row, _ in results]
    path = out_dir / f"{spec.name}_simulate.csv"
    _write_csv(path, SIM_COLUMNS, rows)
    _record(manifest, path, len(rows))
    if spec.dump_trace:
        for idx, (_, events) in enumerate(results):
            epath = out_dir / f"{spec.name}_events_{idx}.csv"
            _write_csv(epath, EVENT_COLUMNS, events)
            _record(manifest, epath, len(events))


def _run_optimize_output(spec, points, out_dir, manifest, threads):
    results = _map_points(_optimize_rows, spec, points, threads)
    rows = [row for rs, _ in results for row in rs]
    path = out_dir / f"{spec.name}_optimize.csv"
    _write_csv(path, ANALYTIC_COLUMNS, rows)
    _record(manifest, path, len(rows))
    for idx, (_, trace) in enumerate(results):
        tpath = out_dir / f"{spec.name}_optimize_trace_{idx}.csv"
        _write_csv(tpath, TRACE_COLUMNS, trace)
        _record(manifest, tpath, len(trace))


def _map_points(fn, spec, points, threads):
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda p: fn(spec, p), points))
    return [fn(spec, p) for p in points]


def _write_csv(path, columns, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)  # floats are written with repr, so they round-trip
    Path(path).write_text(buf.getvalue())


def _record(manifest, path, rows):
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    manifest["outputs"].append({"file": Path(path).name, "sha256": digest,
                                "rows": rows})


def _write_manifest(out_dir, spec, manifest):
    path = Path(out_dir) / f"{spec.name}.manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# comparison report
# ---------------------------------------------------------------------------

def compare_report(analytic_csv, sim_csv, rel_bound=0.01, out_path=None):
    """Row-wise agreement check between an analytic and a simulation CSV.

    Adds z-score and relative-error columns; a row fails when |z| > 4 or
    the relative error exceeds ``rel_bound``.  A row whose standard error
    is zero, missing or not finite passes only when the value equals the
    reference exactly (z = 0), and fails with z = inf otherwise.  Returns
    (passed, rows) where rows are dicts including the verdict per row.
    """
    a_rows = _read_csv(analytic_csv)
    b_rows = _read_csv(sim_csv)
    if len(a_rows) != len(b_rows):
        raise InvalidConfigError(
            f"row count mismatch: {len(a_rows)} vs {len(b_rows)}"
        )
    out = []
    passed = True
    for i, (ra, rb) in enumerate(zip(a_rows, b_rows)):
        ref = float(ra.get("mse_analytic", ra.get("mse_mc")))
        val = float(rb.get("mse_mc", rb.get("mse_analytic")))
        stderr = float(rb.get("stderr", 0.0) or 0.0)
        if stderr > 0 and math.isfinite(stderr):
            z = (val - ref) / stderr
        else:
            # no usable error bar: only an exact match passes
            z = 0.0 if val == ref else math.inf
        rel = abs(val - ref) / abs(ref) if ref != 0 else math.inf
        ok = abs(z) <= 4.0 and rel <= rel_bound
        passed &= ok
        out.append({"row": i, "reference": ref, "value": val, "stderr": stderr,
                    "z_score": z, "rel_error": rel,
                    "verdict": "pass" if ok else "fail"})
    if out_path is not None:
        cols = ["row", "reference", "value", "stderr", "z_score", "rel_error",
                "verdict"]
        _write_csv(out_path, cols, [[r[c] for c in cols] for r in out])
    return passed, out


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
