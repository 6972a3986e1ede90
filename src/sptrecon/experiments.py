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
from dataclasses import dataclass, replace
from dataclasses import field as dc_field
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .blep import LinkParams, blep_average
from .errors import InvalidConfigError, InvariantError, RegionDegenerateError
from .field import SensorField, SourceParams, load_field, mssc, place_sensors
from .mse import BoundAxis, Scheme, SchemeConfig, _eps, average_mse, bounds, scheme_weights
from .optimize import OptimizerConfig, exhaustive_search, jtsbo, optimize_blocklength
from .regions import RegionThresholds, classify, threshold_asyn_over_syn, threshold_infer
from .simulate import batch_means_stderr, simulate_event_level

ANALYTIC_COLUMNS = ["scheme", "T_s", "L", "N", "T", "h", "M", "mssc",
                    "eps_bar", "mse_analytic", "mse_lb", "mse_ub"]
REGION_COLUMNS = ["T", "gamma_r_bar_dB", "mssc", "thr1", "thr2", "winner"]
TRACE_COLUMNS = ["iter", "h_s", "N", "mse", "residual_h", "residual_N"]
SIM_COLUMNS = ["scheme", "T_s", "L", "N", "T", "h", "M", "mssc", "periods",
               "seed", "mse_mc", "stderr", "mse_analytic", "z_score"]
EVENT_COLUMNS = ["period", "sensor", "t_start_s", "gamma_r", "success"]

SWEEPABLE = {"eps_bar", "mssc", "N", "h_s", "T_period_s", "gamma_r_bar_db",
             "b_per_m"}


# section -> key -> (keyword of the object the section builds, value type).
# A present key is passed on; an absent one takes the default of the class it
# configures.  [experiment], [sim] and include_exhaustive build ExperimentSpec,
# [field] place_sensors (or load_field), [link] LinkParams.from_db.  "cap" is
# an int with 0 for None, "values" a sweep list.  Any other key is an error
SCHEMA = {
    "experiment": {"name": ("name", str), "outputs": ("outputs", list),
                   "seed": ("seed", int), "replicas": ("replicas", int)},
    "source": {"sigma2_x": ("sigma2_x", float), "gamma_o": ("gamma_o", float),
               "a_per_s": ("a", float), "b_per_m": ("b", float)},
    "field": {"positions_file": ("path", str), "M": ("M", int),
              "half_width_m": ("region_half_width", float),
              "placement_seed": ("seed", int), "target_index": ("target_index", int)},
    "link": {"L_bits": ("L", float), "N_blocklength": ("N", int),
             "symbol_duration_s": ("T_s", float),
             "gamma_r_bar_db": ("gamma_r_bar_db", float)},
    "scheme": {"scheme": ("scheme", Scheme), "period_s": ("T", float),
               "time_shift_s": ("h", float)},
    "sim": {"periods": ("periods", int), "dump_trace": ("dump_trace", bool)},
    "optimize": {"N_min": ("N_min", int), "N_max": ("N_max", "cap"),
                 "I_max": ("I_max", int),
                 "include_exhaustive": ("include_exhaustive", bool)},
    "sweep": {axis: (axis, "values") for axis in SWEEPABLE},
}

# sensor placement when [field] names no positions_file
PLACEMENT = {"M": 5, "region_half_width": 10.0, "seed": 7}

# output -> sweep axes it cannot honour: the simulation draws its own packet
# losses on the field's geometry, and the optimizers choose N and h
UNHONOURED_AXES = {
    "simulate": {"eps_bar", "mssc"},
    "optimize": {"eps_bar", "mssc", "N", "h_s"},
}


@dataclass
class ExperimentSpec:
    """Parsed experiment description."""

    source: SourceParams
    field: SensorField
    link: LinkParams
    scheme: SchemeConfig
    optimizer: OptimizerConfig
    name: str = "experiment"
    outputs: list = dc_field(default_factory=lambda: ["analytic"])
    seed: int = 1
    replicas: int = 1
    periods: int = 100000
    sweep: dict = dc_field(default_factory=dict)  # axis -> values, in order
    include_exhaustive: bool = False
    dump_trace: bool = False
    raw_text: str = ""

    def __post_init__(self):
        for key, least in (("seed", 0), ("replicas", 1), ("periods", 1)):
            if getattr(self, key) < least:
                raise InvalidConfigError(f"{key} must be at least {least}, "
                                         f"got {getattr(self, key)}")

    def sweep_points(self):
        """Cartesian product of the sweep axes, deterministic order."""
        return [dict(zip(self.sweep, vals))
                for vals in itertools.product(*self.sweep.values())]


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
    kw = {section: {} for section in SCHEMA}
    try:
        for section in cp.sections():
            if section not in SCHEMA:
                raise InvalidConfigError(f"unknown config section [{section}]; "
                                         f"allowed: {sorted(SCHEMA)}")
            for key, val in cp[section].items():
                if key not in SCHEMA[section]:
                    raise InvalidConfigError(f"unknown key {key!r} in [{section}]; "
                                             f"allowed: {sorted(SCHEMA[section])}")
                name, kind = SCHEMA[section][key]
                kw[section][name] = _value(kind, key, section, val.strip())
        if not cp.has_section("experiment"):
            raise InvalidConfigError("a config needs an [experiment] section")

        fld = kw["field"]
        if "path" in fld:
            if len(fld) > 1:
                raise InvalidConfigError("positions_file in [field] excludes the "
                                         "placement keys")
            try:
                field, _ = load_field(fld["path"])
            except OSError as exc:
                raise InvalidConfigError(f"cannot read positions_file "
                                         f"{fld['path']!r}: {exc.strerror}") from exc
        else:
            field = place_sensors(**{**PLACEMENT, **fld})
        opt, run = kw["optimize"], {**kw["experiment"], **kw["sim"]}
        for key, override in (("seed", seed), ("replicas", replicas)):
            if override is not None:
                run[key] = int(override)
        if "include_exhaustive" in opt:
            run["include_exhaustive"] = opt.pop("include_exhaustive")
        spec = ExperimentSpec(
            source=SourceParams(**kw["source"]), field=field,
            link=LinkParams.from_db(**kw["link"]),
            scheme=SchemeConfig(**kw["scheme"], M=field.n_sensors,
                                m=field.target_index),
            optimizer=OptimizerConfig(**opt), sweep=kw["sweep"], raw_text=text,
            **run,
        )
    except InvalidConfigError:
        raise
    except ValueError as exc:
        raise InvalidConfigError(f"config error: {exc}") from exc
    if not spec.outputs:
        raise InvalidConfigError("at least one output must be requested")
    for out in spec.outputs:
        if out not in OUTPUTS:
            raise InvalidConfigError(f"unknown output kind {out!r}")
        axes = sorted(UNHONOURED_AXES.get(out, set()) & set(spec.sweep))
        if axes:
            raise InvalidConfigError(f"output {out!r} cannot honour the sweep "
                                     f"axis {', '.join(map(repr, axes))}")
    return spec


def _value(kind, key, section, text):
    """The config value ``text`` of ``key`` as a ``kind`` (a SCHEMA type)."""
    if not text:
        raise InvalidConfigError(f"{key} in [{section}] is empty; leave the key "
                                 "out to take its default")
    if kind in (int, "cap"):
        value = _integral(text, key)
        return None if kind == "cap" and value == 0 else value  # N_max = 0: no cap
    if kind is bool:
        # configparser's rules: 1/yes/true/on, 0/no/false/off
        states = configparser.ConfigParser.BOOLEAN_STATES
        if text.lower() not in states:
            raise InvalidConfigError(f"{key} = {text.lower()!r} is not a boolean")
        return states[text.lower()]
    if kind is list:
        return [o.strip() for o in text.split(",") if o.strip()]
    if kind == "values":
        values = parse_values(text)
        if not values:
            raise InvalidConfigError(f"sweep axis {key} has no values")
        return values
    return kind(text)


def _integral(value, name):
    """value as an int; InvalidConfigError unless it is a whole number
    (80.0 and 1e5 are, 80.7 is not)."""
    value = float(value)
    if not value.is_integer():
        raise InvalidConfigError(f"{name} must be an integer, got {value}")
    return int(value)


# ---------------------------------------------------------------------------
# point evaluation
# ---------------------------------------------------------------------------

def _apply_point(spec: ExperimentSpec, point: dict):
    """Materialize one sweep point: returns (source, field, link, scheme, eps, rho)."""
    source, link, scheme = spec.source, spec.link, spec.scheme
    if "b_per_m" in point:
        source = replace(source, b=point["b_per_m"])
    if "gamma_r_bar_db" in point:
        link = replace(link, gamma_r_bar=10 ** (point["gamma_r_bar_db"] / 10.0))
    if "N" in point:
        link = replace(link, N=_integral(point["N"], "swept blocklength N"))
    scheme = replace(scheme, T=point.get("T_period_s", scheme.T),
                     h=point.get("h_s", scheme.h))
    return source, spec.field, link, scheme, point.get("eps_bar"), point.get("mssc")


def _groups(points, axis):
    """Indices of the sweep points that share every axis except ``axis``.

    One list per group, in order of first appearance; without ``axis`` in
    the sweep every point is a group of its own.
    """
    groups = {}
    for i, point in enumerate(points):
        key = tuple(v for k, v in point.items() if k != axis)
        groups.setdefault(key, []).append(i)
    return groups.values()


def _analytic_rows(spec, points):
    """Closed-form MSE and BLEP-axis bounds, scored per geometry.

    The points of one eps_bar group share one ``average_mse`` call over
    their eps values and one ``bounds`` call: the bound is an extreme
    over eps, so it does not depend on the row's eps_bar.  Every row must
    satisfy mse_lb <= mse_analytic <= mse_ub to 1e-12 sigma2, else
    InvariantError.
    """
    rows = [None] * len(points)
    for idx in _groups(points, "eps_bar"):
        source, field, link, scheme, _, rho = _apply_point(spec, points[idx[0]])
        rho_val = mssc(source, field) if rho is None else rho
        # an MSSC sweep uses the substituted closed forms
        weights = scheme_weights(source, field, scheme, rho)
        eps_bar = [points[i].get("eps_bar") for i in idx]
        eps = _eps(link, None if eps_bar == [None] else eps_bar)
        vals = np.atleast_1d(average_mse(source, weights, link, scheme, eps))
        eps = np.atleast_1d(eps)
        # the BLEP-axis bound must cover the weights the values were computed with
        lo, hi = bounds(source, weights, link, scheme, BoundAxis.BLEP, eps_bar=eps[0])
        tol = 1e-12 * source.sigma2_x
        inside = (vals >= lo - tol) & (vals <= hi + tol)
        if not inside.all():
            j = int(np.argmin(inside))
            raise InvariantError(
                f"mse_analytic={float(vals[j])!r} outside its BLEP-axis bounds "
                f"[{lo!r}, {hi!r}] at sweep point {points[idx[j]]}"
            )
        for i, e, val in zip(idx, eps.tolist(), vals.tolist()):
            rows[i] = [scheme.scheme.value, link.T_s, link.L, link.N, scheme.T,
                       scheme.h, scheme.M, rho_val, e, val, lo, hi]
    return [([row], None) for row in rows]


def _region_rows(spec, points):
    """Preference thresholds once per mssc group, the winner per row."""
    rows = [None] * len(points)
    for idx in _groups(points, "mssc"):
        source, field, link, scheme, eps, _ = _apply_point(spec, points[idx[0]])
        # neither threshold reads the MSSC
        thr1 = threshold_infer(source, link, scheme, eps_bar=eps)
        try:
            thr2 = threshold_asyn_over_syn(source, link, scheme, eps_bar=eps)
        except RegionDegenerateError as exc:
            thr2 = exc
        db = 10.0 * math.log10(link.gamma_r_bar)
        for i in idx:
            rho = points[i].get("mssc")
            rho_val = mssc(source, field) if rho is None else rho
            rows[i] = [scheme.T, db, rho_val, thr1, *_verdict(rho_val, thr1, thr2)]
    return [([row], None) for row in rows]


def _verdict(rho, thr1, thr2):
    """(thr2, winner) of one region row; ``thr2`` may be the degenerate error."""
    if not isinstance(thr2, RegionDegenerateError):
        try:
            return thr2, classify(rho, RegionThresholds(thr1, thr2)).value
        except RegionDegenerateError as exc:
            thr2 = exc
    return math.inf, "degenerate:" + ("asyn" if thr2.always_superior else "syn/no")


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
    stderr = batch_means_stderr(bi, bd)
    if math.isinf(stderr):
        raise InvalidConfigError(
            f"{spec.periods} periods x {spec.replicas} replicas filled "
            f"{np.count_nonzero(bd)} non-empty batches; the batch-means standard "
            "error needs at least 2, raise periods"
        )
    mse_mc = float(bi.sum() / bd.sum())
    ana = average_mse(source, field, link, scheme)
    z = (mse_mc - ana) / stderr if stderr > 0 else math.inf
    row = [scheme.scheme.value, link.T_s, link.L, link.N, scheme.T, scheme.h,
           scheme.M, rho_val, spec.periods, spec.seed, mse_mc, stderr, ana, z]
    if not spec.dump_trace:
        return [row], None
    return [row], [[e.period, e.sensor, e.t_start_s, e.gamma_r, int(e.success)]
                   for r in reports for e in r.events]


def _optimize_rows(spec, points):
    """Adapted operating point per scheme (and per optimizer when enabled).

    The no-infer form reads no spatial weight, so its runs are made once per
    b_per_m group and shared by the group's points.
    """
    cfg, out = spec.optimizer, [None] * len(points)
    for idx in _groups(points, "b_per_m"):
        no_infer = None
        for i in idx:
            source, field, link, scheme, _, rho = _apply_point(spec, points[i])
            rho_val = mssc(source, field) if rho is None else rho
            no_cfg = SchemeConfig(Scheme.NO_INFER, T=scheme.T, M=1, m=1)
            syn_cfg = SchemeConfig(Scheme.SYN_INFER, T=scheme.T, M=scheme.M, m=scheme.m)
            asyn_cfg = SchemeConfig(Scheme.ASYN_INFER, T=scheme.T,
                                    h=scheme.h if scheme.h is not None else link.T_s,
                                    M=scheme.M, m=scheme.m)
            if no_infer is None:  # the group's one no-infer step (and scan)
                no_infer = [optimize_blocklength(source, field, link, no_cfg, cfg)]
                if spec.include_exhaustive:
                    no_infer.append(exhaustive_search(source, field, link, no_cfg, cfg))
            runs = [
                ("no-infer", no_infer[0]),
                ("syn-infer", optimize_blocklength(source, field, link, syn_cfg, cfg)),
                ("asyn-infer", jtsbo(source, field, link, asyn_cfg, cfg)),
            ]
            if spec.include_exhaustive:
                runs += [("no-infer:exhaustive", no_infer[1])] + [
                    (tag + ":exhaustive", exhaustive_search(source, field, link, c, cfg))
                    for tag, c in (("syn-infer", syn_cfg), ("asyn-infer", asyn_cfg))]
            rows = [[tag, link.T_s, link.L, res.N_star, scheme.T, res.h_star, scheme.M,
                     rho_val, blep_average(link.with_blocklength(res.N_star)),
                     res.mse_star, "", ""] for tag, res in runs]
            trace = [[t.iteration, t.h_s, t.N, t.mse, t.residual_h, t.residual_N]
                     for t in runs[2][1].trace]  # the jtsbo run
            out[i] = (rows, trace)
    return out


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

# output kind -> (columns, output function, (side-file stem, side columns)).
# An output function maps (spec, sweep points) to one (rows, side rows or
# None) pair per point, in sweep order; the side file is written per sweep
# point that has side rows
OUTPUTS = {
    "analytic": (ANALYTIC_COLUMNS, _analytic_rows, None),
    "regions": (REGION_COLUMNS, _region_rows, None),
    "simulate": (SIM_COLUMNS, lambda spec, points: [_sim_row(spec, p) for p in points],
                 ("events", EVENT_COLUMNS)),
    "optimize": (ANALYTIC_COLUMNS, _optimize_rows, ("optimize_trace", TRACE_COLUMNS)),
}


def run_experiment(spec: ExperimentSpec, out_dir) -> dict:
    """Execute every requested output; returns the manifest dict.

    Sweep points are evaluated in sweep order.  Each output writes its CSV,
    then its side files ``<name>_<stem>_<point index>.csv`` in point order.
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

    try:
        for kind in spec.outputs:
            columns, output_fn, side = OUTPUTS[kind]
            results = output_fn(spec, points)
            rows = [row for point_rows, _ in results for row in point_rows]
            _record(manifest, out_dir / f"{spec.name}_{kind}.csv", columns, rows)
            for idx, (_, side_rows) in enumerate(results):
                if side_rows is not None:
                    _record(manifest, out_dir / f"{spec.name}_{side[0]}_{idx}.csv",
                            side[1], side_rows)
    except Exception as exc:
        manifest["status"] = "partial"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        _write_manifest(out_dir, spec, manifest)
        raise

    _write_manifest(out_dir, spec, manifest)
    return manifest


def _write_csv(path, columns, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    # floats are written with repr, so they round-trip; None as an empty cell
    writer.writerows(rows)
    data = buf.getvalue().encode()
    Path(path).write_bytes(data)
    return data


def _record(manifest, path, columns, rows):
    """Write one output CSV and list it, with the hash of its bytes, in the
    manifest."""
    digest = hashlib.sha256(_write_csv(path, columns, rows)).hexdigest()
    manifest["outputs"].append({"file": Path(path).name, "sha256": digest,
                                "rows": len(rows)})


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
