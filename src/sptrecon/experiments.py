"""Declarative experiment runner.

An experiment is a plain-text config (key = value, INI sections) naming a
base parameter set, optional sweep axes and the outputs to produce.  Each
requested output becomes one CSV; a JSON manifest records the config hash,
seed, package version and a content hash per file, and re-running the same
config with the same seed reproduces every byte.  Every cell is made text by
one rule, :func:`_cell`, which writes what ``csv.writer`` would.

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
import re
from dataclasses import asdict, dataclass, replace
from dataclasses import field as dc_field
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .blep import LinkParams, blep_average
from .errors import (InvalidConfigError, InvariantError, RegionDegenerateError,
                     ScaleLimitError, _check_scale)
from .field import SensorField, SourceParams, load_field, mssc, place_sensors
from .mse import (BoundAxis, Scheme, SchemeConfig, _eps, _unit_interval, average_mse, bounds,
                  scheme_weights)
from .optimize import (OptimizerConfig, _blocklength_cap, exhaustive_search, jtsbo,
                       optimize_blocklength)
from .regions import classify, threshold_asyn_over_syn, threshold_infer
from .simulate import _TRACE_BYTES, batch_means_stderr, simulate_event_level

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
        _check_scale("sweep_points", math.prod(map(len, self.sweep.values())), "the sweep")
        for axis in ("eps_bar", "mssc"):  # a probability, a mean squared correlation
            _unit_interval(self.sweep.get(axis, []), f"sweep axis {axis}")


def parse_values(text):
    """Comma list of floats, or 'linspace:start:stop:num', num a whole number."""
    text = text.strip()
    if text.startswith("linspace:"):
        _, a, b, n = text.split(":")
        n = _integral(n, "the linspace count")
        _check_scale("sweep_points", n, text)
        return [float(v) for v in np.linspace(float(a), float(b), n)]
    return [float(v) for v in text.split(",") if v.strip()]


def load_spec(path_or_name, seed=None, replicas=None) -> ExperimentSpec:
    """Load an experiment config from a path or a bundled spec name."""
    path = Path(path_or_name)
    if path.exists():
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            why = exc.strerror if isinstance(exc, OSError) else f"not UTF-8 text ({exc})"
            raise InvalidConfigError(f"cannot read experiment config {str(path)!r}: "
                                     f"{why}") from exc
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
                field = load_field(fld["path"])
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
        raise InvalidConfigError(str(exc)) from exc
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


# what a value of each SCHEMA type must look like, for the error message
_EXPECTED = {
    float: "a number",
    Scheme: "one of " + ", ".join(repr(s.value) for s in Scheme),
    "values": "a comma list of numbers or linspace:start:stop:num",
}


def _value(kind, key, section, text):
    """The config value ``text`` of ``key`` as a ``kind`` (a SCHEMA type);
    InvalidConfigError naming the key and its section when it is not one."""
    where = f"{key} in [{section}]"
    if not text:
        raise InvalidConfigError(f"{where} is empty; leave the key out to take "
                                 "its default")
    if kind in (int, "cap"):
        value = _integral(text, where)
        return None if kind == "cap" and value == 0 else value  # N_max = 0: no cap
    if kind is bool:
        # configparser's rules: 1/yes/true/on, 0/no/false/off
        states = configparser.ConfigParser.BOOLEAN_STATES
        if text.lower() not in states:
            raise InvalidConfigError(f"{where} = {text.lower()!r} is not a boolean")
        return states[text.lower()]
    if kind is list:
        return [o.strip() for o in text.split(",") if o.strip()]
    try:
        value = parse_values(text) if kind == "values" else kind(text)
    except ScaleLimitError:
        raise
    except ValueError:
        raise InvalidConfigError(f"{where} must be {_EXPECTED[kind]}, "
                                 f"got {text!r}") from None
    if kind == "values" and not value:
        raise InvalidConfigError(f"sweep axis {key} has no values")
    return value


def _integral(value, name):
    """value as an int; InvalidConfigError naming ``name`` unless it is a
    whole number (80.0 and 1e5 are, 80.7 and x are not)."""
    try:
        number = float(value)
    except ValueError:
        raise InvalidConfigError(f"{name} must be an integer, got {value!r}") from None
    if not number.is_integer():
        raise InvalidConfigError(f"{name} must be an integer, got {number}")
    return int(number)


# ---------------------------------------------------------------------------
# point evaluation
# ---------------------------------------------------------------------------

def _apply_point(spec: ExperimentSpec, values: dict):
    """Materialize the swept ``values`` (axis -> value) shared by a group of
    sweep points: returns (source, link, scheme)."""
    source, link, scheme = spec.source, spec.link, spec.scheme
    if "b_per_m" in values:
        source = replace(source, b=values["b_per_m"])
    if "gamma_r_bar_db" in values:
        link = LinkParams.from_db(values["gamma_r_bar_db"], **asdict(link))
    if "N" in values:
        link = replace(link, N=_integral(values["N"], "swept blocklength N"))
    scheme = replace(scheme, T=values.get("T_period_s", scheme.T),
                     h=values.get("h_s", scheme.h))
    return source, link, scheme


def _groups(spec: ExperimentSpec, *inner):
    """The sweep's points grouped by every axis except ``inner``.

    The sweep is the Cartesian product of its axes; its points, one row
    each, run in C order over the axes in config order.  Per combination of
    the other axes, in that order, yields (its values, axis -> value; the
    row index of each of its points; per swept ``inner`` axis, each point's
    index into the axis's values).  A group's points run in C order over its
    inner axes, so with one inner axis they take its values in turn; without
    any of ``inner`` in the sweep every point is a group of its own.
    """
    axes = list(spec.sweep)
    order = sorted(range(len(axes)), key=lambda a: axes[a] in inner)  # inner last
    grid = np.arange(math.prod(map(len, spec.sweep.values()))).reshape(
        [len(values) for values in spec.sweep.values()]).transpose(order)
    n_outer = sum(axis not in inner for axis in axes)
    outer, shape = [axes[a] for a in order[:n_outer]], grid.shape[n_outer:]
    at = dict(zip((axes[a] for a in order[n_outer:]),
                  np.indices(shape).reshape(len(shape), math.prod(shape))))
    for values, idx in zip(itertools.product(*(spec.sweep[a] for a in outer)),
                           grid.reshape(-1, math.prod(shape))):
        yield dict(zip(outer, values)), idx, at


def _analytic_rows(spec):
    """Closed-form MSE and BLEP-axis bounds, scored once per geometry.

    The points that share every axis except eps_bar and mssc share one
    paired ``average_mse`` call, each point's eps against the weights of
    its MSSC value, and one ``bounds`` call over the weights of every swept
    MSSC value: the bound is an extreme over eps, so it does not depend on
    the row's eps_bar.  Every row must satisfy
    mse_lb <= mse_analytic <= mse_ub to 1e-12 sigma2, else InvariantError.
    """
    rows = [None] * math.prod(map(len, spec.sweep.values()))
    for values, idx, at in _groups(spec, "eps_bar", "mssc"):
        source, link, scheme = _apply_point(spec, values)
        # the group's (rows x M) weight stack; no inference reads one weight
        width = 1 if scheme.scheme is Scheme.NO_INFER else scheme.M
        _check_scale("sensor_bytes", 8 * len(idx) * width,
                     f"{len(idx)} analytic rows of {width} spatial weights")
        # a weight vector (MSSC-substituted) and an eps per swept value, else
        # the field's and the link's own, and each point's index among them
        rhos = spec.sweep.get("mssc")
        weights = scheme_weights(source, spec.field, scheme, rhos)
        rhos = rhos or [mssc(source, spec.field)]
        # no inference reads one (1,) vector whatever the MSSC
        weights = np.broadcast_to(weights, (len(rhos), weights.shape[-1]))
        eps = np.atleast_1d(_eps(link, spec.sweep.get("eps_bar")))
        zero = np.zeros(len(idx), dtype=int)
        which, at_eps = at.get("mssc", zero), at.get("eps_bar", zero)
        vals = average_mse(source, weights[which], link, scheme, eps[at_eps])
        # the BLEP-axis bound must cover the weights the values were computed with
        lo, hi = bounds(source, weights, link, scheme, BoundAxis.BLEP, eps_bar=eps[0])
        lo = np.broadcast_to(lo, (len(rhos),))
        tol = 1e-12 * source.sigma2_x
        inside = (vals >= lo[which] - tol) & (vals <= hi + tol)
        if not inside.all():
            j = int(np.argmin(inside))
            point = {axis: spec.sweep[axis][at[axis][j]] if axis in at else values[axis]
                     for axis in spec.sweep}
            raise InvariantError(
                f"mse_analytic={float(vals[j])!r} outside its BLEP-axis bounds "
                f"[{float(lo[which[j]])!r}, {hi!r}] at sweep point {point}"
            )
        # each value is made text once: the row head, the MSSC and mse_lb
        # per weight vector, eps_bar per eps
        head = ",".join(map(_cell, [scheme.scheme.value, link.T_s, link.L, link.N,
                                    scheme.T, scheme.h, scheme.M]))
        rho_text, lo_text = list(map(_cell, rhos)), list(map(_cell, lo.tolist()))
        eps_text, hi_text = list(map(_cell, eps.tolist())), _cell(hi)
        for i, u, k, val in zip(idx.tolist(), which.tolist(), at_eps.tolist(),
                                map(_cell, vals.tolist())):
            rows[i] = [head, rho_text[u], eps_text[k], val, lo_text[u], hi_text]
    return [([row], None) for row in rows]


def _region_rows(spec):
    """Preference thresholds and winners once per mssc group.

    The group's BLEP is formed once and passed to both thresholds, neither
    of which reads the MSSC; ``classify`` raises for every MSSC or for
    none, so a degenerate group is degenerate in every row.
    """
    rows = [None] * math.prod(map(len, spec.sweep.values()))
    for values, idx, _ in _groups(spec, "mssc"):
        source, link, scheme = _apply_point(spec, values)
        eps = _eps(link, values.get("eps_bar"))
        thr1 = threshold_infer(source, link, scheme, eps_bar=eps)
        # the group's points take the swept MSSC values in turn
        rhos = spec.sweep.get("mssc") or [mssc(source, spec.field)]
        try:
            thr2 = threshold_asyn_over_syn(source, link, scheme, eps_bar=eps)
            winners = [classify(rho, thr1, thr2).value for rho in rhos]
        except RegionDegenerateError as exc:
            thr2 = math.inf
            winners = ["degenerate:" + ("asyn" if exc.always_superior else "syn/no")] * len(rhos)
        head = ",".join(map(_cell, [scheme.T, 10.0 * math.log10(link.gamma_r_bar)]))
        thr_text = ",".join(map(_cell, [thr1, thr2]))
        for i, rho, winner in zip(idx.tolist(), rhos, winners):
            rows[i] = [head, _cell(rho), thr_text, _cell(winner)]
    return [([row], None) for row in rows]


# a replica counts against the sim scale limit as at least this many periods:
# its fixed cost, about 600 us on a 2-vCPU Xeon VM, is that of some 4,000
_REPLICA_PERIODS = 1 << 12


def _sim_row(spec, values):
    _check_scale("sim_periods", spec.replicas * max(spec.periods, _REPLICA_PERIODS),
                 f"periods x replicas = {spec.periods} x {spec.replicas}, a replica "
                 f"counting as at least {_REPLICA_PERIODS} periods,")
    source, link, scheme = _apply_point(spec, values)
    if spec.dump_trace:  # each replica's trace in its report, and their concatenation
        total = spec.periods * spec.replicas
        need = 2 * _TRACE_BYTES * total * len(scheme_weights(source, spec.field, scheme))
        _check_scale("period_bytes", need, f"periods x replicas = {total:.3g}")
    reports = [
        simulate_event_level(source, spec.field, link, scheme, spec.periods,
                             spec.seed, replica=r, collect_trace=spec.dump_trace)
        for r in range(spec.replicas)
    ]
    bi = np.concatenate([r.aux["batch_integrals"] for r in reports])
    bd = np.concatenate([r.aux["batch_durations"] for r in reports])
    filled = np.count_nonzero(bd)
    if filled < 2:
        raise InvalidConfigError(
            f"{spec.periods} periods x {spec.replicas} replicas filled "
            f"{filled} non-empty batches; the batch-means standard "
            "error needs at least 2, raise periods"
        )
    # the batch integrals are in units of sigma2
    stderr = source.sigma2_x * batch_means_stderr(bi, bd)
    mse_mc = source.sigma2_x * float(bi.sum() / bd.sum())
    ana = average_mse(source, spec.field, link, scheme)
    row = list(map(_cell, [scheme.scheme.value, link.T_s, link.L, link.N, scheme.T,
                           scheme.h, scheme.M, mssc(source, spec.field), spec.periods,
                           spec.seed,
                           mse_mc, stderr, ana, _z_score(mse_mc, ana, stderr)]))
    if not spec.dump_trace:
        return [row], None
    cols = [np.concatenate([r.aux["trace"][c] for r in reports]) for c in EVENT_COLUMNS]
    cols[-1] = cols[-1].view(np.uint8)  # success as 0/1
    # the events file's rows, made one chunk at a time as it is written, each
    # column's cells at once
    return [row], (list(zip(*(map(_cell, c[i:i + _CHUNK_ROWS].tolist()) for c in cols)))
                   for i in range(0, len(cols[0]), _CHUNK_ROWS))


def _z_score(val, ref, stderr):
    """(val - ref) / stderr; with stderr 0, NaN or inf, 0 on an exact match and inf else."""
    if stderr > 0 and math.isfinite(stderr):
        return (val - ref) / stderr
    return 0.0 if val == ref else math.inf


def _optimize_rows(spec):
    """Adapted operating point per scheme (and per optimizer when enabled).

    The points of a b_per_m group differ only in their spatial weights.
    The no-infer form reads none, so its runs are made once per group and
    shared by the group's points; the syn and asyn runs, adapted and
    exhaustive, are made once per group too, one lane per point's weight
    vector.
    """
    cfg, field = spec.optimizer, spec.field
    out = [None] * math.prod(map(len, spec.sweep.values()))
    for values, idx, _ in _groups(spec, "b_per_m"):
        source, link, scheme = _apply_point(spec, values)
        no_cfg = SchemeConfig(Scheme.NO_INFER, T=scheme.T, M=1, m=1)
        syn_cfg = SchemeConfig(Scheme.SYN_INFER, T=scheme.T, M=scheme.M, m=scheme.m)
        asyn_cfg = SchemeConfig(Scheme.ASYN_INFER, T=scheme.T,
                                h=scheme.h if scheme.h is not None else link.T_s,
                                M=scheme.M, m=scheme.m)
        # jtsbo's range, at the first grid shift: an empty one fails before
        # any weight is formed
        _blocklength_cap(scheme.T, link.T_s, cfg, (scheme.M - 1) * link.T_s)
        # the group's points take the swept b values in turn
        sources = [replace(source, b=b) for b in spec.sweep.get("b_per_m", [source.b])]
        # the stacked runs read the points' weights, not sources[0].b
        syn_w, asyn_w = (np.stack([scheme_weights(s, field, c) for s in sources])
                         for c in (syn_cfg, asyn_cfg))
        # jtsbo first: its errors come before the syn runs score M weights
        asyn = jtsbo(sources[0], asyn_w, link, asyn_cfg, cfg)
        no_infer = optimize_blocklength(sources[0], field, link, no_cfg, cfg)
        syn = optimize_blocklength(sources[0], syn_w, link, syn_cfg, cfg)
        scans = []
        if spec.include_exhaustive:
            scans = [(tag + ":exhaustive", exhaustive_search(sources[0], w, link, c, cfg))
                     for tag, w, c in (("no-infer", field, no_cfg),
                                       ("syn-infer", syn_w, syn_cfg),
                                       ("asyn-infer", asyn_w, asyn_cfg))]
        runs = [("no-infer", no_infer), ("syn-infer", syn), ("asyn-infer", asyn), *scans]
        # each point's (tag, N, h, mse) per run: a run's lane, or the
        # no-infer run's numbers for every point; eps_bar is one call
        points = [[(tag, *(x if np.ndim(x) == 0 else x.item(lane)
                           for x in (res.N_star, res.h_star, res.mse_star)))
                   for tag, res in runs] for lane in range(len(sources))]
        eps = iter(blep_average(link, N=[p[1] for pts in points for p in pts]).tolist())
        for i, source, pts, steps in zip(idx.tolist(), sources, points, asyn.trace):
            rho = mssc(source, field)
            rows = [list(map(_cell, [tag, link.T_s, link.L, n, scheme.T, h, scheme.M, rho,
                                     next(eps), mse, None, None])) for tag, n, h, mse in pts]
            trace = [list(map(_cell, [t.iteration, t.h_s, t.N, t.mse, t.residual_h,
                                      t.residual_N]))
                     for t in steps]
            out[i] = (rows, [trace])
    return out


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

# output kind -> (columns, output function, (side-file stem, side columns)).
# An output function maps a spec to one (rows, side chunks or None) pair per
# sweep point, in sweep order (see _groups), where side chunks is an
# iterable of lists of rows; every row is a text row (see _write_csv); the
# side file is written per sweep point that has them
OUTPUTS = {
    "analytic": (ANALYTIC_COLUMNS, _analytic_rows, None),
    "regions": (REGION_COLUMNS, _region_rows, None),
    "simulate": (SIM_COLUMNS, lambda spec: [_sim_row(spec, values)
                                            for values, _, _ in _groups(spec)],
                 ("events", EVENT_COLUMNS)),
    "optimize": (ANALYTIC_COLUMNS, _optimize_rows, ("optimize_trace", TRACE_COLUMNS)),
}

# rows per chunk of a written CSV: a traced simulation's events file is
# made, hashed and written chunk by chunk
_CHUNK_ROWS = 1 << 14


def run_experiment(spec: ExperimentSpec, out_dir) -> dict:
    """Execute every requested output; returns the manifest dict.

    Sweep points are evaluated in sweep order.  Each output writes its CSV,
    then its side files ``<name>_<stem>_<point index>.csv`` in point order.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
            results = output_fn(spec)
            rows = [row for point_rows, _ in results for row in point_rows]
            _record(manifest, out_dir / f"{spec.name}_{kind}.csv", columns, [rows])
            for idx, (_, side_chunks) in enumerate(results):
                if side_chunks is not None:
                    _record(manifest, out_dir / f"{spec.name}_{side[0]}_{idx}.csv",
                            side[1], side_chunks)
    except Exception as exc:
        manifest["status"] = "partial"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        _write_manifest(out_dir, spec, manifest)
        raise

    _write_manifest(out_dir, spec, manifest)
    return manifest


def _quoted_by_csv():
    """A pattern of the characters that make csv.writer(lineterminator="\\n")
    quote a string: a comma, a quote and a newline, and a carriage return on
    the interpreters that quote it (Python 3.13 does, 3.10-3.12.1 do not).
    The writer is asked once, on a one-cell row per candidate character."""
    quoted = []
    for char in ',"\n\r':
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerow([char])
        if text.getvalue().startswith('"'):
            quoted.append(char)
    return re.compile("[" + re.escape("".join(quoted)) + "]")


_QUOTED = _quoted_by_csv()


def _cell(value):
    """The text of one CSV cell, as csv.writer(lineterminator="\\n") writes it.

    None is empty, a number its str (so a float is its repr and reads back
    bit for bit), and a string is itself, or quoted with its quotes doubled
    when it holds a character from _QUOTED.
    """
    if value is None:
        return ""
    if isinstance(value, str):
        return '"' + value.replace('"', '""') + '"' if _QUOTED.search(value) else value
    return str(value)


def _write_csv(path, columns, chunks):
    """Write the header and then each chunk (a list of text rows) of
    ``chunks``, hashing the bytes as they go; returns (SHA-256 hex digest,
    row count).

    A text row is a sequence of :func:`_cell` texts, where one text may hold
    several cells already joined by commas.  A row of one empty cell is
    written as ``""``, as csv.writer writes it, so it reads back as a row.
    """
    digest, rows = hashlib.sha256(), -1
    with open(path, "wb") as fh:
        for chunk in itertools.chain([[list(map(_cell, columns))]], chunks):
            lines = [",".join(row) or ('""' if row else "") for row in chunk]
            data = ("\n".join(lines) + "\n" if lines else "").encode()
            digest.update(data)
            fh.write(data)
            rows += len(chunk)
    return digest.hexdigest(), rows


def _record(manifest, path, columns, chunks):
    """Write one output CSV and list it, with the hash of its bytes, in the
    manifest."""
    digest, rows = _write_csv(path, columns, chunks)
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
    the relative error exceeds ``rel_bound`` (NaN or below 0 raises
    InvalidConfigError).  A row whose standard error is zero, missing or
    not finite passes only on an exact match (z = 0), and fails with
    z = inf otherwise.  Returns (passed, rows), a verdict dict per row.
    """
    if not rel_bound >= 0:
        raise InvalidConfigError(f"rel_bound must be >= 0, got {rel_bound}")
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
        z = _z_score(val, ref, stderr)
        rel = abs(val - ref) / abs(ref) if ref != 0 else math.inf
        ok = abs(z) <= 4.0 and rel <= rel_bound
        passed &= ok
        out.append({"row": i, "reference": ref, "value": val, "stderr": stderr,
                    "z_score": z, "rel_error": rel,
                    "verdict": "pass" if ok else "fail"})
    if out_path is not None:
        cols = ["row", "reference", "value", "stderr", "z_score", "rel_error",
                "verdict"]
        _write_csv(out_path, cols, [[[_cell(r[c]) for c in cols] for r in out]])
    return passed, out


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
