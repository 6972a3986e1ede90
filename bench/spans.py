"""In-memory span tracer that wraps public layer functions from outside.

Each entry of WRAPS names a function as it is looked up at its call site:
the module whose globals hold the name, the attribute, and the layer the
span is charged to.  ``Tracer.install`` replaces those attributes with
timing wrappers and ``Tracer.uninstall`` restores the originals, so
untraced iterations run the unmodified program.  Nothing under ``src/`` is
edited.

Per-grid-point helpers (``psi_values``, ``_asyn_value``, ...) are left
unwrapped on purpose: wrapping them would add hundreds of thousands of
spans per iteration and the trace would mostly measure itself.
"""

from __future__ import annotations

import collections
import csv
import inspect
import itertools
import time
from pathlib import Path

from sptrecon import experiments, mse, optimize, simulate

# (module, attribute, layer)
WRAPS = [
    # blep: every reliability model, at each module that imports one
    (experiments, "blep_average", "blep"),
    (mse, "blep_average", "blep"),
    (optimize, "blep_average", "blep"),
    (optimize, "blep_average_simplified", "blep"),
    (optimize, "dblep_dN", "blep"),
    (simulate, "blep_segmented", "blep"),
    (simulate, "blep_instantaneous", "blep"),
    # mse: closed forms where the runner and the optimizers call them
    (experiments, "average_mse", "mse.closed_form"),
    (experiments, "mse_no_infer", "mse.closed_form"),
    (experiments, "mse_syn_infer_approx", "mse.closed_form"),
    (experiments, "mse_asyn_infer_approx", "mse.closed_form"),
    (optimize, "mse_no_infer", "mse.closed_form"),
    (optimize, "mse_syn_infer", "mse.closed_form"),
    (optimize, "mse_asyn_infer", "mse.closed_form"),
    (experiments, "bounds", "mse.bounds"),
    (mse, "eps_star_asyn", "mse.eps_star_asyn"),
    # regions
    (experiments, "threshold_infer", "regions"),
    (experiments, "threshold_asyn_over_syn", "regions"),
    (experiments, "classify", "regions"),
    # optimize
    (experiments, "exhaustive_search", "optimize.exhaustive"),
    (experiments, "jtsbo", "optimize.jtsbo"),
    (experiments, "optimize_blocklength_syn", "optimize.single"),
    (optimize, "optimize_time_shift", "optimize.single"),
    (optimize, "optimize_blocklength_asyn", "optimize.single"),
    (optimize, "eval_H", "optimize.stationarity"),
    (optimize, "eval_J", "optimize.stationarity"),
    (optimize, "eval_F", "optimize.stationarity"),
    # simulate and field
    (experiments, "simulate_event_level", "simulate.event_level"),
    (simulate, "simulate_event_level", "simulate.event_level"),
    (simulate, "simulate_data_level", "simulate.data_level"),
    (experiments, "mssc", "field.mssc"),
    (simulate, "sample_joint_gaussian", "field.sample_joint_gaussian"),
    # experiments: the runner itself and spec loading
    (experiments, "load_spec", "experiments.load_spec"),
    (experiments, "run_experiment", "experiments.run"),
]

_EPS_PARAMS = inspect.signature(mse.eps_star_asyn).parameters
EPS_GRID_DEFAULT = (_EPS_PARAMS["grid_size"].default
                    if "grid_size" in _EPS_PARAMS else 0)

BRANCHES = ["interior-root", "lower-boundary", "upper-boundary",
            "plateau-edge", "grid-fallback"]


def _count_result(counts, layer, args, kwargs, out):
    """Work counters read from a layer's arguments and returned value."""
    if layer == "mse.eps_star_asyn":
        counts["eps_grid_points"] += kwargs.get(
            "grid_size", args[4] if len(args) > 4 else EPS_GRID_DEFAULT)
    elif layer == "optimize.exhaustive":
        counts["evaluations"] += out.evaluations or 0
    elif layer == "optimize.jtsbo":
        counts["jtsbo_iterations"] += out.iterations
        counts["jtsbo_converged"] += int(out.converged)
    elif layer == "optimize.single":
        counts["branch." + out.branch] += 1
    elif layer == "simulate.event_level":
        counts["periods"] += out.periods
        counts["receptions"] += out.aux["receptions"]
    elif layer == "simulate.data_level":
        counts["entries"] += out.aux["n_samples"] + out.aux["n_eval_points"]
    elif layer == "field.sample_joint_gaussian":
        k = len(args[2]) if len(args) > 2 else len(kwargs["sample_times"])
        counts["cov_bytes"] += k * k * 8
    elif layer == "experiments.run":
        out_dir = Path(args[1])
        counts["rows_written"] += sum(o["rows"] for o in out["outputs"])
        counts["bytes_written"] += sum(
            (out_dir / o["file"]).stat().st_size for o in out["outputs"])
        counts["bytes_written"] += (
            out_dir / f"{out['experiment']}.manifest.json").stat().st_size


class Tracer:
    """Collects spans [id, layer, start, end, parent id, child seconds]."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []
        self._ids = itertools.count()
        self._saved = []

    def install(self):
        for module, attr, layer in WRAPS:
            # a name no longer imported at a call site has no calls there
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, layer):
        stack, spans, counts, ids = self._stack, self.spans, self.counts, self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [next(ids), layer, clock(), 0.0,
                   stack[-1][0] if stack else -1, 0.0]
            stack.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                if stack:
                    stack[-1][5] += rec[3] - rec[2]
                spans.append(rec)
            _count_result(counts, layer, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def layer_totals(self):
        """layer -> (calls, self seconds, inclusive seconds)."""
        calls = collections.Counter()
        self_s = collections.Counter()
        incl_s = collections.Counter()
        for _, layer, t0, t1, _, child in self.spans:
            calls[layer] += 1
            self_s[layer] += (t1 - t0) - child
            incl_s[layer] += t1 - t0
        return calls, self_s, incl_s

    def write(self, path):
        """Dump every span, in completion order, as CSV."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["id", "layer", "start_s", "end_s", "parent", "self_s"])
            for sid, layer, t0, t1, parent, child in self.spans:
                out.writerow([sid, layer, f"{t0:.9f}", f"{t1:.9f}", parent,
                              f"{t1 - t0 - child:.9f}"])


def per_layer_metrics(tracer, iterations, traced_wall, overhead_s):
    """Per-iteration layer metrics from the spans of ``iterations`` runs."""
    calls, self_s, incl_s = tracer.layer_totals()
    c = tracer.counts
    n = float(iterations)

    def per(x):
        return x / n

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    put("blep.calls", per(calls["blep"]), "count")
    put("blep.self_s", per(self_s["blep"]), "s")
    put("mse.closed_form.calls", per(calls["mse.closed_form"]), "count")
    put("mse.closed_form.self_s", per(self_s["mse.closed_form"]), "s")
    put("mse.eps_star_asyn.calls", per(calls["mse.eps_star_asyn"]), "count")
    put("mse.eps_star_asyn.self_s", per(self_s["mse.eps_star_asyn"]), "s")
    put("mse.eps_star_asyn.grid_points", per(c["eps_grid_points"]), "count")
    put("mse.bounds.calls", per(calls["mse.bounds"]), "count")
    put("mse.bounds.self_s", per(self_s["mse.bounds"]), "s")
    put("regions.calls", per(calls["regions"]), "count")
    put("regions.self_s", per(self_s["regions"]), "s")
    put("optimize.exhaustive.calls", per(calls["optimize.exhaustive"]), "count")
    put("optimize.exhaustive.self_s", per(self_s["optimize.exhaustive"]), "s")
    put("optimize.exhaustive.evaluations", per(c["evaluations"]), "count")
    put("optimize.exhaustive.evals_per_s",
        ratio(c["evaluations"], incl_s["optimize.exhaustive"]), "1/s")
    put("optimize.jtsbo.calls", per(calls["optimize.jtsbo"]), "count")
    put("optimize.jtsbo.self_s", per(self_s["optimize.jtsbo"]), "s")
    put("optimize.jtsbo.iterations", per(c["jtsbo_iterations"]), "count")
    put("optimize.jtsbo.converged_frac",
        ratio(c["jtsbo_converged"], calls["optimize.jtsbo"]), "frac")
    put("optimize.single.calls", per(calls["optimize.single"]), "count")
    put("optimize.single.self_s", per(self_s["optimize.single"]), "s")
    for branch in BRANCHES:
        put("optimize.branch." + branch, per(c["branch." + branch]), "count")
    put("optimize.stationarity.calls", per(calls["optimize.stationarity"]), "count")
    put("optimize.stationarity.self_s", per(self_s["optimize.stationarity"]), "s")
    put("simulate.event_level.calls", per(calls["simulate.event_level"]), "count")
    put("simulate.event_level.self_s", per(self_s["simulate.event_level"]), "s")
    put("simulate.event_level.periods", per(c["periods"]), "count")
    put("simulate.event_level.receptions", per(c["receptions"]), "count")
    put("simulate.event_level.periods_per_s",
        ratio(c["periods"], incl_s["simulate.event_level"]), "1/s")
    put("simulate.data_level.calls", per(calls["simulate.data_level"]), "count")
    put("simulate.data_level.self_s", per(self_s["simulate.data_level"]), "s")
    put("simulate.data_level.entries", per(c["entries"]), "count")
    put("field.mssc.calls", per(calls["field.mssc"]), "count")
    put("field.mssc.self_s", per(self_s["field.mssc"]), "s")
    put("field.sample_joint_gaussian.self_s",
        per(self_s["field.sample_joint_gaussian"]), "s")
    put("field.cov_bytes", per(c["cov_bytes"]), "bytes")
    put("experiments.load_spec_s", per(self_s["experiments.load_spec"]), "s")
    put("experiments.run.self_s", per(self_s["experiments.run"]), "s")
    put("experiments.run.rows_written", per(c["rows_written"]), "count")
    put("experiments.run.bytes_written", per(c["bytes_written"]), "bytes")
    accounted = sum(self_s.values())
    put("trace.wall_s", traced_wall, "s")
    put("trace.accounted_frac", ratio(per(accounted), traced_wall), "frac")
    put("trace.overhead_s", overhead_s, "s")
    put("trace.spans", per(len(tracer.spans)), "count")
    return out
