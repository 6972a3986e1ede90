"""sptrecon benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` and nothing is installed.  Generated configs, outputs and the span
dump go to ``.bench_work/<workload>/``.

Each run:

1. writes the workload's configs for the seed (see workloads.py);
2. runs one untimed warm-up iteration and checks every row it wrote
   (checks.py);
3. repeats the iteration for ``--seconds``, starting no iteration that
   would end past the deadline, and checks that every iteration writes the
   same bytes;
4. with ``--trace 0``, before and between iterations, times SETUP_REPEATS
   fresh interpreters that import ``sptrecon`` and load the configs
   (``setup_s``), spread over the window and not counted in it;
5. prints a summary, an ``env`` line and, as the last line, the result.

Timed values are host-adjusted: a fixed pure-Python loop is timed every
SAMPLE_EVERY_S while iterations run and around every set-up sample, and
each time is scaled by CALIB_REF_S over the mean loop time measured during
it (see CALIB_REF_S).

With ``--trace 1`` untraced and traced iterations alternate; the traced
ones give the per-layer metrics (spans.py) and must write the same bytes.
Single process throughout; BLAS keeps its default thread count.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no caches in the checkout

import argparse  # noqa: E402
import collections  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
HASH_SEED = "0"
# Time of host_calib_s on a 2-vCPU Xeon VM in its fast phases.  On a shared
# host the same code runs up to 1.7x slower for seconds to minutes at a
# time; timed values are reported scaled by CALIB_REF_S / (loop time
# measured while they ran).  The constant only fixes the unit; the raw wall
# times go to the env line.
CALIB_LOOPS = 10_000
CALIB_REF_S = 0.0005
SAMPLE_EVERY_S = 0.05  # about 1% of the time goes to the samples
SETUP_CODE = (
    "import sys\n"
    "sys.dont_write_bytecode = True\n"
    "sys.path.insert(0, 'src')\n"
    "from sptrecon import experiments\n"
    "for path in sys.argv[1:]:\n"
    "    experiments.load_spec(path)\n"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=22)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def percentile(values, q):
    """Linear-interpolation percentile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure_setup(cfg_paths):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-B", "-c", SETUP_CODE,
                    *map(str, cfg_paths)], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def host_calib_s():
    """Time of a fixed pure-Python loop: how fast the host runs right now.

    It runs no program code.  Steal time misses the slow phases in which
    the vCPU runs but shares its core; this loop slows down with them.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(CALIB_LOOPS):
        total += i % 7
    return time.perf_counter() - t0


class HostSpeed:
    """host_calib_s samples, taken every SAMPLE_EVERY_S while started.

    A SIGALRM handler takes them in the middle of an iteration, so a long
    iteration is scaled by the host speed during it, not only at its ends.
    """

    def __init__(self):
        self.samples = [host_calib_s()]
        self.spent = 0.0  # seconds the handler took
        self.running = False

    def _tick(self, signum, frame):
        self.samples.append(host_calib_s())
        self.spent += self.samples[-1]

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.running = True

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.running = False

    def mark(self):
        return len(self.samples), self.spent

    def adjust(self, seconds, mark):
        """Host-adjusted ``seconds`` of work that began at ``mark``.

        Drops the handler's own time; with no sample inside (a short
        iteration) the latest one before it stands in.
        """
        first, spent = mark
        window = self.samples[first:] or self.samples[-1:]
        busy = seconds - (self.spent - spent)
        return busy * CALIB_REF_S / statistics.fmean(window)

    def around(self, fn):
        """Run ``fn``, with the timer paused and 5 samples on each side.

        Returns (fn's result, the mean sample time around it).
        """
        running = self.running
        self.stop()
        before = [host_calib_s() for _ in range(5)]
        out = fn()
        after = [host_calib_s() for _ in range(5)]
        self.samples += before + after
        if running:
            self.start()
        return out, statistics.fmean(before + after)


def host_steal_s():
    """Machine-wide stolen CPU seconds so far (read-only /proc/stat)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_sha256():
    """Content hash of the package sources, for checkouts without git."""
    h = hashlib.sha256()
    pkg = SRC / "sptrecon"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(pkg)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def blas_info():
    """(OpenBLAS configuration string, thread count) of the loaded BLAS."""
    import ctypes

    import numpy as np

    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    version, threads = config.get("openblas configuration"), 0
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(handle, f"{prefix}get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return get_config().decode(), get_threads()
    return version, threads


def environment(args, variant, steal_s, calib, wall_s, cpu_s):
    import numpy
    import scipy

    blas_version, blas_threads = blas_info()
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "variant": variant,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
        "host_steal_s": steal_s,
        "host_calib_s": statistics.median(calib),
        "calib_ref_s": CALIB_REF_S,
        "iterations_wall_s": wall_s,
        "iterations_cpu_s": cpu_s,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sptrecon" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashing changes dict layout and with it the interpreter's
        # speed by several percent from one process to the next; one fixed
        # seed removes that source of run-to-run spread
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.path.insert(0, str(SRC))

    import checks
    import workloads
    from spans import Tracer, per_layer_metrics

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    out_dir = work / "out"
    variant = workloads.variant_of(args.seed)
    configs = workloads.write_configs(args.workload, variant, work / "cfg")
    refs = checks.load_refs()
    known = refs["known_failures"][str(variant)]

    host = HostSpeed()
    setup_raw, setup = [], []

    def take_setup():
        """One set-up sample; returns the seconds it cost."""
        t0 = time.perf_counter()
        raw, calib = host.around(
            lambda: measure_setup([p for _, p, _ in configs]))
        setup_raw.append(raw)
        setup.append(raw * CALIB_REF_S / calib)
        return time.perf_counter() - t0

    busy = [0.0, 0.0]  # wall and CPU seconds of the timed iterations

    def timed_iteration():
        """Returns (result, wall seconds, host-adjusted seconds)."""
        gc.collect()
        mark = host.mark()
        t0, c0 = time.perf_counter(), time.process_time()
        res = workloads.run_iteration(args.workload, configs, out_dir)
        dt = time.perf_counter() - t0
        busy[0] += dt
        busy[1] += time.process_time() - c0
        return res, dt, host.adjust(dt, mark)

    attempted = failed = 0
    records = []
    plain, plain_adj, traced, traced_fps, fps = [], [], [], [], []
    tracer = Tracer()
    steal0 = host_steal_s()
    try:
        if not args.trace:
            take_setup()
        attempted += 1
        first = workloads.run_iteration(args.workload, configs, out_dir)
        recs, _ = checks.output_checks(first, out_dir,
                                       checks.refs_for(refs, variant))
        records += recs
        records += checks.bundled_checks(first, configs, variant,
                                         workloads.bundled_text)
        first_fp = workloads.fingerprint(first)

        deadline = time.perf_counter() + args.seconds
        if not args.trace:
            host.start()
        while True:
            attempted += 1
            res, dt, adj = timed_iteration()
            plain.append(dt)
            plain_adj.append(adj)
            fps.append(workloads.fingerprint(res))
            step = dt
            if args.trace:
                attempted += 1
                tracer.install()
                try:
                    res, dt, _ = timed_iteration()
                finally:
                    tracer.uninstall()
                traced.append(dt)
                traced_fps.append(workloads.fingerprint(res))
                step += dt
            # spread the set-up samples over the window, so that they meet
            # the same host conditions as the iterations
            due = 1 + int((SETUP_REPEATS - 1) * sum(plain) / args.seconds)
            while not args.trace and len(setup) < min(due, SETUP_REPEATS):
                deadline += take_setup()
            if time.perf_counter() + step > deadline:
                break
        while not args.trace and len(setup) < SETUP_REPEATS:
            take_setup()
    except Exception:  # report the failed operation, then the result
        failed += 1
        traceback.print_exc()
    finally:
        host.stop()
    steal_s = host_steal_s() - steal0

    if not failed:
        records += checks.same_outputs("determinism", first_fp, fps)
        if args.trace:
            records += checks.same_outputs("trace_digest", first_fp, traced_fps)
    unexpected = checks.unexpected_failures(records, known)
    correct = not failed and not unexpected

    by_kind = collections.defaultdict(lambda: [0, 0])
    for kind, key, ok in records:
        by_kind[kind][0] += not ok
        by_kind[kind][1] += 1
    n_fail = sum(f for f, _ in by_kind.values())
    fail_frac = n_fail / len(records) if records else 0.0
    for kind, key in unexpected:
        print(f"check failed: {kind} {key}", file=sys.stderr)
    print("checks: " + ", ".join(
        f"{kind} {f}/{n} failed" + (" (known defect)" if kind in
                                    checks.KNOWN_DEFECT_KINDS and f else "")
        for kind, (f, n) in sorted(by_kind.items()))
        + f"; check_fail_frac={fail_frac:.6f}")

    metrics = {}
    if not failed:
        print(f"iterations: {len(plain)} untraced, {len(traced)} traced; "
              f"wall median {statistics.median(plain):.4f} s, host-adjusted "
              f"{statistics.median(plain_adj):.4f} s")
        if args.trace:
            overhead = statistics.median(traced) - statistics.median(plain)
            metrics = per_layer_metrics(tracer, len(traced),
                                        statistics.fmean(traced), overhead)
            tracer.write(work / "spans.csv")
            extra = {
                "check.attempted": (len(records), "count"),
                "check.failed": (n_fail, "count"),
                "check.fail_frac": (fail_frac, "frac"),
                "run_s.samples": (len(plain), "count"),
                "run_s.raw_p50": (statistics.median(plain), "s"),
                "env.nproc": (os.cpu_count(), "count"),
                "env.blas_threads": (blas_info()[1], "count"),
                "env.steal_s": (steal_s, "s"),
                "env.calib_s": (statistics.median(host.samples), "s"),
            }
            for name, (value, unit) in extra.items():
                metrics[name] = {"value": value, "unit": unit}
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "run_s.p50": {"value": statistics.median(plain_adj), "unit": "s"},
                "run_s.p90": {"value": percentile(plain_adj, 0.9), "unit": "s"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            }
    env = environment(args, variant, steal_s, host.samples, *busy)
    if plain:
        env["raw_run_s_p50"] = statistics.median(plain)
        env["raw_run_s_p90"] = percentile(plain, 0.9)
    if setup_raw:
        env["raw_setup_s"] = statistics.median(setup_raw)
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
