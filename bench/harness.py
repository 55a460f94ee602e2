"""Benchmark harness behind run.py: timing, checks, tracing and the
report. See run.py for usage and README.md for the metric definitions.
"""

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import spans
import workloads
import yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120
PROBE_YARDSTICKS = 5      # yardstick runs at the end of each set-up probe

# End-to-end metrics and units, in report order.
E2E_METRICS = [
    ("setup_s", "s"),
    ("setup_wall_s", "s"),
    ("solve_s", "s"),
    ("solve_norm_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("op_tail_norm_ms", "ms"),
    ("fail_frac", "frac"),
    ("err_over_tol", "ratio"),
    ("peak_rss_mb", "MB"),
]


def _git_sha():
    """HEAD of the checkout's own .git, read without running git so
    nothing outside the checkout is searched."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp():
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                               "OPENBLAS_NUM_THREADS")},
    }


class Recorder:
    """Times operations one after another and applies their checks.
    Given a yardstick, times it before every operation, outside the
    operation's latency."""

    def __init__(self, time_yardstick=None):
        self.time_yardstick = time_yardstick
        self.yard = []
        self.yard_s = 0.0
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0
        self.tracer = None
        self.op_span = None
        self._pass_ops = 0
        self._pass_failed = 0
        self._notes = 0

    def _note(self, what):
        if self._notes < 5:
            self._notes += 1
            print(f"# failure: {what}", file=sys.stderr)

    def _fail(self, what):
        self.failed += 1
        self._pass_failed += 1
        self._note(what)

    def call(self, fn, check):
        if self.time_yardstick is not None:
            self.yard.append(self.time_yardstick())
            self.yard_s += self.yard[-1]
        self.attempted += 1
        self._pass_ops += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = self.attempted
            span = tracer.open(self.op_span)
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:
            result = None
            error = traceback.format_exc(limit=2)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.close(span)
            tracer.op_id = -1
        self.latencies.append(elapsed)
        if result is None:
            self._fail(error.strip().splitlines()[-1])
            return None
        try:
            ratio = check(result)
        except workloads.OracleFailure as e:
            ratio, what = math.inf, str(e)
        else:
            what = f"error over tolerance {ratio:.3g}"
        self.worst = max(self.worst, ratio)
        if not ratio <= 1.0:
            self._fail(what)
        return result

    def end_pass(self, ok, ratio):
        """A failed pass-level oracle fails every operation of the pass."""
        self.worst = max(self.worst, ratio)
        if not ok:
            self._note(f"pass check, error over tolerance {ratio:.3g}")
            self.failed += self._pass_ops - self._pass_failed
        self._pass_ops = self._pass_failed = 0


def run_pass(wl, rec):
    """Wall time of one pass, less the yardstick runs inside it."""
    yard_s = rec.yard_s
    start = time.perf_counter()
    ok, ratio = wl.run_pass(rec.call)
    rec.end_pass(ok, ratio)
    return time.perf_counter() - start - (rec.yard_s - yard_s)


def bracketing(yard):
    """Each operation's yardstick time: the mean of the runs just before
    and just after it; the last operation has only the one before."""
    return [0.5 * (a + b) for a, b in zip(yard, yard[1:])] + yard[-1:]


def normalised_pass(lat, yard, wall):
    """One pass in yardstick units: each operation's latency over its
    yardstick time, and the rest of the pass (checks, the workload's own
    code) over the pass's median yardstick time."""
    ops = sum(l / y for l, y in zip(lat, yard))
    return ops + (wall - sum(lat)) / statistics.median(yard)


def tail(latencies):
    """The highest order statistic with at least ten samples beyond it,
    its percentile and the sample count; the maximum below 11 samples."""
    xs = sorted(latencies)
    n = len(xs)
    k = n - 10 if n > 10 else n
    return xs[k - 1], math.floor(100.0 * k / n), n


def measure_setup(args):
    """Fresh interpreters that import itsub and finish the workload's
    first operation: the median of their wall times, and the median of
    their wall times normalised by the yardstick each interpreter runs
    after its operation (the yardstick runs themselves not counted)."""
    cmd = [sys.executable, RUN, "--probe", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    walls, norm = [], []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        yard = [float(v) for v in proc.stdout.split()[-PROBE_YARDSTICKS:]]
        walls.append(wall - sum(yard))
        norm.append(walls[-1] / statistics.median(yard) * yardstick.REF_S)
    return statistics.median(walls), statistics.median(norm)


def probe(args):
    """Set-up probe: only the first operation; its result is checked by
    the measured run, and an operation that raises still finished."""
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)

    def call(fn, check):
        try:
            return fn()
        except Exception:
            traceback.print_exc(limit=2)
            return None

    wl.first_op(call)
    print(*(yardstick.measure() for _ in range(PROBE_YARDSTICKS)))
    return 0


def untraced(args, wl):
    rec = Recorder(yardstick.measure)
    passes, bounds = [], [0]
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start + passes[-1]
                         + rec.yard_s / len(passes) <= args.seconds):
        passes.append(run_pass(wl, rec))
        bounds.append(len(rec.latencies))
    lat, yard = rec.latencies, bracketing(rec.yard)
    norm = [normalised_pass(lat[a:b], yard[a:b], wall)
            for a, b, wall in zip(bounds, bounds[1:], passes)]
    p50 = statistics.median(lat)
    tail_s, pct, n = tail(lat)
    tail_norm = tail([l / y for l, y in zip(lat, yard)])[0]
    values = {
        "solve_s": statistics.median(passes),
        "solve_norm_s": statistics.median(norm) * yardstick.REF_S,
        "op_p50_ms": p50 * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "op_tail_norm_ms": tail_norm * yardstick.REF_S * 1e3,
        "fail_frac": rec.failed / rec.attempted,
        "err_over_tol": rec.worst,
    }
    notes = {
        "solve_s": f"median of {len(passes)} passes",
        "solve_norm_s": (f"median of {len(passes)} passes; yardstick median "
                         f"{statistics.median(rec.yard) * 1e3:.3f} ms, "
                         f"ref {yardstick.REF_S * 1e3:g} ms"),
        "op_p50_ms": f"n={n}",
        "op_tail_ms": f"p{pct}, n={n}",
        "op_tail_norm_ms": f"p{pct}, n={n}",
        "fail_frac": f"{rec.failed} of {rec.attempted}",
    }
    return rec, values, notes


def traced(args, wl):
    tracer = spans.Tracer()
    rec = Recorder()
    rec.op_span = tracer.name_id("bench.op")
    plain, timed = [], []
    start = time.perf_counter()
    while not timed or (time.perf_counter() - start + plain[-1] + timed[-1]
                        <= args.seconds):
        plain.append(run_pass(wl, rec))
        tracer.install()
        rec.tracer = tracer
        try:
            timed.append(run_pass(wl, rec))
        finally:
            rec.tracer = None
            tracer.remove()
    recorded = tracer.arrays()
    values = spans.layer_metrics(recorded, len(timed))
    base = statistics.median(plain)
    values["trace.overhead_frac"] = (statistics.median(timed) - base) / base
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.save(os.path.join(out_dir, f"spans_{args.workload}_{args.seed}.npz"))
    notes = {"trace.overhead_frac":
             f"{len(timed)} traced vs {len(plain)} untraced passes"}
    return rec, values, notes


def report(names_units, values, notes):
    for name, unit in names_units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} {float(values[name])!r} {unit}{note}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(prog="bench/run.py",
                                 description="itsub benchmark, one workload")
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, one set-up probe (smoke test)")
    ap.add_argument("--probe", action="store_true",
                    help="internal: run the first operation and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def gated_metrics():
    """The metrics BENCHMARK.json gates, as {trace: [(name, unit)]}."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {t: [(m["name"], m["unit"]) for m in spec[key]]
            for t, key in ((0, "end_to_end"), (1, "per_layer"))}


def main(argv=None):
    args = parse_args(argv)
    if args.probe:
        return probe(args)
    setup = None if args.trace else measure_setup(args)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    wl.prepare()
    print("# env " + json.dumps(env_stamp(), sort_keys=True))
    print(f"# workload {args.workload}: {wl.why}")
    if args.trace:
        rec, values, notes = traced(args, wl)
        names_units = spans.LAYER_METRICS
    else:
        rec, values, notes = untraced(args, wl)
        values["setup_wall_s"], values["setup_s"] = setup
        repeats = 1 if args.tiny else SETUP_REPEATS
        notes["setup_wall_s"] = f"median of {repeats} fresh interpreters"
        notes["setup_s"] = (f"median of {repeats} fresh interpreters, "
                            "normalised by the yardstick")
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024.0)
        names_units = E2E_METRICS
    report(names_units, values, notes)
    gated = dict(gated_metrics()[args.trace])
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in gated.items()},
    }
    print(json.dumps(result))
    return 0 if rec.failed == 0 else 1
