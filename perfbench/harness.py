"""Closed-loop measurement: one caller sends each op after the previous one
returns, in complete passes over the workload's op pool.

A pass is never cut short, so every run measures the same ops in the same
proportions; another pass starts only while the run ends nearer to the time
asked for.  End-to-end runs are untraced.  A traced run alternates untraced
and traced passes over the same pool and reports the per-layer metrics of the
traced passes and their overhead against the untraced ones.
"""

import bisect
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

from budgetmech import rationals

import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_REPEATS = 5
NOMINAL_REF_NS = 300_000
REF_EVERY_NS = 20_000_000
NEAREST = 1


def stamp():
    """Backend, interpreter, commit and cores: numbers from different rational
    backends are never compared."""
    return {
        "backend": "fraction" if rationals.mpq is Fraction else "gmpy2",
        "python": sys.version.split()[0],
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
    }


def _git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def pinned_digests(name, seed):
    with open(DIGESTS) as fh:
        return json.load(fh).get(name, {}).get(str(seed), {})


def reference_slice():
    """Fixed work on the standard library only, about 0.3 ms on a 2-vCPU VM:
    its time tracks the machine's speed and no change to budgetmech can move
    it."""
    total = Fraction(0)
    seen = {}
    for i in range(1, 130):
        total += Fraction(i % 13 + 1, i % 97 + 1)
        seen[i % 31] = total.numerator % 1000
    return total


class Speed:
    """Times reference slices between ops, at most every ``REF_EVERY_NS``,
    and scales op times by them.

    The speed of a shared 2-vCPU VM swings by up to 2x over seconds to
    minutes, far more than the bounds allow.  Every reported time is
    therefore scaled to a nominal machine on which a reference slice takes
    ``NOMINAL_REF_NS``: it is multiplied by ``NOMINAL_REF_NS`` over the
    median of the samples taken nearest to it, ``NEAREST`` before and
    ``NEAREST`` after.  A sample is the median of three slices in a row.
    """

    def __init__(self):
        self.at = []
        self.ns = []
        self._due = 0

    def sample(self, force=False):
        started = time.perf_counter_ns()
        if force or started >= self._due:
            # the median drops a slice hit by an interrupt
            times = []
            for _ in range(3):
                slice_started = time.perf_counter_ns()
                reference_slice()
                times.append(time.perf_counter_ns() - slice_started)
            self.at.append(started)
            self.ns.append(sorted(times)[1])
            self._due = time.perf_counter_ns() + REF_EVERY_NS

    def factor(self, at=None):
        """Nominal over local slice time, near ``at`` or over all slices."""
        if at is None:
            return NOMINAL_REF_NS / statistics.median(self.ns)
        i = bisect.bisect_left(self.at, at)
        return NOMINAL_REF_NS / statistics.median(self.ns[max(0, i - NEAREST):i + NEAREST])

    def scaled(self, timed):
        """Scales ``(start_ns, ns)`` pairs; returns nominal ns."""
        return [ns * self.factor(at) for at, ns in timed]


def set_up(name, seed, toy, workdir):
    """Builds the op pool and runs one warm-up op; returns (workload, ops)."""
    workload = WORKLOADS[name](seed, toy=toy)
    ops = workload.setup(workdir)
    ops[0].run()
    return workload, ops


def import_ns(speed):
    """Scaled wall time for a fresh interpreter to import the package and the
    benchmark: the part of set-up that cannot be repeated in one process."""
    code = f"import sys; sys.path[:0] = [{SRC!r}, {HERE!r}]; import harness"
    timed = []
    for _ in range(SETUP_REPEATS):
        speed.sample(force=True)
        started = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", code], check=True)
        timed.append((started, time.perf_counter_ns() - started))
    speed.sample(force=True)
    return statistics.median(speed.scaled(timed))


class Checker:
    """Runs ops, checks outputs and counts failures against digests.

    With ``pinned`` set, ``expected`` holds the pinned digest of every op and
    an op without one fails; otherwise an op's first digest is kept and every
    later pass must repeat it.
    """

    def __init__(self, expected, pinned=False):
        self.expected = dict(expected)
        self.pinned = pinned
        self.speed = Speed()
        self.attempted = 0
        self.failed = 0
        self.first_error = None

    def one_pass(self, ops, timed, tracer=None):
        """Runs every op once, appending its ``(start_ns, ns)`` to ``timed``."""
        for op in ops:
            self.attempted += 1
            self.speed.sample()
            if tracer is not None:
                root = tracer.open("bench.op")
            started = time.perf_counter_ns()
            try:
                output = op.run()
            except Exception:
                output = None
                self._note(op, traceback.format_exc())
            timed.append((started, time.perf_counter_ns() - started))
            if tracer is not None:
                tracer.close(root)
                tracer.on = False
            try:
                ok, digest = op.check(output) if output is not None else (False, None)
            except Exception:
                ok, digest = False, None
                self._note(op, traceback.format_exc())
            if tracer is not None:
                tracer.on = True
            if ok and self.pinned:
                ok = self.expected.get(op.key) == digest
            elif ok:
                ok = self.expected.setdefault(op.key, digest) == digest
            if not ok:
                self.failed += 1
                self._note(op, "output check failed")

    def _note(self, op, message):
        if self.first_error is None:
            self.first_error = f"{op.key}: {message}"


def _another_pass(started, seconds, pass_seconds):
    # start a pass only if the run then ends nearer to ``seconds``
    return time.perf_counter() - started + pass_seconds / 2 <= seconds


def run_workload(name, seed, seconds, trace, toy=False, workdir=None, expected=None):
    """Sets up, measures and checks one workload; returns the result document.

    ``expected`` maps op keys to digests that every op must give; by default
    the digests pinned for the seed, if any.
    """
    workdir = workdir or os.path.join(WORK, name)
    if expected is None:
        expected = {} if toy else pinned_digests(name, seed)
    checker = Checker(expected, pinned=bool(expected))
    speed = checker.speed
    setup_timed = []
    for _ in range(SETUP_REPEATS):
        speed.sample(force=True)
        started = time.perf_counter_ns()
        workload, ops = set_up(name, seed, toy, workdir)
        setup_timed.append((started, time.perf_counter_ns() - started))
    speed.sample(force=True)
    setup_ns = statistics.median(speed.scaled(setup_timed))

    # a pinned op missing from the pool is a failure too
    stale = sorted(set(checker.expected) - {op.key for op in ops}) if checker.pinned else []
    if stale:
        checker.first_error = f"{stale[0]}: pinned but not in the op pool"

    started = time.perf_counter()
    if trace:
        tracer = tracing.Tracer()
        plain, traced = [], []
        passes = 0
        while passes == 0 or _another_pass(started, seconds, pair_s):
            pair_started = time.perf_counter()
            checker.one_pass(ops, plain)
            tracer.install()
            try:
                checker.one_pass(ops, traced, tracer)
            finally:
                tracer.uninstall()
            passes += 1
            pair_s = time.perf_counter() - pair_started
        metrics = tracing.layer_metrics(tracer, passes, speed.factor())
        overhead = sum(speed.scaled(traced)) / sum(speed.scaled(plain)) - 1
        metrics["trace.overhead_pct"] = (100 * overhead, "%")
        os.makedirs(workdir, exist_ok=True)
        tracer.write_tsv(os.path.join(workdir, "spans.tsv"))
        unscaled = {}
    else:
        timed = []
        passes = 0
        while passes == 0 or _another_pass(started, seconds, pass_s):
            pass_started = time.perf_counter()
            checker.one_pass(ops, timed)
            passes += 1
            pass_s = time.perf_counter() - pass_started
        setup_ns += import_ns(speed)
        metrics = latency_metrics(speed.scaled(timed))
        metrics["setup_s"] = (setup_ns / 1e9, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        unscaled = {k: v for k, (v, _) in latency_metrics([ns for _, ns in timed]).items()}
    finish_failed = workload.finish()
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "stamp": stamp(),
        "passes": passes,
        "ops_per_pass": len(ops),
        "attempted": checker.attempted,
        "failed": checker.failed + len(stale) + finish_failed,
        "first_error": checker.first_error,
        "reference_slice_ms": statistics.median(speed.ns) / 1e6,
        "nominal_slice_ms": NOMINAL_REF_NS / 1e6,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "unscaled": unscaled,
        "digests": checker.expected,
    }


def latency_metrics(latencies):
    return {
        "ops_per_s": (len(latencies) / (sum(latencies) / 1e9), "1/s"),
        "op_ms_p50": (hd_quantile(latencies, 0.5) / 1e6, "ms"),
        "op_ms_p90": (hd_quantile(latencies, 0.9) / 1e6, "ms"),
    }


def hd_quantile(values, p):
    """Harrell-Davis estimate of the ``p`` quantile: the mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) density over each
    one's share of [0, 1].  Op latencies come in tiers with gaps between
    them; one order statistic jumps across a gap when a few ops shift, the
    weighted mean moves smoothly.  Weights are integrated by Simpson's rule.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if x <= 0 or x >= 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    steps = 4
    step = 1 / n / steps
    weights = []
    for i in range(n):
        ys = [density(i / n + k * step) for k in range(steps + 1)]
        weights.append(ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2]))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)
