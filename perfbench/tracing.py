"""Spans around calls into each budgetmech module, recorded from outside.

A wrapper is installed where each name is looked up at call time (a module
global or a class attribute), so the package itself is not edited.  Spans go
into flat arrays in memory and are written out when the run ends.  A span's
self time is its duration minus the durations of its direct children; spans
are opened and closed on one stack in one thread, so children never overlap.
"""

import importlib
import time
from array import array
from collections import Counter

LAYERS = ("matroids", "intersection", "mechanisms", "oracle", "xos", "verify",
          "instance_io", "cli")

SELECT_SPANS = ("matroids.greedy", "intersection.bipartite", "intersection.greedy")
TRUTHFULNESS_SPANS = ("verify.truthfulness", "verify.xos_truthfulness")
RUN_SPANS = ("mechanisms.run", "xos.run")


def _observe_mechanism(counters, outcome):
    counters["mechanisms.loop_iterations"] += len(outcome.trace)
    for step in outcome.trace:
        if step.removed is not None:
            counters["removals"] += 1
            if step.removed not in step.chosen:
                counters["removals_outside_chosen"] += 1


def _observe_xos(counters, outcome):
    if outcome.branch == "max-element":
        return
    # the threshold search enumerates subsets of T1, the surplus argmax of T2
    counters["xos.enumerated_subsets"] += (1 << len(outcome.t1)) + (1 << len(outcome.t2))
    if not outcome.t2:
        counters["xos.empty_t2_runs"] += 1


# (span name, "module" or "module:Class", attribute, result observer)
SITES = (
    ("matroids.greedy", "budgetmech.mechanisms", "max_weight_independent_set", None),
    ("matroids.greedy", "budgetmech.verify", "max_weight_independent_set", None),
    ("matroids.delete", "budgetmech.matroids:Matroid", "delete", None),
    ("matroids.is_independent", "budgetmech.matroids:Matroid", "is_independent", None),
    ("matroids.is_independent", "budgetmech.intersection:IntersectionSpec",
     "is_independent", None),
    # get_blackbox reads these two globals at call time
    ("intersection.bipartite", "budgetmech.intersection", "exact_bipartite_matching", None),
    ("intersection.greedy", "budgetmech.intersection", "greedy_common_independent", None),
    ("mechanisms.run", "budgetmech.cli", "run_matroid_mechanism", _observe_mechanism),
    ("mechanisms.run", "budgetmech.cli", "run_intersection_mechanism", _observe_mechanism),
    ("mechanisms.run", "budgetmech.verify", "run_matroid_mechanism", _observe_mechanism),
    ("mechanisms.run", "budgetmech.verify", "run_intersection_mechanism", _observe_mechanism),
    ("mechanisms.run", "budgetmech.xos", "run_matroid_mechanism", _observe_mechanism),
    ("mechanisms.with_bid", "budgetmech.mechanisms:Instance", "with_bid", None),
    ("oracle.brute_force", "budgetmech.verify", "brute_force_opt", None),
    ("xos.run", "budgetmech.xos", "xos_mechanism_main", _observe_xos),
    ("xos.run", "budgetmech.verify", "xos_mechanism_main", _observe_xos),
    ("verify.invariants", "budgetmech.verify", "check_outcome_invariants", None),
    ("verify.truthfulness", "budgetmech.verify", "check_truthfulness", None),
    ("verify.ratio", "budgetmech.verify", "check_ratio", None),
    ("verify.bid_independence", "budgetmech.verify", "check_bid_independence", None),
    ("verify.lemma1", "budgetmech.verify", "check_lemma1", None),
    ("verify.xos_truthfulness", "budgetmech.verify", "check_xos_truthfulness", None),
    ("instance_io.load", "budgetmech.cli", "load_instance_file", None),
    ("instance_io.outcome_to_json", "budgetmech.cli", "outcome_to_json", None),
    ("instance_io.instance_to_json", "budgetmech.verify", "instance_to_json", None),
    ("instance_io.instance_to_json", "budgetmech.verify", "xos_instance_to_json", None),
    ("cli.run", "budgetmech.cli", "main", None),
)


def _resolve(target):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """In-memory span recorder; ``on`` is cleared while the benchmark checks
    outputs, so checks made through the package leave no spans."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counters = Counter()
        self.on = True
        self._stack = []
        self._installed = []

    def open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, observe=None):
        raised_key = name.split(".")[0] + ".raised"

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counters[raised_key] += 1
                raise
            finally:
                self.close(idx)
            if observe is not None:
                observe(self.counters, result)
            return result

        return traced

    def install(self):
        for name, target, attr, observe in SITES:
            owner = _resolve(target)
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, observe))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Per-span self time in ns: duration minus direct children's durations."""
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[idx] - self.start[idx]
        return own

    def write_tsv(self, path):
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for idx, (nid, parent, s, e) in enumerate(
                    zip(self.name, self.parent, self.start, self.end)):
                fh.write(f"{idx}\t{parent}\t{self.names[nid]}\t{s}\t{e}\n")


def layer_metrics(tracer, passes, scale=1.0):
    """Per-layer metrics per traced pass over the op pool, from spans and
    counters; times are multiplied by ``scale``."""
    own = tracer.self_times()
    calls, self_ns = Counter(), Counter()
    select_in_runs = select_ns_in_runs = run_ns = sub_mechanism_ns = 0
    checks = deviations_plus_truthful = 0
    names = [tracer.names[nid] for nid in tracer.name]
    for idx, name in enumerate(names):
        calls[name] += 1
        self_ns[name] += own[idx]
        parent = tracer.parent[idx]
        parent_name = names[parent] if parent >= 0 else None
        duration = tracer.end[idx] - tracer.start[idx]
        if name == "mechanisms.run":
            run_ns += duration
            if parent_name == "xos.run":
                sub_mechanism_ns += duration
        elif name in SELECT_SPANS and parent_name == "mechanisms.run":
            select_in_runs += 1
            select_ns_in_runs += duration
        elif name in TRUTHFULNESS_SPANS:
            checks += 1
        if name in RUN_SPANS and parent_name in TRUTHFULNESS_SPANS:
            deviations_plus_truthful += 1

    counters = tracer.counters
    iterations = counters["mechanisms.loop_iterations"]
    removals = counters["removals"]

    def per_pass(value):
        return value / passes

    def ms(value_ns):
        return value_ns * scale / 1e6 / passes

    metrics = {
        "matroids.greedy_calls": (per_pass(calls["matroids.greedy"]), "count"),
        "matroids.greedy_ms": (ms(self_ns["matroids.greedy"]), "ms"),
        "matroids.delete_calls": (per_pass(calls["matroids.delete"]), "count"),
        "matroids.delete_ms": (ms(self_ns["matroids.delete"]), "ms"),
        "matroids.is_independent_calls": (per_pass(calls["matroids.is_independent"]), "count"),
        "matroids.is_independent_ms": (ms(self_ns["matroids.is_independent"]), "ms"),
        "intersection.bipartite_calls": (per_pass(calls["intersection.bipartite"]), "count"),
        "intersection.bipartite_ms": (ms(self_ns["intersection.bipartite"]), "ms"),
        "intersection.greedy_calls": (per_pass(calls["intersection.greedy"]), "count"),
        "intersection.greedy_ms": (ms(self_ns["intersection.greedy"]), "ms"),
        "mechanisms.runs": (per_pass(calls["mechanisms.run"]), "count"),
        "mechanisms.self_ms": (ms(self_ns["mechanisms.run"]), "ms"),
        "mechanisms.loop_iterations": (per_pass(iterations), "count"),
        "mechanisms.select_hit_ratio": (
            1 - select_in_runs / iterations if iterations else 0.0, "ratio"),
        "mechanisms.select_time_share": (
            select_ns_in_runs / run_ns if run_ns else 0.0, "share"),
        "mechanisms.removed_outside_chosen_share": (
            counters["removals_outside_chosen"] / removals if removals else 0.0, "share"),
        "mechanisms.with_bid_calls": (per_pass(calls["mechanisms.with_bid"]), "count"),
        "mechanisms.with_bid_ms": (ms(self_ns["mechanisms.with_bid"]), "ms"),
        "oracle.brute_force_calls": (per_pass(calls["oracle.brute_force"]), "count"),
        "oracle.brute_force_ms": (ms(self_ns["oracle.brute_force"]), "ms"),
        "xos.runs": (per_pass(calls["xos.run"]), "count"),
        "xos.self_ms": (ms(self_ns["xos.run"]), "ms"),
        "xos.enumerated_subsets": (per_pass(counters["xos.enumerated_subsets"]), "count"),
        "xos.sub_mechanism_ms": (ms(sub_mechanism_ns), "ms"),
        "xos.empty_t2_runs": (per_pass(counters["xos.empty_t2_runs"]), "count"),
        "verify.invariants_ms": (ms(self_ns["verify.invariants"]), "ms"),
        "verify.truthfulness_ms": (ms(self_ns["verify.truthfulness"]), "ms"),
        "verify.deviations": (per_pass(deviations_plus_truthful - checks), "count"),
        "verify.ratio_ms": (ms(self_ns["verify.ratio"]), "ms"),
        "verify.bid_independence_ms": (ms(self_ns["verify.bid_independence"]), "ms"),
        "verify.lemma1_ms": (ms(self_ns["verify.lemma1"]), "ms"),
        "verify.xos_truthfulness_ms": (ms(self_ns["verify.xos_truthfulness"]), "ms"),
        "instance_io.load_ms": (ms(self_ns["instance_io.load"]), "ms"),
        "instance_io.outcome_to_json_ms": (ms(self_ns["instance_io.outcome_to_json"]), "ms"),
        "instance_io.instance_to_json_calls": (
            per_pass(calls["instance_io.instance_to_json"]), "count"),
        "instance_io.instance_to_json_ms": (ms(self_ns["instance_io.instance_to_json"]), "ms"),
        "cli.run_self_ms": (ms(self_ns["cli.run"]), "ms"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.raised"] = (per_pass(counters[f"{layer}.raised"]), "count")
    return metrics
