"""The benchmark's workloads: an op pool built from a seed, and a check of
every op's output.

Each workload builds a fixed pool of ops from ``seed``.  An op's ``run`` is
the timed call into the package's public functions; its ``check`` runs
afterwards, untimed, and returns ``(ok, digest)``.  The harness compares the
digest with the one pinned for the seed, or with the digest the same op gave
earlier in the run.  ``finish`` makes checks that need every op's output and
returns the number of ops they fail.
"""

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from budgetmech import cli, instance_io, verify, xos
from budgetmech.mechanisms import Outcome
from budgetmech.oracle import xos_opt
from budgetmech.rationals import ZERO, format_rational, mpq, parse_rational

KINDS = ("uniform", "partition", "graphic", "deadline")
XOS_PARAMS = dict(alpha=218, beta=mpq(9, 2), gamma=4)  # the CLI's and acceptance suite's
XOS_RATIO = 436


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


def digest(doc):
    text = doc if isinstance(doc, str) else json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def outcome_summary(outcome):
    return {
        "allocation": sorted(outcome.allocation),
        "payments": {e: format_rational(p) for e, p in sorted(outcome.payments.items())},
        "branch": outcome.branch,
    }


def proportional_payments_hold(outcome, weights):
    """Every payment is the final rate times the winner's weight, or the
    whole budget when only tau is bought; an independent route to the
    payment rule that catches a single altered payment."""
    if outcome.branch == "tau":
        return (outcome.allocation == {outcome.tau}
                and outcome.payments == {outcome.tau: outcome.budget})
    if outcome.final_rate is None or set(outcome.payments) != set(outcome.allocation):
        return False
    return all(p == outcome.final_rate * weights[e] for e, p in outcome.payments.items())


def _xos_tape(coin_seed, n):
    rng = random.Random(coin_seed)
    return rng.getrandbits(1), [rng.getrandbits(1) for _ in range(n)]


def continue_seeds(n):
    """Coin seeds of the sampling branch whose split leaves both halves
    nonempty, read from the tape as the acceptance suite does."""
    seed = 0
    while True:
        branch, bits = _xos_tape(seed, n)
        if branch == 0 and len(set(bits)) == 2:
            yield seed
        seed += 1


class RunLarge:
    """One op is one in-process ``budgetmech run`` on an instance file."""

    name = "run-large"

    def __init__(self, seed, toy=False):
        self.seed = seed
        # (n, instances per cycle): twice as many small instances keep the
        # latency tiers dense around p50 and p90, so neither falls in a gap
        self.sizes = ((8, 1), (12, 1)) if toy else ((100, 2), (200, 1))
        self.bipartite = (10, 1) if toy else (100, 2)
        self.cycles = 1 if toy else 5
        self._loaded = {}

    def setup(self, workdir):
        os.makedirs(workdir, exist_ok=True)
        ops = []
        index = 0
        for _ in range(self.cycles):
            for kind in KINDS:
                for n, copies in self.sizes:
                    for _ in range(copies):
                        for regime in ("tight", "loose"):
                            config = verify.GeneratorConfig(1, self.seed, (n, n), (kind,),
                                                            budget_regime=regime)
                            inst = verify.gen_matroid_instance(config, index)
                            path = self._write(workdir, f"{kind}-{n}-{regime}-{index}", inst)
                            ops.append(self._op(path, []))
                            index += 1
            n, copies = self.bipartite
            for _ in range(copies):
                for regime in ("tight", "loose"):
                    config = verify.GeneratorConfig(1, self.seed, (n, n), budget_regime=regime)
                    inst = verify.gen_bipartite_instance(config, index)
                    path = self._write(workdir, f"bipartite-{n}-{regime}-{index}", inst)
                    for apx in ("exact-bipartite", "greedy"):
                        ops.append(self._op(path, ["--apx", apx]))
                    index += 1
        return ops

    @staticmethod
    def _write(workdir, stem, inst):
        path = os.path.join(workdir, stem + ".json")
        with open(path, "w") as fh:
            json.dump(instance_io.instance_to_json(inst), fh)
        return path

    def _op(self, path, flags):
        argv = ["run", path, *flags]

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        def check(output):
            code, text = output
            if code != 0:
                return False, None
            if path not in self._loaded:
                self._loaded[path] = instance_io.load_instance_file(path)
            loaded = self._loaded[path]
            inst = loaded.mechanism_instance()
            doc = json.loads(text)
            outcome = Outcome(
                allocation=frozenset(doc["allocation"]),
                payments={e: parse_rational(p) for e, p in doc["payments"].items()},
                tau=doc["tau"],
                branch=doc["branch"],
                final_rate=None if doc["final_rate"] == "inf"
                else parse_rational(doc["final_rate"]),
                trace=(),
                budget=inst.budget,
            )
            ok = (not verify.check_outcome_invariants(inst, outcome, doc["mechanism"],
                                                      doc=loaded.raw)
                  and proportional_payments_hold(outcome, inst.weights)
                  and doc["total_payment"] == format_rational(outcome.total_payment))
            return ok, digest(text)

        return Op(os.path.basename(path) + "".join(" " + f for f in flags), run, check)

    def finish(self):
        return 0


class VerifySweep:
    """One op fully verifies one (instance, mechanism) pair, as ``verify`` does."""

    name = "verify-sweep"
    mechanisms = ("matroid", "intersection-exact", "intersection-greedy", "xos")

    def __init__(self, seed, toy=False):
        self.seed = seed
        # (n, instances per cycle): latency rises steeply with n, so with one
        # instance per size p50 and p90 would fall on the gaps between sizes;
        # two instances at n <= 7 put p50 inside n=6, whose ops take nearly
        # the same time for every mechanism, and p90 inside n=11
        self.sizes = ((3, 1), (4, 1), (5, 1)) if toy else tuple(
            (n, 2 if n <= 7 else 1) for n in range(3, 13))
        self.cycles = 1 if toy else 4
        self.deviations = 4 if toy else 50  # the truthfulness criterion's count
        self.xos_deviations = 3 if toy else 20  # check_xos_truthfulness's default

    def setup(self, workdir):
        ops = []
        for cycle in range(self.cycles):
            for mechanism in self.mechanisms:
                for n, copies in self.sizes:
                    for copy in range(copies):
                        index = cycle * 100 + copy * 50 + n
                        if mechanism == "xos":
                            ops.append(self._xos_op(n, index, cycle))
                        else:
                            ops.append(self._op(mechanism, n, index))
        return ops

    def _op(self, mechanism, n, index):
        config = verify.GeneratorConfig(1, self.seed, (n, n))
        if mechanism == "matroid":
            inst = verify.gen_matroid_instance(config, index)
        else:
            inst = verify.gen_bipartite_instance(config, index)
        truthfulness_seed = self.seed * 7919 + index

        def run():
            runner = verify.make_runner(mechanism, inst)
            outcome = runner(inst)
            failures = verify.check_outcome_invariants(inst, outcome, mechanism)
            reports = [
                verify.check_truthfulness(runner, inst, self.deviations,
                                          seed=truthfulness_seed, mechanism=mechanism),
                verify.check_ratio(runner, inst, verify.ratio_denominator(mechanism, inst),
                                   mechanism),
                verify.check_bid_independence(inst, outcome, mechanism),
            ]
            if mechanism == "matroid":
                reports.append(verify.check_lemma1(inst, outcome, mechanism))
            return outcome, failures, reports

        def check(output):
            outcome, failures, reports = output
            ok = not failures and all(r.passed for r in reports)
            summary = outcome_summary(outcome)
            summary["trace"] = [list(step.chosen) for step in outcome.trace]
            return ok, digest({"outcome": summary,
                               "reports": [r.to_json() for r in reports]})

        return Op(f"{mechanism} n={n} i={index}", run, check)

    def _xos_op(self, n, index, cycle):
        valuation, costs, budget = verify.gen_xos_instance(self.seed, index, n=n)
        seeds = continue_seeds(n)
        for _ in range(cycle):
            next(seeds)
        params = xos.XosParams(seed=next(seeds), **XOS_PARAMS)

        def run():
            return verify.check_xos_truthfulness(valuation, costs, budget, params,
                                                 self.xos_deviations, seed=index)

        def check(report):
            truthful = xos.xos_mechanism_main(valuation, costs, costs, budget, params)
            return report.passed, digest({"outcome": outcome_summary(truthful),
                                          "reports": [report.to_json()]})

        return Op(f"xos n={n} i={index} coin={params.seed}", run, check)

    def finish(self):
        return 0


class XosSampling:
    """One op is one seeded XOS run at truthful bids."""

    name = "xos-sampling"

    def __init__(self, seed, toy=False):
        self.seed = seed
        self.sizes = (6, 7) if toy else (12, 14)
        self.instances = 2 if toy else 12  # every (n, clause count) pair twice
        self.coin_seeds = range(16 if toy else 100)  # 42 of the first 100 take the max element
        self.values = {}

    def setup(self, workdir):
        self.pool = [
            verify.gen_xos_instance(self.seed, index, n=self.sizes[index % len(self.sizes)])
            for index in range(self.instances)
        ]
        return [self._op(index, coin) for index in range(self.instances)
                for coin in self.coin_seeds]

    def _op(self, index, coin):
        valuation, costs, budget = self.pool[index]
        params = xos.XosParams(seed=coin, **XOS_PARAMS)

        def run():
            return xos.xos_mechanism_main(valuation, costs, costs, budget, params)

        def check(outcome):
            ok = not verify.check_xos_outcome(valuation, costs, costs, budget, outcome,
                                              params)
            if outcome.branch == "max-element":
                ok = ok and outcome.payments == {e: budget for e in outcome.allocation}
            elif outcome.branch == "sub-mechanism":
                clause = valuation.functions[outcome.clause_index]
                ok = (ok and outcome.payments == outcome.inner.payments
                      and proportional_payments_hold(outcome.inner, clause))
            self.values[index, coin] = (valuation.value(outcome.allocation)
                                        if outcome.allocation else ZERO)
            summary = outcome_summary(outcome)
            summary["t2"] = sorted(outcome.t2)
            return ok, digest(summary)

        return Op(f"xos i={index} coin={coin}", run, check)

    def finish(self):
        """Expected value over the coin seeds must exceed OPT/436 per instance."""
        failed = 0
        for index, (valuation, costs, budget) in enumerate(self.pool):
            values = [self.values.get((index, coin)) for coin in self.coin_seeds]
            if None in values:
                failed += len(values)
                continue
            total = sum(values, ZERO)
            opt_value = xos_opt(valuation, costs, budget)[1]
            if total * XOS_RATIO <= opt_value * len(values):
                failed += len(values)
        return failed


WORKLOADS = {w.name: w for w in (RunLarge, VerifySweep, XosSampling)}
