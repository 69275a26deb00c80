"""Property-verification harness: mechanism guarantees as executable checks.

Every check compares a mechanism run against an independent brute-force
oracle or an exact inequality, on deterministic seeded instance streams.
Failures carry a replayable instance document so any violation can be
reproduced from the report file alone.

Truthfulness has one deviation sweep, ``_deviation_sweep``: both mechanism
families are deterministic single-parameter mechanisms (XOS on a fixed coin
tape), so each check supplies only its anchor bids and how to re-run.
"""

import math
import multiprocessing
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields

from .errors import InputError, SchemaError
from .instance_io import (
    instance_to_json,
    load_instance,
    parse_rational_field,
    xos_instance_to_json,
)
from .intersection import IntersectionSpec, PartitionMatroid, get_blackbox
from .matroids import (
    DeadlineMatroid,
    FreeMatroid,
    GraphicMatroid,
    UniformMatroid,
    max_weight_independent_set,
    set_weight,
)
from .mechanisms import (
    Instance,
    OneBidRunner,
    Plan,
    first_price_greedy,
    run_intersection_mechanism,
    run_matroid_mechanism,
)
from .oracle import brute_force_opt
from .rationals import ZERO, format_rational, mpq, scale_to_integers
from .xos import XosParams, XosPlan, XosValuation, xos_mechanism_main

EPSILON = mpq(1, 10**9)

# the properties checked for each mechanism (the threshold mechanisms by
# ``_verify_one``, XOS by ``check_xos_truthfulness`` and ``check_xos_outcome``),
# so the only (property, mechanism) pairs a failure record can name
CHECKED_PROPERTIES = {
    "matroid": ("Independence", "IR", "BudgetFeasible", "Truthful", "ApproxRatio",
                "Lemma1Bound", "BidIndependence"),
    "intersection-exact": ("Independence", "IR", "BudgetFeasible", "Truthful",
                           "ApproxRatio", "BidIndependence"),
    "intersection-greedy": ("Independence", "IR", "BudgetFeasible", "Truthful",
                            "ApproxRatio", "BidIndependence"),
    "broken-first-price": ("Independence", "IR", "BudgetFeasible", "Truthful"),
    "xos": ("Truthful", "IR", "BudgetFeasible"),
}

# the mechanisms ``make_runner`` builds
MECHANISM_NAMES = tuple(m for m in CHECKED_PROPERTIES if m != "xos")

# the blackbox (a ``get_blackbox`` name) each intersection mechanism runs
BLACKBOX_OF = {"intersection-exact": "exact-bipartite", "intersection-greedy": "greedy"}


# ---------------------------------------------------------------------------
# reports


@dataclass
class Failure:
    property: str
    mechanism: str
    instance: dict
    element: str = None
    deviation: str = None
    observed: str = ""
    required: str = ""

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, doc):
        """Inverse of ``to_json``; a missing optional key takes its default."""
        return cls(**{
            f.name: doc[f.name] if f.default is MISSING else doc.get(f.name, f.default)
            for f in fields(cls)
        })


@dataclass
class VerificationReport:
    property: str
    mechanism: str
    instances_checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures

    def merge(self, other):
        self.instances_checked += other.instances_checked
        self.failures.extend(other.failures)

    def to_json(self):
        return asdict(self)


# ---------------------------------------------------------------------------
# instance generation (pure functions of (seed, stream, index))


@dataclass(frozen=True)
class GeneratorConfig:
    count: int
    seed: int = 0
    n_range: tuple = (3, 12)
    kinds: tuple = ("uniform", "partition", "graphic", "deadline")
    weight_dist: str = "uniform"  # uniform | heavy
    budget_regime: str = "mixed"  # tight | loose | mixed


def _rng(seed, stream, index):
    return random.Random(f"{seed}:{stream}:{index}")


def _draw_weight(rng, dist):
    if dist == "heavy":
        return mpq(min(int(rng.paretovariate(1.1)), 60))
    return mpq(rng.randint(1, 20))


def _draw_budget(rng, regime, index, costs):
    total = sum(int(c) for c in costs.values())
    biggest = max(int(c) for c in costs.values())
    if regime == "mixed":
        regime = "tight" if index % 2 == 0 else "loose"
    if regime == "tight":
        return mpq(max(biggest, (total + 3) // 4))
    return mpq(total)


def _element_ids(n):
    return [f"e{j:02d}" for j in range(1, n + 1)]


def _make_matroid(rng, kind, ids):
    n = len(ids)
    if kind == "uniform":
        return UniformMatroid(ids, rng.randint(1, n))
    if kind == "free":
        return FreeMatroid(ids)
    if kind == "partition":
        pool = list(ids)
        rng.shuffle(pool)
        blocks = []
        while pool:
            size = min(len(pool), rng.randint(1, 3))
            members, pool = pool[:size], pool[size:]
            blocks.append((frozenset(members), rng.randint(1, size)))
        return PartitionMatroid(ids, blocks)
    if kind == "graphic":
        nv = max(2, math.ceil(0.7 * n))
        edges = []
        for e in ids:
            u = rng.randrange(nv)
            v = rng.randrange(nv - 1)
            if v >= u:
                v += 1
            edges.append((e, f"v{u}", f"v{v}"))
        return GraphicMatroid(edges)
    if kind == "deadline":
        return DeadlineMatroid(ids, {e: rng.randint(1, n) for e in ids})
    raise InputError(f"unknown matroid kind {kind!r}")


def gen_matroid_instance(config, index):
    """Deterministic matroid instance number ``index`` of the stream."""
    rng = _rng(config.seed, "matroid", index)
    n = rng.randint(*config.n_range)
    ids = _element_ids(n)
    kind = config.kinds[index % len(config.kinds)]
    matroid = _make_matroid(rng, kind, ids)
    weights = {e: _draw_weight(rng, config.weight_dist) for e in ids}
    costs = {e: mpq(rng.randint(1, 10)) for e in ids}
    budget = _draw_budget(rng, config.budget_regime, index, costs)
    return Instance(matroid, weights, costs, dict(costs), budget)


def gen_bipartite_instance(config, index):
    """Bipartite-matching instance: edges constrained by two capacity-1
    partition matroids (left endpoints, right endpoints)."""
    rng = _rng(config.seed, "bipartite", index)
    n = rng.randint(*config.n_range)
    ids = _element_ids(n)
    nl = max(1, round(math.sqrt(n)))
    nr = max(2, round(math.sqrt(n)) + 1)
    left, right = {}, {}
    for e in ids:
        left[e] = rng.randrange(nl)
        right[e] = rng.randrange(nr)
    by_left, by_right = {}, {}
    for e in ids:
        by_left.setdefault(left[e], set()).add(e)
        by_right.setdefault(right[e], set()).add(e)
    m_left = PartitionMatroid(ids, [(s, 1) for s in by_left.values()])
    m_right = PartitionMatroid(ids, [(s, 1) for s in by_right.values()])
    spec = IntersectionSpec([m_left, m_right])
    weights = {e: _draw_weight(rng, config.weight_dist) for e in ids}
    costs = {e: mpq(rng.randint(1, 10)) for e in ids}
    budget = _draw_budget(rng, config.budget_regime, index, costs)
    return Instance(spec, weights, costs, dict(costs), budget)


def gen_xos_instance(seed, index, n=10):
    """Deterministic XOS instance: 2 + index % 3 clauses with weights in
    10..20, costs in 1..10, budget 60.  Returns (valuation, costs, budget)."""
    rng = _rng(seed, "xos", index)
    ids = _element_ids(n)
    functions = [{e: mpq(rng.randint(10, 20)) for e in ids} for _ in range(2 + index % 3)]
    costs = {e: mpq(rng.randint(1, 10)) for e in ids}
    return XosValuation(ids, functions), costs, mpq(60)


# ---------------------------------------------------------------------------
# mechanism runners


def make_runner(name, inst):
    """Closure running mechanism ``name`` on variations of ``inst``.

    The closure may be called with bid-deviated copies of the same instance.
    A threshold mechanism's closure builds one bid-free ``Plan`` and hands
    it to both its full runs and its ``OneBidRunner``.  ``Plan.walk`` owns
    the unchosen-removal rule, and an intersection plan keeps each blackbox
    answer per exclusion set, so the runner asks its blackbox once per set;
    both are sound because they read the structure and the weights only.
    The runner's first call runs in full, a later call that moves no bid
    gets the first call's outcome, and one that moves one bid away from the
    first call's is answered from that element's two removal chains, with
    the outcome a full run gives.
    """
    if name == "matroid":
        plan = Plan(inst.structure, inst.weights)
        return OneBidRunner(lambda i: run_matroid_mechanism(i, plan), plan)
    if name in BLACKBOX_OF:
        blackbox = get_blackbox(BLACKBOX_OF[name], inst.structure)
        plan = Plan(inst.structure, inst.weights, blackbox)
        return OneBidRunner(lambda i: run_intersection_mechanism(i, blackbox, plan), plan)
    if name == "broken-first-price":
        return first_price_greedy
    raise InputError(f"unknown mechanism {name!r}")


def ratio_denominator(name, inst):
    """``3 * alpha + 1``; alpha is 1 for the matroid greedy."""
    if name == "matroid":
        return mpq(4)
    if name in BLACKBOX_OF:
        return 3 * get_blackbox(BLACKBOX_OF[name], inst.structure).alpha + 1
    raise InputError(f"no certified ratio for mechanism {name!r}")


# ---------------------------------------------------------------------------
# property checks


def _payment_failures(outcome, bids, budget, mechanism, doc):
    """IR against ``bids`` and exact budget feasibility of one outcome, which
    may be a threshold-mechanism Outcome or an XosOutcome."""
    failures = []
    if not set(outcome.payments) <= set(outcome.allocation):
        failures.append(
            Failure("IR", mechanism, doc, observed="payment to unallocated element",
                    required="p_e = 0 whenever f_e = 0")
        )
    for e in sorted(outcome.allocation):
        if outcome.payment(e) < bids[e]:
            failures.append(
                Failure("IR", mechanism, doc, element=e,
                        observed=format_rational(outcome.payment(e)),
                        required=f">= bid {format_rational(bids[e])}")
            )
    if outcome.total_payment > budget:
        failures.append(
            Failure("BudgetFeasible", mechanism, doc,
                    observed=format_rational(outcome.total_payment),
                    required=f"<= budget {format_rational(budget)}")
        )
    return failures


def check_outcome_invariants(inst, outcome, mechanism, doc=None):
    """Independence, IR and exact budget feasibility of one outcome."""
    doc = doc or instance_to_json(inst)
    failures = _payment_failures(outcome, inst.bids, inst.budget, mechanism, doc)
    if not inst.structure.is_independent(outcome.allocation):
        failures.append(
            Failure("Independence", mechanism, doc,
                    observed=f"allocation {sorted(outcome.allocation)} dependent",
                    required="allocated set independent in every matroid")
        )
    return failures


def _around(x):
    """``x`` and its neighbours EPSILON away: threshold mechanisms hide
    violations exactly at a breakpoint."""
    return (x - EPSILON, x, x + EPSILON)


def _probe_bids(anchors, budget, rng, min_count):
    """The anchors inside (0, budget], topped up with uniform draws
    ``budget * k / 10**6`` until there are ``min_count``, sorted (on the
    integers over their common denominator, which keep the order exactly)."""
    probes = {d for d in anchors if 0 < d <= budget}
    num, den = budget.numerator, budget.denominator * 10**6
    while len(probes) < min_count:
        probes.add(mpq(num * rng.randint(1, 10**6), den))
    probes = list(probes)
    _, scaled = scale_to_integers(probes)  # distinct, so no probe is compared
    return [d for _, d in sorted(zip(scaled, probes))]


def _deviation_sweep(report, doc, ground, costs, truthful, run, probes):
    """The one truthfulness sweep, for any deterministic single-parameter
    mechanism: no unilateral deviation may strictly raise a utility.

    ``truthful`` is the outcome at bids equal to ``costs``; ``run(e, d)`` is
    the outcome when ``e`` alone bids ``d``; ``probes(e)`` lists the bids
    tried for ``e``.  Elements go in ``ground`` order and each element's
    probes are drawn just before its runs, so the rng stream is fixed.
    """
    for e in ground:
        u_truth = truthful.utility(e, costs[e])
        for d in probes(e):
            if d == costs[e]:
                continue
            u_dev = run(e, d).utility(e, costs[e])
            if u_dev > u_truth:
                report.failures.append(
                    Failure("Truthful", report.mechanism, doc, element=e,
                            deviation=format_rational(d),
                            observed=format_rational(u_dev),
                            required=f"<= truthful utility {format_rational(u_truth)}")
                )
    return report


def truthful_deviation_bids(inst, e, truthful_outcome, rng, min_count):
    """Deviation bids for element ``e``: boundary probes plus uniform randoms.

    Boundary probes sit just above/below every other element's buck-per-bang
    breakpoint (scaled to e's weight) and at the truthful run's final rate
    times e's weight; threshold mechanisms hide violations exactly there.
    """
    w_e = inst.weights[e]
    anchors = [d for o in inst.structure.ground if o != e
               for d in _around(inst.buck_per_bang(o) * w_e)]
    if truthful_outcome is not None and truthful_outcome.final_rate is not None:
        anchors.extend(_around(truthful_outcome.final_rate * w_e))
    anchors.append(inst.budget)
    return _probe_bids(anchors, inst.budget, rng, min_count)


def check_truthfulness(runner, inst, deviations_per_element=50, seed=0,
                       mechanism="matroid"):
    """No unilateral bid deviation may strictly improve an element's utility.

    The instance is evaluated at truthful bids first; every deviation calls
    ``runner`` with one bid changed (``Instance.with_bid``) and compares
    exact utilities in ``_deviation_sweep``.  A ``make_runner`` runner
    answers those calls from each element's two removal chains, with the
    outcome a full run of the mechanism gives (``OneBidRunner``); any other
    runner, such as a control mechanism, runs in full every time.
    """
    report = VerificationReport("Truthful", mechanism, instances_checked=1)
    t_inst = inst.truthful()
    doc = instance_to_json(t_inst)
    truthful = runner(t_inst)
    rng = random.Random(f"dev:{seed}")
    return _deviation_sweep(
        report, doc, t_inst.structure.ground, t_inst.true_costs, truthful,
        lambda e, d: runner(t_inst.with_bid(e, d)),
        lambda e: truthful_deviation_bids(t_inst, e, truthful, rng, deviations_per_element),
    )


def check_ratio(runner, inst, denominator, mechanism="matroid"):
    """w(allocation) >= w(OPT) / denominator at truthful bids, OPT by oracle."""
    report = VerificationReport("ApproxRatio", mechanism, instances_checked=1)
    t_inst = inst.truthful()
    outcome = runner(t_inst)
    alloc_value = set_weight(t_inst.weights, outcome.allocation)
    opt = brute_force_opt(t_inst.structure, t_inst.weights, t_inst.true_costs,
                          t_inst.budget)
    opt_value = set_weight(t_inst.weights, opt)
    if alloc_value * denominator < opt_value:
        report.failures.append(
            Failure("ApproxRatio", mechanism, instance_to_json(t_inst),
                    observed=f"alloc {format_rational(alloc_value)} vs "
                             f"opt {format_rational(opt_value)}",
                    required=f"alloc >= opt / {format_rational(denominator)}")
        )
    return report


def check_lemma1(inst, outcome, mechanism="matroid"):
    """Trace-level bound: opt without tau <= 2 * final surviving max + w_tau."""
    report = VerificationReport("Lemma1Bound", mechanism, instances_checked=1)
    tau = outcome.tau
    final_value = outcome.trace[-1].value
    rest = inst.structure.delete({tau})
    if rest.ground:
        opt = brute_force_opt(rest, inst.weights, inst.bids, inst.budget)
        opt_value = set_weight(inst.weights, opt)
    else:
        opt_value = ZERO
    if opt_value > 2 * final_value + inst.weights[tau]:
        report.failures.append(
            Failure("Lemma1Bound", mechanism, instance_to_json(inst),
                    observed=format_rational(opt_value),
                    required=f"<= 2*{format_rational(final_value)} + w_tau")
        )
    return report


def check_bid_independence(inst, outcome, mechanism="matroid"):
    """Each trace step's candidate set must be recomputable from weights and
    the removal set alone (no bid can leak into the selection).

    Every step's set is recomputed from scratch on ``spec.delete(...)``, by
    a fresh blackbox that shares no answer with a ``Plan``, so for an
    intersection mechanism this is also a second route to the sets the
    mechanism kept without asking its blackbox.  Only the threshold
    mechanisms have such a trace; any other mechanism is an ``InputError``.
    """
    if mechanism == "matroid":
        select = max_weight_independent_set
    elif mechanism in BLACKBOX_OF:
        select = get_blackbox(BLACKBOX_OF[mechanism], inst.structure)
    else:
        raise InputError(f"no bid-independence check for mechanism {mechanism!r}")
    report = VerificationReport("BidIndependence", mechanism, instances_checked=1)
    removed = set()
    for step in outcome.trace:
        surviving = inst.structure.delete(removed | {outcome.tau})
        expected = tuple(sorted(select(surviving, inst.weights)))
        if expected != step.chosen:
            report.failures.append(
                Failure("BidIndependence", mechanism, instance_to_json(inst),
                        observed=f"iteration {step.iteration}: {list(step.chosen)}",
                        required=f"weight-only recomputation gives {list(expected)}")
            )
            break
        if step.removed is not None:
            removed.add(step.removed)
    return report


# ---------------------------------------------------------------------------
# XOS checks


def _xos_failure_doc(valuation, costs, bids, budget, params):
    doc = xos_instance_to_json(valuation, costs, bids, budget)
    doc["xos"]["run"] = {
        "seed": params.seed,
        "alpha": format_rational(params.alpha),
        "beta": format_rational(params.beta),
        "gamma": format_rational(params.gamma),
    }
    return doc


def check_xos_outcome(valuation, costs, bids, budget, outcome, params, mechanism="xos"):
    """Budget feasibility and IR (against bids) of one realized XOS run."""
    doc = _xos_failure_doc(valuation, costs, bids, budget, params)
    return _payment_failures(outcome, bids, budget, mechanism, doc)


def check_xos_truthfulness(valuation, costs, budget, params,
                           deviations_per_element=20, seed=0):
    """Fixed-seed truthfulness: re-runs the pipeline per deviation on one plan.

    On a fixed coin tape the mechanism is deterministic and single-parameter,
    so the sweep is ``_deviation_sweep``'s.  Every run shares one
    ``XosPlan``: the branch coin, the T1/T2 split, the max-element winner and
    v(S) on each half read the tape and the valuation only, never a bid.
    The plan reuses the last T1 optimum while the budget and the T1 bids
    are unchanged, and the last argmax while the threshold and the T2 bids
    are; a T2 deviation keeps the threshold, so its argmax is read off the
    per-element table that ``XosPlan.t2_breakpoints`` builds once per check
    at the truthful bids.  Each reuse gives exactly what a full replay
    would.  Probes include each element's argmax-membership breakpoint
    (from the same table), the inner proportional rate, and randoms.
    """
    report = VerificationReport("Truthful", "xos", instances_checked=1)
    doc = _xos_failure_doc(valuation, costs, costs, budget, params)
    plan = XosPlan(valuation, params)
    # passed positionally, so a wrapper on ``verify.xos_mechanism_main`` that
    # reads ``*args`` (a tracer, a recording test) still sees each whole call
    truthful = xos_mechanism_main(valuation, costs, costs, budget, params, plan)
    rng = random.Random(f"xosdev:{seed}:{params.seed}")
    breakpoints = {}
    if not plan.take_max_element:
        breakpoints = plan.t2_breakpoints(costs, truthful.threshold)

    def probes(e):
        anchors = [budget, costs[e] - EPSILON, costs[e] + EPSILON]
        if e in breakpoints:
            anchors.extend(_around(breakpoints[e]))
        if truthful.inner is not None and truthful.inner.final_rate is not None \
                and e in truthful.s_star:
            clause = valuation.functions[truthful.clause_index]
            anchors.append(truthful.inner.final_rate * clause[e])
        return _probe_bids(anchors, budget, rng, deviations_per_element)

    def run(e, d):
        # read as a module global at call time, so a wrapper installed on
        # ``verify.xos_mechanism_main`` sees every deviation
        return xos_mechanism_main(valuation, costs, {**costs, e: d}, budget, params, plan)

    return _deviation_sweep(report, doc, valuation.ground, costs, truthful, run, probes)


# ---------------------------------------------------------------------------
# sweep configs and the sweep driver (CLI `verify` and `bench`)

SWEEP_MECHANISMS = ("matroid", "intersection-exact", "intersection-greedy")
MATROID_KINDS = ("uniform", "partition", "graphic", "deadline", "free")

DEFAULT_VERIFY_CONFIG = {
    "seed": 0,
    "count": 40,
    "n_range": [3, 9],
    "kinds": ["uniform", "partition", "graphic", "deadline"],
    "weight_dist": "uniform",
    "budget_regime": "mixed",
    "deviations_per_element": 12,
    "mechanisms": ["matroid", "intersection-exact", "intersection-greedy"],
    "include_broken": False,
    "threads": 1,
}


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _nonempty_list_of(allowed):
    return lambda v: isinstance(v, (list, tuple)) and bool(v) and all(x in allowed for x in v)


# the one rule, and its message, for each key a sweep config may set
_SWEEP_RULES = {
    "seed": (_is_int, "must be an integer"),
    "count": (lambda v: _is_int(v) and v >= 0, "must be a nonnegative integer"),
    "n_range": (
        lambda v: isinstance(v, (list, tuple)) and len(v) == 2
        and all(_is_int(x) for x in v) and 1 <= v[0] <= v[1],
        "must be [lo, hi] with 1 <= lo <= hi",
    ),
    "kinds": (_nonempty_list_of(MATROID_KINDS),
              "must be a nonempty list drawn from " + ", ".join(MATROID_KINDS)),
    "weight_dist": (lambda v: v in ("uniform", "heavy"), "must be 'uniform' or 'heavy'"),
    "budget_regime": (lambda v: v in ("tight", "loose", "mixed"),
                      "must be tight, loose or mixed"),
    "mechanisms": (_nonempty_list_of(SWEEP_MECHANISMS),
                   "must be a nonempty list drawn from " + ", ".join(SWEEP_MECHANISMS)),
    "deviations_per_element": (lambda v: _is_int(v) and v >= 1, "must be a positive integer"),
    "include_broken": (lambda v: isinstance(v, bool), "must be a boolean"),
    "threads": (lambda v: _is_int(v) and v >= 1, "must be a positive integer"),
}


def load_sweep_config(doc, defaults, threads=None):
    """Validate a ``verify`` or ``bench`` config document.

    ``defaults`` names the keys the command accepts and their values when
    absent; any other key is rejected.  ``threads`` (the --threads flag)
    overrides the document.  Raises SchemaError naming the first bad key.
    """
    if not isinstance(doc, dict):
        raise SchemaError("config", "must be a JSON object")
    for key in doc:
        if key not in defaults:
            raise SchemaError(key, "unknown key")
    cfg = {**defaults, **doc}
    if threads is not None:
        cfg["threads"] = threads
    for key, value in cfg.items():
        check, message = _SWEEP_RULES[key]
        if not check(value):
            raise SchemaError(key, message)
    return cfg


def sweep_instance(cfg, mechanism, index):
    """Instance ``index`` of the stream a validated sweep config describes:
    matroid instances for the matroid mechanisms, bipartite ones otherwise."""
    gconf = GeneratorConfig(
        count=cfg["count"],
        seed=cfg["seed"],
        n_range=tuple(cfg["n_range"]),
        kinds=tuple(cfg["kinds"]),
        weight_dist=cfg["weight_dist"],
        budget_regime=cfg["budget_regime"],
    )
    if mechanism in ("matroid", "broken-first-price"):
        return gen_matroid_instance(gconf, index)
    return gen_bipartite_instance(gconf, index)


def _sweep_chunk(task):
    job, cfg, mechanism, indices = task
    return [job(cfg, mechanism, index) for index in indices]


def run_sweep(job, cfg, mechanisms):
    """Yield ``job(cfg, mechanism, index)`` for each mechanism, then each
    index below ``cfg["count"]``, in that order.

    With ``cfg["threads"] > 1`` the indices go to that many worker
    processes in chunks of about count / (4 * threads); ``job`` must then
    be a module-level function, since workers import it by name.
    """
    count, threads = cfg["count"], cfg["threads"]
    if threads == 1 or count < 2:
        for mechanism in mechanisms:
            for index in range(count):
                yield job(cfg, mechanism, index)
        return
    size = max(1, count // (threads * 4))
    tasks = [(job, cfg, mechanism, range(start, min(start + size, count)))
             for mechanism in mechanisms for start in range(0, count, size)]
    with ProcessPoolExecutor(max_workers=threads,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        for results in pool.map(_sweep_chunk, tasks):
            yield from results


def _verify_one(cfg, mechanism, index):
    """The reports of every property ``CHECKED_PROPERTIES`` names for one
    (mechanism, instance) pair."""
    inst = sweep_instance(cfg, mechanism, index)
    runner = make_runner(mechanism, inst)
    outcome = runner(inst)

    reports = {p: VerificationReport(p, mechanism, instances_checked=1)
               for p in ("Independence", "IR", "BudgetFeasible")}
    for f in check_outcome_invariants(inst, outcome, mechanism):
        reports[f.property].failures.append(f)
    checks = {
        "Truthful": lambda: check_truthfulness(
            runner, inst, cfg["deviations_per_element"],
            seed=cfg["seed"] * 7919 + index, mechanism=mechanism),
        "ApproxRatio": lambda: check_ratio(
            runner, inst, ratio_denominator(mechanism, inst), mechanism),
        "BidIndependence": lambda: check_bid_independence(inst, outcome, mechanism),
        "Lemma1Bound": lambda: check_lemma1(inst, outcome, mechanism),
    }
    return [reports[p] if p in reports else checks[p]()
            for p in CHECKED_PROPERTIES[mechanism]]


def run_verification(config_doc):
    """Run the configured suites; returns (reports, total_failures)."""
    cfg = load_sweep_config(config_doc, DEFAULT_VERIFY_CONFIG)
    mechanisms = list(cfg["mechanisms"])
    if cfg["include_broken"]:
        mechanisms.append("broken-first-price")

    merged = {}
    for reports in run_sweep(_verify_one, cfg, mechanisms):
        for r in reports:
            key = (r.property, r.mechanism)
            merged.setdefault(key, VerificationReport(*key)).merge(r)

    reports = [merged[k] for k in sorted(merged)]
    total_failures = sum(len(r.failures) for r in reports)
    return reports, total_failures


# ---------------------------------------------------------------------------
# replay


def report_failures(doc):
    """Failure records of a parsed ``report.json``, checked for shape only;
    ``replay_failure`` validates each record."""
    if not isinstance(doc, dict):
        raise SchemaError("report", "must be a JSON object")
    if not isinstance(doc.get("reports", []), list):
        raise SchemaError("reports", "must be a list of report objects")
    records = []
    for idx, report in enumerate(doc.get("reports", [])):
        if not isinstance(report, dict) or not isinstance(report.get("failures", []), list):
            raise SchemaError(f"reports[{idx}]", "must be an object with a 'failures' list")
        records.extend(report.get("failures", []))
    return records


def _load_record(doc):
    """Validated failure record: (Failure, loaded instance, parsed deviation
    or None, XosParams or None)."""
    if not isinstance(doc, dict):
        raise SchemaError("failure", "must be a JSON object")
    for key in ("property", "mechanism", "instance"):
        if key not in doc:
            raise SchemaError(key, "missing")
    record = Failure.from_json(doc)
    if not isinstance(record.mechanism, str) or record.mechanism not in CHECKED_PROPERTIES:
        raise SchemaError("mechanism", "must be one of " + ", ".join(CHECKED_PROPERTIES))
    checked = CHECKED_PROPERTIES[record.mechanism]
    if record.property not in checked:
        raise SchemaError("property", f"must be one of {', '.join(checked)} "
                                      f"for mechanism {record.mechanism}")
    loaded = load_instance(record.instance)
    if record.element is not None and record.element not in loaded.elements:
        raise SchemaError("element", "must be null or an element id of the instance")
    deviation = record.deviation
    if deviation is not None:
        deviation = parse_rational_field(deviation, "deviation")
    if record.property == "Truthful" and (record.element is None or deviation is None):
        raise SchemaError("element" if record.element is None else "deviation",
                          "missing (required to replay a Truthful failure)")
    if record.mechanism != "xos":
        return record, loaded, deviation, None
    if loaded.xos is None:
        raise SchemaError("instance.xos", "missing (required to replay an XOS failure)")
    run = record.instance["xos"].get("run")
    if not isinstance(run, dict):
        raise SchemaError("instance.xos.run", "must be an object with seed, alpha, beta, gamma")
    if not _is_int(run.get("seed")):
        raise SchemaError("instance.xos.run.seed", "must be an integer")
    params = XosParams(
        **{k: parse_rational_field(run.get(k), f"instance.xos.run.{k}")
           for k in ("alpha", "beta", "gamma")},
        seed=run["seed"],
    )
    return record, loaded, deviation, params


def replay_failure(doc):
    """Re-derive a reported failure from its serialized instance.

    Returns True when the recorded violation reproduces exactly.  Raises
    SchemaError on a malformed record.
    """
    record, loaded, d, params = _load_record(doc)
    mechanism, prop, e = record.mechanism, record.property, record.element

    if mechanism == "xos":
        return _replay_xos(prop, loaded, e, d, params)

    inst = loaded.mechanism_instance()
    runner = make_runner(mechanism, inst)
    if prop == "Truthful":
        # the deviation goes to a runner of its own, whose first call is a
        # full run: a replay never reads the one-bid chains it would check
        t_inst = inst.truthful()
        truthful = runner(t_inst)
        deviated = make_runner(mechanism, inst)(t_inst.with_bid(e, d))
        cost = t_inst.true_costs[e]
        return deviated.utility(e, cost) > truthful.utility(e, cost)
    if prop in ("Independence", "IR", "BudgetFeasible"):
        outcome = runner(inst)
        failures = check_outcome_invariants(inst, outcome, mechanism)
        return any(f.property == prop for f in failures)
    if prop == "ApproxRatio":
        return not check_ratio(runner, inst, ratio_denominator(mechanism, inst),
                               mechanism).passed
    if prop == "Lemma1Bound":
        return not check_lemma1(inst, runner(inst), mechanism).passed
    return not check_bid_independence(inst, runner(inst), mechanism).passed


def _replay_xos(prop, loaded, e, d, params):
    valuation, costs, bids, budget = loaded.xos, loaded.costs, loaded.bids, loaded.budget
    if prop == "Truthful":
        plan = XosPlan(valuation, params)
        truthful = xos_mechanism_main(valuation, costs, costs, budget, params, plan)
        deviated = xos_mechanism_main(valuation, costs, {**costs, e: d}, budget, params, plan)
        return deviated.utility(e, costs[e]) > truthful.utility(e, costs[e])
    outcome = xos_mechanism_main(valuation, costs, bids, budget, params)
    failures = check_xos_outcome(valuation, costs, bids, budget, outcome, params)
    return any(f.property == prop for f in failures)
