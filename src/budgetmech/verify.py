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
from .rationals import format_rational, is_int, mpq
from .xos import XosParams, XosPlan, XosValuation, xos_mechanism_main

EPSILON = mpq(1, 10**9)

# the properties checked for each mechanism, by ``_threshold_reports`` or by
# ``check_xos_truthfulness`` and ``check_xos_outcome``, so the only
# (property, mechanism) pairs a failure record can name
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


def _draw_budget(regime, index, costs):
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


def _make_bipartite(rng, ids):
    """Two capacity-1 partition matroids: each element is an edge from one
    of about sqrt(n) left vertices to one of one more right vertices."""
    nl = max(1, round(math.sqrt(len(ids))))
    ends = [(rng.randrange(nl), rng.randrange(nl + 1)) for _ in ids]
    sides = []
    for side in (0, 1):
        blocks = {}
        for e, end in zip(ids, ends):
            blocks.setdefault(end[side], set()).add(e)
        sides.append(PartitionMatroid(ids, [(s, 1) for s in blocks.values()]))
    return IntersectionSpec(sides)


def _gen_instance(config, stream, index, make_structure):
    """Instance number ``index`` of ``stream``: its size, its structure from
    ``make_structure(rng, ids)``, then weights, costs and budget, drawn in
    that order from one rng."""
    rng = _rng(config.seed, stream, index)
    ids = _element_ids(rng.randint(*config.n_range))
    structure = make_structure(rng, ids)
    weights = {e: _draw_weight(rng, config.weight_dist) for e in ids}
    costs = {e: mpq(rng.randint(1, 10)) for e in ids}
    budget = _draw_budget(config.budget_regime, index, costs)
    return Instance(structure, weights, costs, dict(costs), budget)


def gen_matroid_instance(config, index):
    """Deterministic matroid instance number ``index`` of the stream."""
    kind = config.kinds[index % len(config.kinds)]
    return _gen_instance(config, "matroid", index,
                         lambda rng, ids: _make_matroid(rng, kind, ids))


def gen_bipartite_instance(config, index):
    """Bipartite-matching instance: edges constrained by two capacity-1
    partition matroids (left endpoints, right endpoints)."""
    return _gen_instance(config, "bipartite", index, _make_bipartite)


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
    The runner's first call runs in full and is its base for life
    (``mechanisms.OneBid``): a later call at that budget that moves no bid
    other than tau's gets the base outcome, and one that moves one such
    bid is answered from that element's two removal chains, with the
    outcome a full run gives.  Any other call runs in full, so a caller
    holds one budget per runner.
    """
    if name == "broken-first-price":
        return first_price_greedy
    blackbox = threshold_blackbox(name, inst.structure, "unknown mechanism")
    plan = Plan(inst.structure, inst.weights, blackbox)
    if blackbox is None:
        return OneBidRunner(plan, lambda i: run_matroid_mechanism(i, plan))
    return OneBidRunner(plan, lambda i: run_intersection_mechanism(i, blackbox, plan))


def threshold_blackbox(name, structure, unknown):
    """The blackbox the threshold mechanism ``name`` runs on ``structure``,
    None for ``matroid`` (its greedy is the alpha = 1 blackbox); any other
    name raises InputError ``unknown`` followed by the name."""
    if name == "matroid":
        return None
    if name not in BLACKBOX_OF:
        raise InputError(f"{unknown} {name!r}")
    return get_blackbox(BLACKBOX_OF[name], structure)


def ratio_denominator(name, inst):
    """``3 * alpha + 1``; alpha is 1 for the matroid greedy."""
    blackbox = threshold_blackbox(name, inst.structure, "no certified ratio for mechanism")
    return 3 * (mpq(1) if blackbox is None else blackbox.alpha) + 1


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


# the top-up draws lie on the grid budget * k / PROBE_GRID, k = 1..PROBE_GRID
PROBE_GRID = 10**6


def _probe_fractions(exact, around, budget, rng, min_count):
    """The probe bids: the integer fractions ``(p, q)`` of ``exact`` and of
    ``around``, each ``around`` anchor with its neighbours EPSILON away
    (threshold mechanisms hide violations exactly at a breakpoint), kept
    inside (0, ``budget``], deduplicated, topped up with uniform grid draws
    ``budget * k / PROBE_GRID`` until there are ``min_count``, and sorted.

    Every anchor goes over one denominator with the budget, a multiple of
    the budget's denominator times ``PROBE_GRID``, so the filter, the
    deduplication, the draws and the sort compare integers, and only the
    probes returned become rationals.  Raises InputError, before any draw,
    when fewer than ``min_count`` distinct values are reachable."""
    den = math.lcm(budget.denominator * PROBE_GRID, EPSILON.denominator,
                   *(q for _, q in exact), *(q for _, q in around))
    top = budget.numerator * (den // budget.denominator)
    eps = EPSILON.numerator * (den // EPSILON.denominator)
    anchors = [p * (den // q) for p, q in exact]
    for p, q in around:
        x = p * (den // q)
        anchors += (x - eps, x, x + eps)
    probes = {a for a in anchors if 0 < a <= top}
    step = top // PROBE_GRID
    # the grid alone holds PROBE_GRID values, so only a larger ask can run out
    if min_count > PROBE_GRID:
        reachable = len(probes) + PROBE_GRID - sum(1 for a in probes if a % step == 0)
        if min_count > reachable:
            raise InputError(f"cannot draw {min_count} distinct deviation bids: "
                             f"only {reachable} are reachable in (0, budget]")
    while len(probes) < min_count:
        probes.add(step * rng.randint(1, PROBE_GRID))
    return [mpq(a, den) for a in sorted(probes)]


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
    Each rate ``bid / weight`` times ``w_e`` is the integer fraction
    ``(bid.num * weight.den * w_e.num, bid.den * weight.num * w_e.den)``,
    so no anchor is a rational (``_probe_fractions``).
    """
    w_num, w_den = inst.weights[e].numerator, inst.weights[e].denominator
    around = [(inst.bids[o].numerator * inst.weights[o].denominator * w_num,
               inst.bids[o].denominator * inst.weights[o].numerator * w_den)
              for o in inst.structure.ground if o != e]
    if truthful_outcome is not None and truthful_outcome.final_rate is not None:
        rate = truthful_outcome.final_rate
        around.append((rate.numerator * w_num, rate.denominator * w_den))
    budget = inst.budget
    return _probe_fractions([(budget.numerator, budget.denominator)], around, budget,
                            rng, min_count)


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
    opt = brute_force_opt(inst.structure.delete({tau}), inst.weights, inst.bids, inst.budget)
    opt_value = set_weight(inst.weights, opt)
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
    blackbox = threshold_blackbox(mechanism, inst.structure,
                                  "no bid-independence check for mechanism")
    select = max_weight_independent_set if blackbox is None else blackbox
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


def check_xos_outcome(valuation, costs, bids, budget, outcome, params):
    """Budget feasibility and IR (against bids) of one realized XOS run."""
    doc = _xos_failure_doc(valuation, costs, bids, budget, params)
    return _payment_failures(outcome, bids, budget, "xos", doc)


def _xos_runs(valuation, costs, budget, params):
    """The runs of an XOS truthfulness sweep: a fresh ``XosPlan``, the
    truthful run on it, and ``run(e, d)``, the run on it where ``e`` alone
    bids ``d``."""
    plan = XosPlan(valuation, params)
    # passed positionally and read as a module global at call time, so a
    # wrapper on ``verify.xos_mechanism_main`` that reads ``*args`` (a tracer,
    # a recording test) sees every whole call, each deviation's too
    truthful = xos_mechanism_main(valuation, costs, costs, budget, params, plan)
    return plan, truthful, lambda e, d: xos_mechanism_main(
        valuation, costs, {**costs, e: d}, budget, params, plan)


def check_xos_truthfulness(valuation, costs, budget, params,
                           deviations_per_element=20, seed=0):
    """Fixed-seed truthfulness: re-runs the pipeline per deviation on one plan.

    On a fixed coin tape the mechanism is deterministic and single-parameter,
    so the sweep is ``_deviation_sweep``'s.  Every run shares one
    ``XosPlan``: the branch coin, the T1/T2 split, the max-element winner and
    v(S) on each half read the tape and the valuation only, never a bid.
    The truthful run is the base of the ``mechanisms.OneBid`` of each half
    of the plan, so a T1 deviation's T1 optimum and a T2 deviation's argmax,
    which keeps the threshold, are read off one-bid tables the plan builds
    at most once per check (``XosPlan.t1_optimum``, ``XosPlan.t2_argmax``).
    Per chosen set, the plan keeps the best clause and one inner runner's
    ``OneBid`` (``XosPlan.chosen``): a deviation that moves no bid of the
    set gets the outcome of the set's first run, and one that moves one bid
    of it an answer from that bid's removal chains.  Each reuse gives
    exactly what a full replay would.  Probes include each element's argmax-membership
    breakpoint (``XosPlan.t2_breakpoints``), the inner proportional rate,
    and randoms.
    """
    report = VerificationReport("Truthful", "xos", instances_checked=1)
    doc = _xos_failure_doc(valuation, costs, costs, budget, params)
    plan, truthful, run = _xos_runs(valuation, costs, budget, params)
    rng = random.Random(f"xosdev:{seed}:{params.seed}")
    breakpoints = plan.t2_breakpoints()

    def probes(e):
        exact = [budget, costs[e] - EPSILON, costs[e] + EPSILON]
        if truthful.inner is not None and truthful.inner.final_rate is not None \
                and e in truthful.s_star:
            clause = valuation.functions[truthful.clause_index]
            exact.append(truthful.inner.final_rate * clause[e])
        around = [breakpoints[e]] if e in breakpoints else []
        return _probe_fractions([(x.numerator, x.denominator) for x in exact],
                                [(x.numerator, x.denominator) for x in around],
                                budget, rng, deviations_per_element)

    return _deviation_sweep(report, doc, valuation.ground, costs, truthful, run, probes)


# ---------------------------------------------------------------------------
# sweep configs and the sweep driver (CLI `verify` and `bench`)

SWEEP_MECHANISMS = ("matroid", *BLACKBOX_OF)
MATROID_KINDS = ("uniform", "partition", "graphic", "deadline", "free")

DEFAULT_VERIFY_CONFIG = {
    "seed": 0,
    "count": 40,
    "n_range": [3, 9],
    "kinds": ["uniform", "partition", "graphic", "deadline"],
    "weight_dist": "uniform",
    "budget_regime": "mixed",
    "deviations_per_element": 12,
    "mechanisms": list(SWEEP_MECHANISMS),
    "include_broken": False,
    "threads": 1,
}


def _nonempty_list_of(allowed):
    return lambda v: isinstance(v, (list, tuple)) and bool(v) and all(x in allowed for x in v)


# the most worker processes a sweep may start (``run_sweep`` submits every
# chunk at once, so each worker is a live interpreter)
MAX_THREADS = 64

# the one rule, and its message, for each key a sweep config may set
_SWEEP_RULES = {
    "seed": (is_int, "must be an integer"),
    "count": (lambda v: is_int(v) and v >= 0, "must be a nonnegative integer"),
    "n_range": (
        lambda v: isinstance(v, (list, tuple)) and len(v) == 2
        and all(is_int(x) for x in v) and 1 <= v[0] <= v[1],
        "must be [lo, hi] with 1 <= lo <= hi",
    ),
    "kinds": (_nonempty_list_of(MATROID_KINDS),
              "must be a nonempty list drawn from " + ", ".join(MATROID_KINDS)),
    "weight_dist": (lambda v: v in ("uniform", "heavy"), "must be 'uniform' or 'heavy'"),
    "budget_regime": (lambda v: v in ("tight", "loose", "mixed"),
                      "must be tight, loose or mixed"),
    "mechanisms": (_nonempty_list_of(SWEEP_MECHANISMS),
                   "must be a nonempty list drawn from " + ", ".join(SWEEP_MECHANISMS)),
    "deviations_per_element": (lambda v: is_int(v) and 1 <= v <= PROBE_GRID,
                               f"must be an integer from 1 to {PROBE_GRID}"),
    "include_broken": (lambda v: isinstance(v, bool), "must be a boolean"),
    "threads": (lambda v: is_int(v) and 1 <= v <= MAX_THREADS,
                f"must be an integer from 1 to {MAX_THREADS}"),
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
    bipartite instances for the intersection mechanisms, matroid ones otherwise."""
    gconf = GeneratorConfig(**{f.name: tuple(v) if isinstance(v := cfg[f.name], list) else v
                               for f in fields(GeneratorConfig)})
    gen = gen_bipartite_instance if mechanism in BLACKBOX_OF else gen_matroid_instance
    return gen(gconf, index)


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


def _threshold_reports(mechanism, inst, props, truthful):
    """The reports of the properties ``props`` for the threshold mechanism
    (or control) ``mechanism`` on ``inst``, in that order: the one property
    dispatch of ``verify`` and ``replay``.  Every check shares one
    ``make_runner`` runner, whose first call is ``inst``; the Truthful
    report is ``truthful(runner)``."""
    runner = make_runner(mechanism, inst)
    outcome = runner(inst)

    reports = {p: VerificationReport(p, mechanism, instances_checked=1)
               for p in ("Independence", "IR", "BudgetFeasible")}
    for f in check_outcome_invariants(inst, outcome, mechanism):
        reports[f.property].failures.append(f)
    checks = {
        "Truthful": lambda: truthful(runner),
        "ApproxRatio": lambda: check_ratio(
            runner, inst, ratio_denominator(mechanism, inst), mechanism),
        "BidIndependence": lambda: check_bid_independence(inst, outcome, mechanism),
        "Lemma1Bound": lambda: check_lemma1(inst, outcome, mechanism),
    }
    return [reports[p] if p in reports else checks[p]() for p in props]


def _verify_one(cfg, mechanism, index):
    """The reports of every property ``CHECKED_PROPERTIES`` names for one
    (mechanism, instance) pair."""
    inst = sweep_instance(cfg, mechanism, index)
    return _threshold_reports(mechanism, inst, CHECKED_PROPERTIES[mechanism], lambda runner: (
        check_truthfulness(runner, inst, cfg["deviations_per_element"],
                           seed=cfg["seed"] * 7919 + index, mechanism=mechanism)))


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
    if "reports" not in doc:
        raise SchemaError("reports", "missing")
    if not isinstance(doc["reports"], list):
        raise SchemaError("reports", "must be a list of report objects")
    records = []
    for idx, report in enumerate(doc["reports"]):
        if not isinstance(report, dict) or not isinstance(report.get("failures"), list):
            raise SchemaError(f"reports[{idx}]", "must be an object with a 'failures' list")
        records.extend(report["failures"])
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
    if not is_int(run.get("seed")):
        raise SchemaError("instance.xos.run.seed", "must be an integer")
    params = XosParams(
        **{k: parse_rational_field(run.get(k), f"instance.xos.run.{k}")
           for k in ("alpha", "beta", "gamma")},
        seed=run["seed"],
    )
    return record, loaded, deviation, params


def replay_failure(doc):
    """Re-derive a reported failure from its serialized instance with the
    check that ``verify`` ran (``_threshold_reports``, ``check_xos_outcome``,
    and for a Truthful record ``_deviation_sweep`` over the record's one
    element and one deviation).  Returns True when the recorded violation
    reproduces exactly.  Raises SchemaError on a malformed record.
    """
    record, loaded, d, params = _load_record(doc)
    mechanism, prop, costs = record.mechanism, record.property, loaded.costs

    def deviation(truthful, run):
        report = VerificationReport(prop, mechanism)
        return _deviation_sweep(report, record.instance, [record.element], costs,
                                truthful, run, lambda e: [d])

    if mechanism == "xos":
        valuation, bids, budget = loaded.xos, loaded.bids, loaded.budget
        if prop == "Truthful":
            return not deviation(*_xos_runs(valuation, costs, budget, params)[1:]).passed
        outcome = xos_mechanism_main(valuation, costs, bids, budget, params)
        failures = check_xos_outcome(valuation, costs, bids, budget, outcome, params)
        return any(f.property == prop for f in failures)

    inst = loaded.mechanism_instance()
    t_inst = inst.truthful()
    # each deviation goes to a runner of its own, whose first call is a full
    # run: a replay never reads the one-bid chains it would check
    [report] = _threshold_reports(mechanism, inst, [prop], lambda runner: deviation(
        runner(t_inst), lambda e, d: make_runner(mechanism, inst)(t_inst.with_bid(e, d))))
    return not report.passed
