"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion prints a PASS/FAIL line (collected into the terminal summary
by conftest).  Instance pools are seeded and deterministic; every check runs
against the brute-force oracle or an exact inequality.
"""

import random
import time

import pytest

from conftest import record_criterion

from budgetmech import (
    Instance,
    UniformMatroid,
    first_price_greedy,
    get_blackbox,
    run_intersection_mechanism,
    run_matroid_mechanism,
    set_weight,
)
from budgetmech.oracle import brute_force_opt, xos_opt
from budgetmech.rationals import ZERO, mpq
from budgetmech.verify import (
    GeneratorConfig,
    check_lemma1,
    check_outcome_invariants,
    check_ratio,
    check_truthfulness,
    check_xos_outcome,
    check_xos_truthfulness,
    gen_bipartite_instance,
    gen_matroid_instance,
    gen_xos_instance,
    make_runner,
)
from budgetmech.xos import XosParams, optimize_constant, xos_mechanism_main, xos_objective

MECH1_POOL_SIZE = 1000
MECH2_POOL_SIZE = 500
XOS_INSTANCES = 50
XOS_SEEDS = 200
XOS_PARAMS = dict(alpha=218, beta=mpq(9, 2), gamma=4)


@pytest.fixture(scope="session")
def mech1_pool():
    cfg = GeneratorConfig(count=MECH1_POOL_SIZE, seed=101, n_range=(3, 12))
    return [gen_matroid_instance(cfg, i) for i in range(MECH1_POOL_SIZE)]


@pytest.fixture(scope="session")
def mech1_runs(mech1_pool):
    runs = []
    for inst in mech1_pool:
        runner = make_runner("matroid", inst)
        runs.append((inst, runner, runner(inst)))
    return runs


@pytest.fixture(scope="session")
def mech2_pool():
    cfg = GeneratorConfig(count=MECH2_POOL_SIZE, seed=202, n_range=(3, 12))
    return [gen_bipartite_instance(cfg, i) for i in range(MECH2_POOL_SIZE)]


@pytest.fixture(scope="session")
def xos_pool():
    return [gen_xos_instance(404, i) for i in range(XOS_INSTANCES)]


@pytest.fixture(scope="module")
def xos_runs(xos_pool):
    """``(opt_value, outcomes)`` for each pool instance: its OPT value and
    its truthful run at each seed below ``XOS_SEEDS``.  Both XOS suite
    criteria read them, so each run is made once."""
    runs = []
    for valuation, costs, budget in xos_pool:
        outcomes = [xos_mechanism_main(valuation, costs, costs, budget,
                                       XosParams(seed=seed, **XOS_PARAMS))
                    for seed in range(XOS_SEEDS)]
        runs.append((xos_opt(valuation, costs, budget)[1], outcomes))
    return runs


def test_criterion_mech1_soundness(mech1_runs):
    """1000+ seeded instances: independence, IR, budget, 4-competitiveness."""
    started = time.monotonic()
    bad = []
    for inst, runner, outcome in mech1_runs:
        if check_outcome_invariants(inst, outcome, "matroid"):
            bad.append(("invariants", inst))
        if not check_ratio(runner, inst, 4, "matroid").passed:
            bad.append(("ratio", inst))
    elapsed = time.monotonic() - started
    ok = not bad and elapsed < 120
    record_criterion(
        "mech1-soundness",
        ok,
        f"{len(mech1_runs)} instances, 0 violations, {elapsed:.1f}s" if ok
        else f"{len(bad)} violations or {elapsed:.1f}s over budget",
    )
    assert not bad
    assert elapsed < 120


def test_criterion_truthfulness(mech1_pool, mech2_pool):
    """>= 50 deviations/element, zero improvements; broken control trips."""
    violations = 0
    for index, inst in enumerate(mech1_pool):
        runner = make_runner("matroid", inst)
        report = check_truthfulness(runner, inst, 50, seed=index, mechanism="matroid")
        violations += len(report.failures)
    for index, inst in enumerate(mech2_pool):
        for name in ("intersection-exact", "intersection-greedy"):
            runner = make_runner(name, inst)
            report = check_truthfulness(runner, inst, 50, seed=index, mechanism=name)
            violations += len(report.failures)

    control_hits = 0
    for index, inst in enumerate(mech1_pool[:50]):
        report = check_truthfulness(first_price_greedy, inst, 50, seed=index,
                                    mechanism="broken-first-price")
        control_hits += len(report.failures)

    ok = violations == 0 and control_hits >= 1
    record_criterion(
        "truthfulness",
        ok,
        f"0 improvements over {len(mech1_pool)}+{2 * len(mech2_pool)} runs; "
        f"control mechanism caught {control_hits} times",
    )
    assert violations == 0
    assert control_hits >= 1


def test_criterion_mech2_ratio(mech2_pool):
    """Exact blackbox within 4 = 3*1+1; greedy (k=2) within 7 = 3*2+1."""
    bad = 0
    for inst in mech2_pool:
        if not check_ratio(make_runner("intersection-exact", inst), inst, 4,
                           "intersection-exact").passed:
            bad += 1
        if not check_ratio(make_runner("intersection-greedy", inst), inst, 7,
                           "intersection-greedy").passed:
            bad += 1
    record_criterion("mech2-ratio", bad == 0,
                     f"{len(mech2_pool)} instances x 2 blackboxes, {bad} violations")
    assert bad == 0


def test_criterion_lemma1(mech1_runs):
    """Removal-loop bound holds on every trace, incl. >= 100 with removals."""
    bad = 0
    for inst, _, outcome in mech1_runs:
        if not check_lemma1(inst, outcome, "matroid").passed:
            bad += 1

    with_removals = 0
    cfg = GeneratorConfig(count=4000, seed=303, n_range=(3, 12),
                          budget_regime="tight")
    index = 0
    while with_removals < 100 and index < 4000:
        inst = gen_matroid_instance(cfg, index)
        outcome = run_matroid_mechanism(inst)
        removed = [s for s in outcome.trace if s.removed is not None]
        if removed:
            with_removals += 1
            if not check_lemma1(inst, outcome, "matroid").passed:
                bad += 1
        index += 1

    ok = bad == 0 and with_removals >= 100
    record_criterion(
        "lemma1-bound", ok,
        f"{len(mech1_runs)} pool traces + {with_removals} removal traces, {bad} violations",
    )
    assert bad == 0
    assert with_removals >= 100


def test_criterion_xos_constant():
    """gamma=3 reproduces the reported constant; optimum matches a dense grid."""
    alpha, beta, ratio = optimize_constant(3)
    in_windows = (
        mpq(430) <= ratio <= mpq(4365, 10)
        and mpq(210) <= alpha <= mpq(226)
        and mpq(43, 10) <= beta <= mpq(47, 10)
    )

    grid_ok = True
    for gamma in (3, 4):
        a_opt, b_opt, _ = optimize_constant(gamma)
        returned = xos_objective(a_opt, b_opt, gamma)
        grid_best = ZERO
        for ai in range(300, 801):  # alpha in [150, 400] step 1/2
            a = mpq(ai, 2)
            for bi in range(350, 751):  # beta in [3.5, 7.5] step 1/100
                b = mpq(bi, 100)
                v = xos_objective(a, b, gamma)
                if v > grid_best:
                    grid_best = v
        if returned < grid_best * (1 - mpq(1, 10**6)):
            grid_ok = False

    ok = in_windows and grid_ok
    record_criterion(
        "xos-constant", ok,
        f"gamma=3: alpha={float(alpha):.3f}, beta={float(beta):.4f}, "
        f"ratio={float(ratio):.2f}; dense-grid match: {grid_ok}",
    )
    assert in_windows
    assert grid_ok


def _xos_coin_tape(seed, n):
    rng = random.Random(seed)
    coin1 = rng.getrandbits(1)
    bits = [rng.getrandbits(1) for _ in range(n)]
    return coin1, bits


def _truthfulness_seeds(n):
    """First max-element-branch seed plus the first two continue-branch seeds
    with a nondegenerate split (chosen from the tape, not from outcomes)."""
    max_branch = next(s for s in range(XOS_SEEDS) if _xos_coin_tape(s, n)[0] == 1)
    continues = [
        s for s in range(XOS_SEEDS)
        if _xos_coin_tape(s, n)[0] == 0 and len(set(_xos_coin_tape(s, n)[1])) == 2
    ]
    return [max_branch] + continues[:2]


def test_criterion_xos_suite_budget_ir_truthfulness_expectation(xos_pool, xos_runs):
    """Every run budget feasible + IR; fixed-seed deviations find nothing;
    per-instance expected value exceeds OPT/436."""
    invariant_failures = 0
    truthful_failures = 0
    expectation_failures = 0
    for index, ((valuation, costs, budget), (opt_value, outcomes)) in enumerate(
            zip(xos_pool, xos_runs)):
        total_value = ZERO
        for seed, out in enumerate(outcomes):
            params = XosParams(seed=seed, **XOS_PARAMS)
            invariant_failures += len(
                check_xos_outcome(valuation, costs, costs, budget, out, params)
            )
            total_value += valuation.value(out.allocation) if out.allocation else ZERO
        expected = total_value / XOS_SEEDS
        if expected * 436 <= opt_value:
            expectation_failures += 1
        for seed in _truthfulness_seeds(len(valuation.ground)):
            params = XosParams(seed=seed, **XOS_PARAMS)
            report = check_xos_truthfulness(valuation, costs, budget, params,
                                            deviations_per_element=50, seed=index)
            truthful_failures += len(report.failures)

    ok = not (invariant_failures or truthful_failures or expectation_failures)
    record_criterion(
        "xos-suite-budget-ir-truthfulness-expectation", ok,
        f"{XOS_INSTANCES} instances x {XOS_SEEDS} seeds; "
        f"invariant={invariant_failures} truthful={truthful_failures} "
        f"expected-ratio={expectation_failures} failures",
    )
    assert invariant_failures == 0
    assert truthful_failures == 0
    assert expectation_failures == 0


def _empty_t2_seeds(n):
    """Seeds whose tape takes the sampling branch and puts all ``n`` elements
    in T1 (chosen from the tape, not from outcomes)."""
    return [s for s in range(XOS_SEEDS) if _xos_coin_tape(s, n) == (0, [1] * n)]


def test_criterion_xos_suite_per_run_ratio(xos_pool, xos_runs):
    """Per-run check on all 10,000 seeded runs: value >= OPT/436 on every run
    whose coin tape leaves T2 nonempty, and exact emptiness on the rest.

    The theorem is an expectation over the mechanism's coins, and one tape
    defeats any per-run bound: branch coin 0 and every split bit 1 (chance
    2^-(n+1)) give T2 = {}, so the thresholded argmax ranges over the empty
    set alone and the run is "empty" for every instance and bid vector, with
    value 0 < OPT/c for any c > 0.  Such seeds are read off the tape, and on
    them the test asserts exactly that outcome: branch "empty", T1 the whole
    ground set, no allocation, no payments.  Every other run must reach
    OPT/436.

    436 is the tuned optimum for a 3-approximate sub-mechanism
    (``optimize_constant(3)``, about 435.77).  At the shipped
    ``XOS_PARAMS`` (alpha = 218, beta = 9/2) the theory certifies only
    ``1/xos_objective(218, 9/2, 4)``, about 600.8, for the 4-approximate
    sub-mechanism here (450.6 even at gamma = 3), so this criterion and the
    expectation criterion are stricter empirical bars, not theorem checks.
    """
    failures = []
    corner_runs = []
    for index, ((valuation, costs, budget), (opt_value, outcomes)) in enumerate(
            zip(xos_pool, xos_runs)):
        ground = frozenset(valuation.ground)
        corner_seeds = _empty_t2_seeds(len(ground))
        for seed, out in enumerate(outcomes):
            if seed in corner_seeds:
                corner_runs.append((index, seed))
                if not (out.branch == "empty" and not out.t2 and out.t1 == ground
                        and not out.allocation and out.payments == {}):
                    failures.append((index, seed, "empty-T2 corner"))
                continue
            value = valuation.value(out.allocation) if out.allocation else ZERO
            if value * 436 < opt_value:
                failures.append((index, seed, "OPT/436"))

    total_runs = XOS_INSTANCES * XOS_SEEDS
    ratio_runs = total_runs - len(corner_runs)
    ratio_failures = sum(arm == "OPT/436" for _, _, arm in failures)
    corner_failures = len(failures) - ratio_failures
    ok = not failures
    record_criterion(
        "xos-suite-per-run-ratio", ok,
        f"{ratio_runs - ratio_failures}/{ratio_runs} non-corner runs meet OPT/436; "
        f"{len(corner_runs) - corner_failures}/{len(corner_runs)} empty-T2 corner runs "
        f"(seeds {sorted({seed for _, seed in corner_runs})}) allocate and pay nothing",
    )
    assert not failures, (
        f"{len(failures)} of {total_runs} runs break their arm "
        f"(instance, seed, arm): {failures}"
    )


def _partition_instances(count):
    """Near-uniform single-clause valuations satisfying the share precondition."""
    from budgetmech.xos import XosValuation

    produced = 0
    attempt = 0
    while produced < count:
        rng = random.Random(f"partition:{attempt}")
        attempt += 1
        n = rng.randint(6, 12)
        alpha = mpq(rng.choice([2, 3, 4, 6]))
        ids = [f"e{j:02d}" for j in range(n)]
        clause = {e: mpq(rng.randint(10, 13)) for e in ids}
        valuation = XosValuation(ids, [clause])
        total = sum(clause.values())
        if max(clause.values()) > total / alpha:
            continue
        produced += 1
        yield valuation, frozenset(ids), alpha


def test_criterion_partition_and_sampling_lemmas():
    """Constructive halves meet their bound on 500 instances; the two-sided
    sampled event succeeds at >= 0.45 frequency over 2000 seeds."""
    from budgetmech.xos import partition_halves, random_split

    partition_failures = 0
    checked = 0
    for valuation, opt, alpha in _partition_instances(500):
        s1, s2 = partition_halves(valuation, opt, alpha)
        star = valuation.best_clause(opt)
        total = valuation.clause_value(star, opt)
        bound = (alpha - 1) / (2 * alpha) * total
        checked += 1
        if valuation.clause_value(star, s1) < bound or valuation.clause_value(star, s2) < bound:
            partition_failures += 1

    sampling_ok = True
    frequencies = []
    for variant, alpha_int in enumerate((2, 3, 4)):
        rng = random.Random(f"sampling:{variant}")
        n = 12
        alpha = mpq(alpha_int)
        ids = [f"e{j:02d}" for j in range(n)]
        from budgetmech.xos import XosValuation

        clause = {e: mpq(rng.randint(10, 13)) for e in ids}
        valuation = XosValuation(ids, [clause])
        costs = {e: mpq(rng.randint(1, 5)) for e in ids}
        budget = sum(costs.values())
        opt_set, _ = xos_opt(valuation, costs, budget)
        star = valuation.best_clause(opt_set)
        f_opt = valuation.clause_value(star, opt_set)
        assert max(valuation.functions[star][e] for e in opt_set) <= f_opt / alpha
        threshold = (alpha - 1) / (4 * alpha) * f_opt
        hits = 0
        for seed in range(2000):
            t1, t2 = random_split(ids, seed)
            if valuation.value(t1) >= threshold and valuation.value(t2) >= threshold:
                hits += 1
        freq = hits / 2000
        frequencies.append(freq)
        if freq < 0.45:
            sampling_ok = False

    ok = partition_failures == 0 and checked == 500 and sampling_ok
    record_criterion(
        "partition-and-sampling-lemmas", ok,
        f"{checked} partition instances, {partition_failures} misses; "
        f"sampling frequencies {['%.3f' % f for f in frequencies]}",
    )
    assert partition_failures == 0 and checked == 500
    assert sampling_ok


def test_criterion_exact_regression():
    """Frozen hand-traced payment vectors reproduce exactly as rationals."""
    m = UniformMatroid(["a", "b", "c"], 2)
    inst = Instance(m, {"a": 6, "b": 5, "c": 4}, {"a": 6, "b": 2, "c": 2},
                    {"a": 6, "b": 2, "c": 2}, 10)
    out = run_matroid_mechanism(inst)
    first = (out.allocation == {"b", "c"} and out.payment("b") == mpq(50, 9)
             and out.payment("c") == mpq(40, 9) and out.total_payment == 10)

    inst = Instance(m, {"a": 6, "b": 5, "c": 4}, {"a": 3, "b": 4, "c": 1},
                    {"a": 3, "b": 4, "c": 1}, 3)
    out = run_matroid_mechanism(inst)
    second = out.allocation == {"a"} and out.payment("a") == 3

    from budgetmech import IntersectionSpec, PartitionMatroid

    ids = ["e11", "e12", "e21", "e22"]
    spec = IntersectionSpec([
        PartitionMatroid(ids, [({"e11", "e12"}, 1), ({"e21", "e22"}, 1)]),
        PartitionMatroid(ids, [({"e11", "e21"}, 1), ({"e12", "e22"}, 1)]),
    ])
    inst = Instance(spec, {"e11": 4, "e12": 3, "e21": 3, "e22": 1},
                    {e: 1 for e in ids}, {e: 1 for e in ids}, 12)
    out = run_intersection_mechanism(inst, get_blackbox("exact-bipartite", spec))
    third = (out.allocation == {"e12", "e21"} and out.payment("e12") == 6
             and out.payment("e21") == 6 and out.total_payment == 12)

    ok = first and second and third
    record_criterion("exact-regression", ok,
                     "payments 50/9+40/9=10; tau at 3; bipartite 6+6=12")
    assert first and second and third
