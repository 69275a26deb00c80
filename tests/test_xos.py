"""XOS valuations: value oracle, lemma constructions, sampling mechanism."""

import itertools
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from budgetmech import (
    CapExceeded,
    FreeMatroid,
    InputError,
    Instance,
    XosOutcome,
    XosParams,
    XosPlan,
    XosValuation,
    mechanisms,
    optimize_constant,
    partition_halves,
    random_split,
    xos,
    xos_mechanism_main,
    xos_objective,
)
from budgetmech.oracle import xos_opt
from budgetmech.rationals import ZERO, mpq, scale_to_integers
from budgetmech.verify import check_xos_outcome, check_xos_truthfulness, gen_xos_instance
from budgetmech.xos import (
    _argmax_surplus,
    _bid_totals,
    _class_winners,
    _opt_value_under_budget,
    _value_table,
)
from conftest import RATIONALS
from test_mechanisms import assert_built_like_a_dataclass, reference_mechanism


def single_clause(values):
    return XosValuation(sorted(values), [dict(values)])


def test_xos_value_examples():
    val = XosValuation(["a", "b"], [{"a": 1, "b": 0}, {"a": 0, "b": 2}])
    assert val.value(set()) == 0
    assert val.value({"a", "b"}) == 2
    additive = single_clause({"a": 3, "b": 4})
    assert additive.value({"a", "b"}) == 7


def test_xos_value_monotone():
    val = XosValuation(["a", "b", "c"], [{"a": 5, "b": 1, "c": 0}, {"a": 0, "b": 3, "c": 3}])
    subsets = [set(c) for r in range(4) for c in itertools.combinations("abc", r)]
    for s in subsets:
        for t in subsets:
            if s <= t:
                assert val.value(s) <= val.value(t)


def test_partition_equal_elements():
    val = single_clause({"a": 5, "b": 5, "c": 5, "d": 5})
    s1, s2 = partition_halves(val, {"a", "b", "c", "d"}, 4)
    bound = mpq(3, 8) * 20
    assert s1 | s2 == {"a", "b", "c", "d"} and not s1 & s2
    assert val.value(s1) >= bound and val.value(s2) >= bound
    assert s1 == {"a", "b"}  # id-ascending construction


def test_partition_hand_example():
    val = single_clause({"a": 3, "b": 3, "c": 2, "d": 2})
    alpha = mpq(10, 3)
    s1, s2 = partition_halves(val, {"a", "b", "c", "d"}, alpha)
    bound = (alpha - 1) / (2 * alpha) * 10  # 7/20 of 10
    assert bound == mpq(7, 2)
    assert s1 == {"a", "b"} and s2 == {"c", "d"}
    assert val.value(s1) >= bound and val.value(s2) >= bound


def test_partition_stops_at_a_prefix_equal_to_the_bound():
    """The first half stops as soon as its value reaches the bound: at
    alpha = 2 the bound is a quarter of 4, which ``a`` alone meets."""
    val = single_clause({"a": 1, "b": 1, "c": 1, "d": 1})
    s1, s2 = partition_halves(val, {"a", "b", "c", "d"}, 2)
    assert val.value(s1) == 1 == (2 - 1) / (2 * mpq(2)) * 4
    assert s1 == {"a"} and s2 == {"b", "c", "d"}


def test_partition_precondition_violation_names_element():
    val = single_clause({"a": 5, "b": 1})
    with pytest.raises(InputError, match="'a'"):
        partition_halves(val, {"a", "b"}, 2)


def test_random_split_basics():
    assert random_split(frozenset(), 7) == (frozenset(), frozenset())
    ground = {"a", "b", "c"}
    first = random_split(ground, 42)
    assert first == random_split(ground, 42)
    t1, t2 = first
    assert t1 | t2 == ground and not t1 & t2


def test_random_split_frequency():
    ground = ["a", "b", "c"]
    counts = {e: 0 for e in ground}
    n_seeds = 10_000
    for seed in range(n_seeds):
        t1, _ = random_split(ground, seed)
        for e in t1:
            counts[e] += 1
    for e in ground:
        assert 0.48 <= counts[e] / n_seeds <= 0.52


PARAMS = dict(alpha=218, beta=mpq(9, 2), gamma=4)


def test_single_element_runs():
    val = single_clause({"a": 7})
    costs = {"a": mpq(2)}
    out = xos_mechanism_main(val, costs, costs, 10, XosParams(seed=0, **PARAMS))
    assert out.branch == "max-element"
    assert out.allocation == {"a"} and out.payment("a") == 10


def test_degenerate_t1_gives_zero_threshold():
    # seed 45: continue-branch and every element lands in T2
    val, costs, budget = gen_xos_instance(404, 0, n=3)
    out = xos_mechanism_main(val, costs, costs, budget, XosParams(seed=45, **PARAMS))
    assert out.branch == "sub-mechanism"
    assert out.t1 == frozenset() and out.threshold == 0
    assert out.allocation
    assert out.total_payment <= budget


def test_degenerate_t2_allocates_nothing():
    # seed 139: continue-branch and every element lands in T1
    val, costs, budget = gen_xos_instance(404, 0, n=10)
    out = xos_mechanism_main(val, costs, costs, budget, XosParams(seed=139, **PARAMS))
    assert out.branch == "empty"
    assert out.allocation == frozenset() and out.total_payment == 0


def test_sampling_outcomes_match_dataclass_built_ones():
    """A sampling-branch outcome is built in one step
    (``mechanisms.frozen``), through a shared plan and along one-bid
    deviations, and is what the dataclass builds, its inner outcome too."""
    branches = set()
    for index, n in ((0, 6), (1, 8), (0, 10)):
        val, costs, budget = gen_xos_instance(404, index, n=n)
        for seed in range(12):
            params = XosParams(seed=seed, **PARAMS)
            plan = XosPlan(val, params)
            for e in (None, *sorted(val.ground)[:3]):
                bids = costs if e is None else {**costs, e: costs[e] / 2}
                out = xos_mechanism_main(val, costs, bids, budget, params, plan)
                if out.branch == "max-element":
                    continue
                branches.add(out.branch)
                assert_built_like_a_dataclass(out)
                if out.inner is not None:
                    assert_built_like_a_dataclass(out.inner)
    # seed 139 is the continue-branch tape that sends every element to T1
    val, costs, budget = gen_xos_instance(404, 0, n=10)
    out = xos_mechanism_main(val, costs, costs, budget, XosParams(seed=139, **PARAMS))
    assert_built_like_a_dataclass(out)
    assert branches | {out.branch} == {"sub-mechanism", "empty"}


def test_cap_enforced():
    ids = [f"e{j:02d}" for j in range(20)]
    val = single_clause({e: 1 for e in ids})
    costs = {e: mpq(1) for e in ids}
    with pytest.raises(CapExceeded):
        xos_mechanism_main(val, costs, costs, 30, XosParams(seed=0, **PARAMS))


def test_plan_and_run_keep_the_cap_and_the_empty_ground_errors():
    message = re.escape(
        "XOS mechanism enumerates subsets exhaustively; reduce n to at most 16")
    ids = [f"e{j:02d}" for j in range(17)]
    val = single_clause({e: 1 for e in ids})
    costs = {e: mpq(1) for e in ids}
    params = XosParams(seed=0, **PARAMS)
    with pytest.raises(CapExceeded, match=message):
        XosPlan(val, params)
    with pytest.raises(CapExceeded, match=message):
        xos_mechanism_main(val, costs, costs, 30, params)
    with pytest.raises(CapExceeded, match=message):
        xos_mechanism_main(val, costs, costs, 30, params, XosPlan(val, params))
    empty = XosValuation([], [{}])
    with pytest.raises(InputError, match="nonempty ground set"):
        XosPlan(empty, params)
    with pytest.raises(InputError, match="nonempty ground set"):
        xos_mechanism_main(empty, {}, {}, 30, params)


def test_plan_built_from_another_seed_or_valuation_rejected():
    """A plan holds the coin tape of its own valuation and seed: a run handed
    a plan built at another seed or from another valuation raises instead of
    running on the plan's tape.  At these seeds the plan built at seed 0 takes
    the max-element branch, which a run at the seed itself does not."""
    val = single_clause({"a": 1, "b": 2, "c": 3, "d": 4})
    costs = {e: mpq(1) for e in val.ground}
    plan = XosPlan(val, XosParams(seed=0, **PARAMS))
    assert xos_mechanism_main(val, costs, costs, 10, XosParams(seed=0, **PARAMS),
                              plan).branch == "max-element"
    for seed in (1, 3, 4):
        params = XosParams(seed=seed, **PARAMS)
        assert xos_mechanism_main(val, costs, costs, 10, params).branch != "max-element"
        with pytest.raises(InputError, match="plan was built from another valuation or seed"):
            xos_mechanism_main(val, costs, costs, 10, params, plan)
    other = single_clause({"a": 1, "b": 2, "c": 3, "d": 4})
    with pytest.raises(InputError, match="plan was built from another valuation or seed"):
        xos_mechanism_main(other, costs, costs, 10, XosParams(seed=0, **PARAMS), plan)


@pytest.mark.parametrize("cost", [mpq(-5), ZERO])
def test_non_positive_true_cost_rejected_on_every_coin_tape(cost):
    # the mechanism reads only bids, so the check must not depend on the
    # tape putting the element into the inner instance
    val, costs, budget = gen_xos_instance(0, 1, n=8)
    for seed in range(5):
        params = XosParams(seed=seed, **PARAMS)
        for e in val.ground:
            with pytest.raises(InputError, match=re.escape(f"true_costs[{e}] must be positive")):
                xos_mechanism_main(val, {**costs, e: cost}, costs, budget, params)


def _input_error(*args):
    with pytest.raises(InputError) as err:
        xos_mechanism_main(*args)
    return str(err.value)


def test_a_shared_plan_rejects_what_a_fresh_plan_rejects():
    """A shared plan keeps no record of the bids and costs it has seen:
    after valid runs, a bid above the budget, a smaller budget below a bid
    that passed before and a non-positive true cost each raise through the
    shared plan what they raise through a fresh one."""
    val, costs, budget = gen_xos_instance(0, 1, n=8)
    e = max(val.ground, key=lambda x: (costs[x], x))
    first = val.ground[0]
    for seed in range(4):
        params = XosParams(seed=seed, **PARAMS)
        plan = XosPlan(val, params)
        xos_mechanism_main(val, costs, costs, budget, params, plan)
        xos_mechanism_main(val, costs, {**costs, first: costs[first] / 2}, budget, params, plan)
        for true_costs, bids, at in (
            (costs, {**costs, e: budget + mpq(1, 3)}, budget),
            (costs, costs, costs[e] - mpq(1, 2)),
            ({**costs, e: ZERO}, costs, budget),
            ({**costs, e: mpq(-3)}, {**costs, first: costs[first] / 2}, budget),
        ):
            fresh = _input_error(val, true_costs, bids, at, params)
            assert _input_error(val, true_costs, bids, at, params, plan) == fresh
        assert xos_mechanism_main(val, costs, costs, budget, params, plan) == \
            xos_mechanism_main(val, costs, costs, budget, params)


@pytest.mark.parametrize("name", ["bids", "true_costs"])
@pytest.mark.parametrize("change", ["missing", "extra"])
@pytest.mark.parametrize("shared", [False, True], ids=["fresh", "shared"])
def test_a_map_that_is_not_the_ground_set_is_rejected(name, change, shared):
    """A bid or true-cost map that misses a ground element or names another
    id raises the ``Instance`` message, on both branches, with and without
    a plan that has already run."""
    val, costs, budget = gen_xos_instance(0, 1, n=6)
    if change == "missing":
        wrong = {e: costs[e] for e in val.ground[1:]}
    else:
        wrong = {**costs, "stray": costs[val.ground[0]]}
    for seed in range(4):  # both branches come up
        params = XosParams(seed=seed, **PARAMS)
        plan = None
        if shared:
            plan = XosPlan(val, params)
            xos_mechanism_main(val, costs, costs, budget, params, plan)
        maps = {"true_costs": costs, "bids": costs, name: wrong}
        with pytest.raises(InputError, match=f"^{name} must cover exactly the ground set$"):
            xos_mechanism_main(val, maps["true_costs"], maps["bids"], budget, params, plan)


def test_a_valuation_rejects_a_repeated_element_id():
    # a repeated id would draw a second split bit on the coin tape
    with pytest.raises(InputError, match="^duplicate element ids in ground set$"):
        XosValuation(["a", "a", "b"], [{"a": 1, "b": 2}])


def test_a_valuation_rejects_no_clause_however_given():
    # an empty generator is truthy, so the check reads the built clauses
    for functions in ([], (f for f in [])):
        with pytest.raises(InputError, match="^an XOS valuation needs at least one additive clause$"):
            XosValuation(["a"], functions)


def test_params_validation():
    with pytest.raises(InputError):
        XosParams(alpha=2, beta=1, gamma=3, seed=0)  # alpha*beta - beta - 4alpha < 0
    with pytest.raises(InputError):
        XosParams(alpha=1, beta=5, gamma=3, seed=0)
    with pytest.raises(InputError):
        XosParams(alpha=218, beta=mpq(9, 2), gamma=0, seed=0)


def test_zero_weight_clause_elements_never_allocated():
    # b has value only in the non-selected clause; the chosen clause values it
    # at zero, so it cannot be paid and must stay unallocated
    val = XosValuation(["a", "b"], [{"a": 10, "b": 0}, {"a": 0, "b": 1}])
    costs = {"a": mpq(1), "b": mpq(1)}
    for seed in range(12):
        out = xos_mechanism_main(val, costs, costs, 5, XosParams(seed=seed, **PARAMS))
        if "b" in out.allocation:
            assert out.payment("b") >= costs["b"]
        if out.branch == "sub-mechanism" and out.clause_index == 0:
            assert "b" not in out.allocation


def subset_surplus_nonneg(val, out, bids):
    """Every subset of the selected set clears the threshold (claimed lemma)."""
    clause = val.functions[out.clause_index]
    members = sorted(out.s_star)
    for r in range(len(members) + 1):
        for combo in itertools.combinations(members, r):
            f_s = sum((clause[e] for e in combo), mpq(0))
            c_s = sum((bids[e] for e in combo), mpq(0))
            if f_s - out.threshold * c_s < 0:
                return False
    return True


def test_selected_set_subsets_clear_threshold():
    for index in range(6):
        val, costs, budget = gen_xos_instance(11, index, n=8)
        for seed in range(30):
            out = xos_mechanism_main(val, costs, costs, budget,
                                     XosParams(seed=seed, **PARAMS))
            if out.branch == "sub-mechanism":
                assert subset_surplus_nonneg(val, out, costs)


def test_budget_ir_over_seeds():
    for index in range(4):
        val, costs, budget = gen_xos_instance(12, index, n=8)
        for seed in range(50):
            params = XosParams(seed=seed, **PARAMS)
            out = xos_mechanism_main(val, costs, costs, budget, params)
            assert not check_xos_outcome(val, costs, costs, budget, out, params)


def test_fixed_seed_truthfulness_samples():
    for index in range(3):
        val, costs, budget = gen_xos_instance(13, index, n=7)
        for seed in (0, 3, 5):
            params = XosParams(seed=seed, **PARAMS)
            report = check_xos_truthfulness(val, costs, budget, params,
                                            deviations_per_element=12, seed=index)
            assert report.passed, report.failures[0].to_json()


def test_objective_at_paper_point():
    # the reported optimum: evaluating at alpha=218, beta=4.5184 the first
    # branch binds exactly, giving 1/436
    assert xos_objective(218, mpq(45184, 10000), 3) == mpq(1, 436)


def _textbook_objective(alpha, beta, gamma):
    """The least of the three branches, each computed as a ``Fraction``."""
    alpha, beta, gamma = Fraction(alpha), Fraction(beta), Fraction(gamma)
    return min(
        1 / (2 * alpha),
        (alpha - 1) / (32 * gamma * alpha * beta),
        (alpha * beta - beta - 4 * alpha) / (16 * gamma * alpha * beta),
    )


POSITIVE_RATIONALS = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))


@settings(max_examples=500, deadline=None)
@given(POSITIVE_RATIONALS, POSITIVE_RATIONALS, POSITIVE_RATIONALS)
@example(Fraction(218), Fraction(45184, 10000), Fraction(3))
@example(Fraction(218), Fraction(9, 2), Fraction(4))
def test_objective_matches_the_textbook_minimum(alpha, beta, gamma):
    value = xos_objective(alpha, beta, gamma)
    assert value == _textbook_objective(alpha, beta, gamma)
    assert str(value) == str(mpq(_textbook_objective(alpha, beta, gamma)))


@pytest.mark.parametrize("alpha, beta, gamma", [(0, 1, 1), (2, 0, 1), (2, 1, 0)])
def test_objective_at_a_zero_knob_raises_as_the_textbook_minimum_does(alpha, beta, gamma):
    """Where the textbook minimum divides by zero, ``xos_objective`` rejects
    the knob before it divides, as it rejects a negative one."""
    with pytest.raises(ZeroDivisionError):
        _textbook_objective(alpha, beta, gamma)
    with pytest.raises(InputError, match="^alpha, beta and gamma must be positive$"):
        xos_objective(alpha, beta, gamma)


def test_optimize_constant_gamma3():
    alpha, beta, ratio = optimize_constant(3)
    assert 210 <= alpha <= 226
    assert mpq(43, 10) <= beta <= mpq(47, 10)
    assert 430 <= ratio <= mpq(4365, 10)
    # the returned point is self-consistent
    assert ratio == 1 / xos_objective(alpha, beta, 3)


def test_optimize_constant_gamma4_weaker():
    _, _, ratio3 = optimize_constant(3)
    _, _, ratio4 = optimize_constant(4)
    assert ratio4 > 436 > ratio3


def test_optimize_constant_beats_neighbourhood():
    for gamma in (3, 4):
        alpha, beta, _ = optimize_constant(gamma)
        best = xos_objective(alpha, beta, gamma)
        for da in (-mpq(1, 2), 0, mpq(1, 2)):
            for db in (-mpq(1, 50), 0, mpq(1, 50)):
                assert xos_objective(alpha + da, beta + db, gamma) <= best + mpq(1, 10**12)


# ---------------------------------------------------------------------------
# the subset-enumerating helpers against second routes


@st.composite
def xos_subset_cases(draw):
    """A small XOS valuation (clause weights in 0..3, so zeros and ties are
    common), positive bids, a threshold and a budget, and the subset of
    element ids the helpers enumerate over."""
    ids = [f"e{j}" for j in range(draw(st.integers(1, 6)))]
    functions = [
        {e: mpq(draw(st.integers(0, 3))) for e in ids}
        for _ in range(draw(st.integers(1, 3)))
    ]
    bids = {e: mpq(draw(st.integers(1, 4)), draw(st.integers(1, 2))) for e in ids}
    threshold = mpq(draw(st.integers(0, 6)), draw(st.integers(1, 3)))
    budget = mpq(draw(st.integers(1, 12)), draw(st.integers(1, 2)))
    subset = sorted(draw(st.sets(st.sampled_from(ids))))
    return XosValuation(ids, functions), subset, bids, threshold, budget


@st.composite
def xos_mixed_cases(draw):
    """As ``xos_subset_cases``, over mixed denominators: bids over 1..7, the
    threshold and clause values over 1..5, so equal values and equal bid
    totals written over different denominators are common.  The budget is
    often the bid total of a subset."""
    ids = [f"e{j}" for j in range(draw(st.integers(1, 6)))]
    value = st.builds(mpq, st.integers(0, 5), st.integers(1, 5))
    functions = [{e: draw(value) for e in ids} for _ in range(draw(st.integers(1, 3)))]
    bids = {e: mpq(draw(st.integers(1, 7)), draw(st.integers(1, 7))) for e in ids}
    threshold = mpq(draw(st.integers(0, 6)), draw(st.integers(1, 5)))
    fits = draw(st.sets(st.sampled_from(ids), min_size=1))
    budget = draw(st.sampled_from([sum((bids[e] for e in fits), ZERO),
                                   mpq(draw(st.integers(1, 12)), draw(st.integers(1, 5)))]))
    subset = sorted(draw(st.sets(st.sampled_from(ids))))
    return XosValuation(ids, functions), subset, bids, threshold, budget


@st.composite
def xos_pair_copy_cases(draw):
    """A pair ``{a, c}`` copied onto one element ``b`` between them in id
    order: clause 0 values only the pair, clause 1 only ``b``, at the pair's
    value, and ``b`` bids the pair's bid total.  Every other element is
    worth 0, and the threshold leaves each pair member worth buying, so
    ``{a, c}`` and ``{b}`` tie as the best sets without any other element.
    The id tuple puts ``(a, c)`` first, the bitmask order ``{b}``.  (A
    copy of one element cannot make such a tie: a set that holds the
    original loses to itself without it or with the copy added.)"""
    ids = [f"e{j}" for j in range(draw(st.integers(4, 6)))]
    a, b, c = sorted(draw(st.lists(st.sampled_from(ids), min_size=3, max_size=3, unique=True)))
    pair = {a: mpq(draw(st.integers(1, 3))), c: mpq(draw(st.integers(1, 3)))}
    bids = {e: mpq(draw(st.integers(1, 4)), draw(st.integers(1, 2))) for e in ids}
    bids[b] = bids[a] + bids[c]
    functions = [{e: pair.get(e, ZERO) for e in ids},
                 {e: pair[a] + pair[c] if e == b else ZERO for e in ids}]
    threshold = min(pair[e] / bids[e] for e in pair) * mpq(draw(st.integers(0, 5)), 6)
    budget = mpq(draw(st.integers(1, 12)), draw(st.integers(1, 2)))
    return XosValuation(ids, functions), ids, bids, threshold, budget


SUBSET_CASES = st.one_of(xos_subset_cases(), xos_mixed_cases(), xos_pair_copy_cases())


def _breakpoint_by_subsets(valuation, t2_ids, bids, threshold, e):
    """Membership breakpoint computed subset by subset with ``value`` calls."""
    if threshold <= 0 or e not in t2_ids:
        return None
    ids = sorted(t2_ids)
    best_in, best_out = None, ZERO  # empty set is an "out" candidate
    for mask in range(1, 1 << len(ids)):
        members = [ids[j] for j in range(len(ids)) if mask >> j & 1]
        value = valuation.value(frozenset(members))
        cost_rest = sum((bids[o] for o in members if o != e), ZERO)
        if e in members:
            obj_rest = value - threshold * cost_rest
            if best_in is None or obj_rest > best_in:
                best_in = obj_rest
        else:
            obj = value - threshold * cost_rest
            if obj > best_out:
                best_out = obj
    return (best_in - best_out) / threshold


# {e0, e2} and {e1} tie on value and on cost, and e3 adds nothing: without
# e3 the best set is {e0, e2}, which comes first in id order, not in bitmask
# order (random draws rarely tie this way); tape 16 puts all four elements in
# T2 on the sampling branch
ID_TIE = (
    XosValuation(["e0", "e1", "e2", "e3"], [
        {"e0": mpq(1), "e1": ZERO, "e2": mpq(1), "e3": ZERO},
        {"e0": ZERO, "e1": mpq(2), "e2": ZERO, "e3": ZERO},
    ]),
    ["e0", "e1", "e2", "e3"],
    {"e0": mpq(1), "e1": mpq(2), "e2": mpq(1), "e3": mpq(1)},
    ZERO,
    mpq(4),
)

# {e0, e1} and {e2} tie on value (2/3 + 1 against 5/3) and on bid total
# (1/2 + 1/3 against 5/6) over different denominators, so at threshold 0
# and at 1/2 they both beat the whole set and the id tuple decides; the
# budget 5/6 lands exactly on both totals; tapes 16 and 1 put all three
# elements in T2 and in T1
MIXED_TIE = (
    XosValuation(["e0", "e1", "e2"], [
        {"e0": mpq(1), "e1": mpq(2, 3), "e2": ZERO},
        {"e0": ZERO, "e1": ZERO, "e2": mpq(5, 3)},
    ]),
    ["e0", "e1", "e2"],
    {"e0": mpq(1, 2), "e1": mpq(1, 3), "e2": mpq(5, 6)},
    ZERO,
    mpq(5, 6),
)
MIXED_TIE_AT_HALF = (*MIXED_TIE[:3], mpq(1, 2), MIXED_TIE[4])


@settings(max_examples=300, deadline=None)
@given(SUBSET_CASES)
@example(ID_TIE)
@example(MIXED_TIE)
@example(MIXED_TIE_AT_HALF)
def test_subset_helpers_match_second_routes(case):
    valuation, subset, bids, threshold, budget = case
    cost = _bid_totals([bids[e] for e in subset])
    value = scale_to_integers(_value_table(valuation, subset))

    restricted = XosValuation(subset, [{e: f[e] for e in subset} for f in valuation.functions])
    assert mpq(_opt_value_under_budget(cost, value, budget), value[0]) == \
        xos_opt(restricted, {e: bids[e] for e in subset}, budget)[1]

    def rank(members):  # documented tie order: objective, then cost, then ids
        cost = sum((bids[e] for e in members), ZERO)
        return (-(valuation.value(frozenset(members)) - threshold * cost), cost, members)

    candidates = [c for r in range(len(subset) + 1) for c in itertools.combinations(subset, r)]
    assert _argmax_surplus(subset, cost, value, threshold) == frozenset(min(candidates, key=rank))

    # a class winner's rank is (-objective, cost, ids), its deficit over
    # the bid, value and threshold scales and its cost over the bid scale
    winners = _class_winners(subset, cost, value, threshold)
    scale = cost[0] * value[0] * threshold.denominator
    for e, (best_in, best_out, *_) in winners.items():
        for (deficit, total, members), side in ((best_in, True), (best_out, False)):
            best = rank(min((c for c in candidates if (e in c) is side), key=rank))
            assert (mpq(deficit, scale), mpq(total, cost[0]), members) == best

    breakpoints = {}
    if threshold > 0:
        breakpoints = {e: (mpq(best_out[0] - best_in[0], scale)) / threshold + bids[e]
                       for e, (best_in, best_out, *_) in winners.items()}
    for e in valuation.ground:
        assert breakpoints.get(e) == _breakpoint_by_subsets(valuation, subset, bids, threshold, e)


@settings(max_examples=300, deadline=None)
@given(SUBSET_CASES, st.integers(0, 255), st.lists(st.integers(1, 8), max_size=3))
@example(ID_TIE, 16, [])
@example(MIXED_TIE, 16, [])
@example(MIXED_TIE_AT_HALF, 16, [1])
def test_one_bid_argmax_matches_a_fresh_argmax(case, tape, drawn):
    """After a first ``t2_argmax`` at some bids and threshold, the plan
    answers each one-bid T2 change at that threshold from its class winners;
    each answer equals a fresh ``_argmax_surplus`` over the re-summed bids.  The
    new bids include those that tie the two class winners on objective, on
    cost, or on both (threshold 0 ties every objective shift)."""
    valuation, _, bids, threshold, _ = case
    plan = XosPlan(valuation, XosParams(seed=tape, **PARAMS))
    assume(not plan.take_max_element)
    ids = plan.t2_ids
    plan.t2_argmax(bids, threshold)
    breakpoints = plan.t2_breakpoints()
    for e in valuation.ground:
        assert breakpoints.get(e) == _breakpoint_by_subsets(valuation, ids, bids, threshold, e)
    value = scale_to_integers(_value_table(valuation, ids))
    candidates = [c for r in range(len(ids) + 1) for c in itertools.combinations(ids, r)]

    def rank(members):  # the tie order: -objective, then cost, then ids
        cost = sum((bids[e] for e in members), ZERO)
        return (threshold * cost - valuation.value(frozenset(members)), cost, members)

    for e in ids:
        deficit_in, cost_in, _ = min(rank(c) for c in candidates if e in c)
        deficit_out, cost_out, _ = min(rank(c) for c in candidates if e not in c)
        shifts = [cost_out - cost_in] + [mpq(k, 2) - bids[e] for k in drawn]
        if threshold > 0:
            shifts.append((deficit_out - deficit_in) / threshold)
        for shift in shifts:
            moved = {**bids, e: bids[e] + shift}
            fresh = _argmax_surplus(ids, _bid_totals([moved[o] for o in ids]), value, threshold)
            assert plan.t2_argmax(moved, threshold) == fresh


# one element in T1 on tape 1, whose bid 3 moved to 4 puts budget - D on 3,
# the bid total of {e0}; tape 1 puts all four ``ID_TIE`` elements, whose bid
# totals tie often, in T1
ONE_IN_T1 = (XosValuation(["e0"], [{"e0": mpq(2)}]), [], {"e0": mpq(3)}, ZERO, mpq(4))


@settings(max_examples=300, deadline=None)
@given(SUBSET_CASES, st.integers(0, 255), st.lists(st.integers(1, 8), max_size=3))
@example(ONE_IN_T1, 1, [2])
@example(ID_TIE, 1, [])
@example(MIXED_TIE, 1, [1])
def test_one_bid_t1_optimum_matches_a_fresh_scan(case, tape, drawn):
    """After a first ``t1_optimum`` at some bids and budget, the plan answers
    each one-bid T1 change at that budget from its table, without a scan;
    each answer equals a fresh scan over the re-summed bids.  The new bids put
    budget - D exactly on the bid total of every set with the element, and
    the last one is the base bid again, as a new object.  The first call
    scans."""
    valuation, _, bids, _, budget = case
    plan = XosPlan(valuation, XosParams(seed=tape, **PARAMS))
    assume(not plan.take_max_element and plan.t1_ids)
    ids = plan.t1_ids
    with mock.patch.object(xos, "_opt_value_under_budget",
                           wraps=xos._opt_value_under_budget) as scan:
        plan.t1_optimum(bids, budget)
    assert scan.call_count == 1
    value = scale_to_integers(_value_table(valuation, ids))
    d, cost = _bid_totals([bids[e] for e in ids])
    # the plan calls the kernel by its module name; this test's import of it
    # stays the unpatched fresh scan
    with mock.patch.object(xos, "_opt_value_under_budget",
                           side_effect=AssertionError("T1 scanned")):
        for j, e in enumerate(ids):
            exact = [bids[e] + budget - mpq(c, d) for m, c in enumerate(cost) if m >> j & 1]
            new_bids = [*exact, *(mpq(k, 2) for k in drawn),
                        mpq(bids[e].numerator, bids[e].denominator)]
            for bid in (b for b in new_bids if b > 0):
                moved = {**bids, e: bid}
                fresh = _opt_value_under_budget(_bid_totals([moved[o] for o in ids]), value,
                                                budget)
                assert plan.t1_optimum(moved, budget) == fresh


# ---------------------------------------------------------------------------
# one plan shared by a sequence of runs against fresh runs


@st.composite
def xos_bid_sequences(draw):
    """A small XOS valuation, a coin tape, and bid vectors with budgets that
    change one T1 bid, one T2 bid and the budget, then go back: A, B, C, D,
    A, B, A.  Bids stay at most 4, so every budget here admits them.  Clause
    values spread over powers of two, and D raises the budget from 4..7 to
    8..24, so the threshold often moves the surplus argmax."""
    ids = [f"e{j}" for j in range(draw(st.integers(1, 6)))]
    functions = [
        {e: mpq(draw(st.sampled_from([0, 1, 2, 4, 8, 16]))) for e in ids}
        for _ in range(draw(st.integers(1, 3)))
    ]
    valuation = XosValuation(ids, functions)
    params = XosParams(seed=draw(st.integers(0, 255)), **PARAMS)
    plan = XosPlan(valuation, params)
    bid = st.builds(mpq, st.integers(1, 8), st.integers(2, 3))
    costs = {e: draw(bid) for e in ids}
    a = (dict(costs), mpq(draw(st.integers(8, 14)), 2))
    b = a
    if plan.t1_ids:
        b = ({**a[0], draw(st.sampled_from(plan.t1_ids)): draw(bid)}, a[1])
    c = b
    if plan.t2_ids:
        c = ({**b[0], draw(st.sampled_from(plan.t2_ids)): draw(bid)}, b[1])
    d = (c[0], mpq(draw(st.integers(16, 48)), 2))
    return valuation, costs, params, [a, b, c, d, a, b, a]


def test_shared_plan_matches_fresh_runs():
    """Each run through one shared plan equals a fresh run in every field,
    the inner trace and payments included, while the one-bid tables of both
    halves and the chains of the inner runners answer some of the runs."""
    branches = set()
    answers = {"t1": [], "t2": []}

    @settings(max_examples=300, deadline=None)
    @given(xos_bid_sequences())
    def check(case):
        valuation, costs, params, sequence = case
        plan = XosPlan(valuation, params)
        # A's run is the base of both halves: their tables answer B, a
        # T1-only change, and the T2 half of C
        for half, name in (("t1", "_t1"), ("t2", "_t2")):
            def counted(*entry, read=getattr(plan, name)._read, half=half):
                answers[half].append(True)
                return read(*entry)

            getattr(plan, name)._read = counted
        for bids, budget in sequence:
            shared = xos_mechanism_main(valuation, costs, bids, budget, params, plan)
            fresh = xos_mechanism_main(valuation, costs, bids, budget, params)
            assert shared == fresh
            branches.add(fresh.branch)

    with mock.patch.object(mechanisms, "_chain_answer", autospec=True,
                           side_effect=mechanisms._chain_answer) as chain_answers:
        check()
    assert branches == {"max-element", "empty", "sub-mechanism"}
    assert sum(answers["t1"]) > 0 and sum(answers["t2"]) > 0
    assert chain_answers.call_count > 0


# ---------------------------------------------------------------------------
# whole outcomes against a second route written from the mechanism's
# description: no subset table, no plan and no kernel of ``xos.py``


def reference_xos(valuation, costs, bids, budget, params):
    """One seeded run of the sampling mechanism, from its description.

    The tape is ``random.Random(seed)``: a branch coin (1 buys the element
    of largest ``v({e})``, ties to the smaller id, at the full budget), then
    one split bit per element in id order (1 puts it in T1).  The threshold
    is the best ``v(S)`` over the subsets S of T1 with bid total at most the
    budget, over ``beta * budget``.  The chosen set is the subset of T2 of
    largest ``v(S) - threshold * bids(S)``, ties to the smaller bid total,
    then to the smaller sorted id tuple.  Its clause is the lowest index at
    its value (None for the empty set), and the inner run is the threshold
    mechanism on a free matroid over the members that clause values above
    zero, weighted by it."""
    rng = random.Random(params.seed)
    ids = sorted(valuation.ground)
    take_max_element = rng.getrandbits(1)
    t1 = frozenset(e for e in ids if rng.getrandbits(1))
    t2 = frozenset(ids) - t1
    if take_max_element:
        star = min(ids, key=lambda e: (-valuation.value({e}), e))
        return XosOutcome(branch="max-element", allocation=frozenset([star]),
                          payments={star: budget}, budget=budget)

    def subsets(members):
        members = sorted(members)
        return [c for r in range(len(members) + 1) for c in itertools.combinations(members, r)]

    def total(s):
        return sum((bids[e] for e in s), ZERO)

    t1_opt = max(valuation.value(set(s)) for s in subsets(t1) if total(s) <= budget)
    threshold = t1_opt / (params.beta * budget)
    s_star = min(subsets(t2), key=lambda s: (threshold * total(s) - valuation.value(set(s)),
                                             total(s), s))
    clause_values = [sum((f[e] for e in s_star), ZERO) for f in valuation.functions]
    clause_index = clause_values.index(max(clause_values)) if s_star else None
    clause = valuation.functions[clause_index] if s_star else {}
    positive = [e for e in s_star if clause[e] > 0]
    fields = dict(budget=budget, t1=t1, t2=t2, threshold=threshold, s_star=frozenset(s_star),
                  clause_index=clause_index)
    if not positive:
        return XosOutcome(branch="empty", allocation=frozenset(), payments={}, **fields)
    inst = Instance(FreeMatroid(positive), {e: clause[e] for e in positive},
                    {e: costs[e] for e in positive}, {e: bids[e] for e in positive}, budget)
    inner = reference_mechanism(inst, lambda excluded: frozenset(positive) - excluded)
    return XosOutcome(branch="sub-mechanism", allocation=inner.allocation,
                      payments=dict(inner.payments), inner=inner, **fields)


@st.composite
def xos_deviation_cases(draw):
    """An XOS valuation at n <= 7 with clause weights 0..3, a coin tape, true
    costs over mixed denominators, a budget that admits them and is often
    the bid total of some T1 set, and deviated bid vectors in (0, budget]:
    each element's bid moved alone, twice, then a few pairs moved together."""
    ids = [f"e{j}" for j in range(draw(st.integers(1, 7)))]
    functions = [{e: mpq(draw(st.integers(0, 3))) for e in ids}
                 for _ in range(draw(st.integers(1, 3)))]
    valuation = XosValuation(ids, functions)
    params = XosParams(seed=draw(st.integers(0, 255)), **PARAMS)
    costs = {e: draw(RATIONALS) for e in ids}
    binding = draw(st.sets(st.sampled_from(XosPlan(valuation, params).t1_ids or ids)))
    budget = max(*costs.values(), sum((costs[e] for e in binding), ZERO))
    bid = RATIONALS.map(lambda b: min(b, budget))
    one = [{**costs, e: draw(bid)} for e in ids for _ in range(2)]
    two = []
    if len(ids) > 1:
        for _ in range(draw(st.integers(1, 4))):
            e, f = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True))
            two.append({**costs, e: draw(bid), f: draw(bid)})
    return valuation, costs, budget, params, [costs, *one, *two]


def test_whole_outcomes_match_a_reference_written_from_the_description():
    """Every field of every run through one shared plan, the inner trace and
    payments included, equals ``reference_xos``: at truthful bids, the base
    of both halves' one-bid tables, then along one-bid and two-bid
    deviations.  The drawn tapes reach all three branches."""
    branches = set()

    @settings(max_examples=300, deadline=None)
    @given(xos_deviation_cases())
    def check(case):
        valuation, costs, budget, params, runs = case
        plan = XosPlan(valuation, params)
        for bids in runs:
            out = xos_mechanism_main(valuation, costs, bids, budget, params, plan)
            assert out == reference_xos(valuation, costs, bids, budget, params), bids
            branches.add(out.branch)

    check()
    assert branches == {"max-element", "empty", "sub-mechanism"}
