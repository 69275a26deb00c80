"""The two procurement mechanisms: hand traces, invariants, edge cases."""

import gc
import random
import weakref
from dataclasses import FrozenInstanceError, fields
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budgetmech import (
    ApxBlackbox,
    DeadlineMatroid,
    GraphicMatroid,
    InputError,
    Instance,
    IntersectionSpec,
    Outcome,
    PartitionMatroid,
    Plan,
    TraceStep,
    UniformMatroid,
    first_price_greedy,
    get_blackbox,
    max_weight_independent_set,
    mechanisms,
    run_intersection_mechanism,
    run_matroid_mechanism,
    set_weight,
    utility,
    verify,
)
from budgetmech.mechanisms import OneBid
from budgetmech.rationals import mpq
from budgetmech.verify import (
    BLACKBOX_OF,
    GeneratorConfig,
    check_outcome_invariants,
    gen_bipartite_instance,
    gen_matroid_instance,
    make_runner,
    truthful_deviation_bids,
)
from conftest import MATROID_KINDS, RATIONALS, bipartite_specs, matroids, mixed_specs


def uniform_instance(weights, bids, budget, rank=2):
    ids = sorted(weights)
    m = UniformMatroid(ids, rank)
    return Instance(m, weights, bids, dict(bids), budget)


def square_instance(bids, budget):
    ids = ["e11", "e12", "e21", "e22"]
    left = PartitionMatroid(ids, [({"e11", "e12"}, 1), ({"e21", "e22"}, 1)])
    right = PartitionMatroid(ids, [({"e11", "e21"}, 1), ({"e12", "e22"}, 1)])
    spec = IntersectionSpec([left, right])
    w = {"e11": 4, "e12": 3, "e21": 3, "e22": 1}
    return Instance(spec, w, bids, dict(bids), budget)


def test_singleton_pays_budget():
    inst = Instance(UniformMatroid(["a"], 1), {"a": 6}, {"a": 3}, {"a": 3}, 10)
    out = run_matroid_mechanism(inst)
    assert out.branch == "tau"
    assert out.allocation == {"a"} and out.payment("a") == 10


def test_hand_trace_no_removals():
    inst = uniform_instance({"a": 6, "b": 5, "c": 4}, {"a": 6, "b": 2, "c": 2}, 10)
    out = run_matroid_mechanism(inst)
    assert out.allocation == {"b", "c"}
    assert out.payment("b") == mpq(50, 9)
    assert out.payment("c") == mpq(40, 9)
    assert out.total_payment == 10
    assert out.final_rate == mpq(10, 9)
    assert len(out.trace) == 1 and out.trace[0].removed is None


def test_hand_trace_with_removal():
    inst = uniform_instance({"a": 6, "b": 5, "c": 4}, {"a": 3, "b": 4, "c": 1}, 3)
    out = run_matroid_mechanism(inst)
    assert out.branch == "tau"
    assert out.allocation == {"a"} and out.payment("a") == 3
    assert [s.removed for s in out.trace] == ["b", None]
    assert out.trace[0].rate == mpq(4, 5)
    assert out.trace[1].rate == mpq(1, 4)
    assert out.final_rate == mpq(3, 4)


def test_empty_ground_rejected():
    with pytest.raises(InputError):
        Instance(UniformMatroid([], 0), {}, {}, {}, 5)


def test_all_elements_removed_falls_back_to_tau():
    # above-budget declarations force the removal loop to exhaust E - tau
    inst = uniform_instance({"a": 10, "b": 1, "c": 1}, {"a": 1, "b": 9, "c": 9}, 8, rank=3)
    out = run_matroid_mechanism(inst)
    assert out.branch == "tau"
    assert out.allocation == {"a"} and out.payment("a") == 8
    assert out.trace[-1].value == 0 and out.trace[-1].rate is None


def test_mechanism_reads_bids_not_costs():
    truthful = uniform_instance({"a": 6, "b": 5, "c": 4}, {"a": 6, "b": 2, "c": 2}, 10)
    lying = Instance(
        truthful.structure, truthful.weights, truthful.true_costs,
        {"a": 6, "b": 3, "c": 2}, 10,
    )
    out_t = run_matroid_mechanism(truthful)
    out_l = run_matroid_mechanism(lying)
    assert out_t.allocation == out_l.allocation  # same sets here
    assert out_t.payments == out_l.payments  # rate unchanged: bids only enter ordering


def test_mechanism2_hand_trace():
    inst = square_instance({e: 1 for e in ["e11", "e12", "e21", "e22"]}, 12)
    out = run_intersection_mechanism(inst, get_blackbox("exact-bipartite", inst.structure))
    assert out.allocation == {"e12", "e21"}
    assert out.payment("e12") == 6 and out.payment("e21") == 6
    assert out.total_payment == 12


def test_mechanism2_greedy_blackbox_invariants():
    inst = square_instance({e: 1 for e in ["e11", "e12", "e21", "e22"]}, 12)
    out = run_intersection_mechanism(inst, get_blackbox("greedy", inst.structure))
    assert inst.structure.is_independent(out.allocation)
    assert out.total_payment <= inst.budget
    for e in out.allocation:
        assert out.payment(e) >= inst.bids[e]


def test_mechanism2_single_edge_tau_branch():
    ids = ["e"]
    spec = IntersectionSpec(
        [PartitionMatroid(ids, [({"e"}, 1)]), PartitionMatroid(ids, [({"e"}, 1)])]
    )
    inst = Instance(spec, {"e": 5}, {"e": 2}, {"e": 2}, 7)
    for apx in ("exact-bipartite", "greedy"):
        out = run_intersection_mechanism(inst, get_blackbox(apx, spec))
        assert out.branch == "tau" and out.payment("e") == 7


def test_utility_examples():
    inst = uniform_instance({"a": 6, "b": 5, "c": 4}, {"a": 6, "b": 2, "c": 2}, 10)
    out = run_matroid_mechanism(inst)
    assert utility(inst, out, "a") == 0  # unallocated
    assert utility(inst, out, "b") == mpq(50, 9) - 2 == mpq(32, 9)

    tau_inst = uniform_instance({"a": 6, "b": 5, "c": 4}, {"a": 3, "b": 4, "c": 1}, 3)
    out = run_matroid_mechanism(tau_inst)
    assert utility(tau_inst, out, "a") == 0  # payment b equals cost
    with pytest.raises(InputError):
        utility(inst, out, "zz")


def test_wrong_structure_types_rejected():
    matroid_inst = uniform_instance({"a": 2, "b": 1}, {"a": 1, "b": 1}, 3)
    with pytest.raises(InputError):
        run_intersection_mechanism(matroid_inst, None)
    inter_inst = square_instance({e: 1 for e in ["e11", "e12", "e21", "e22"]}, 12)
    with pytest.raises(InputError):
        run_matroid_mechanism(inter_inst)


def test_a_run_rejects_a_plan_built_on_another_instance():
    """A given plan is the instance's own: the same structure object, equal
    weights and, for an intersection, the same blackbox object."""
    inst = uniform_instance({"a": 3, "b": 2, "c": 2}, {"a": 1, "b": 1, "c": 1}, 10, rank=3)
    assert run_matroid_mechanism(inst).allocation == {"b", "c"}
    # Instance.truthful rebuilds the weight dict from the same rationals
    assert run_matroid_mechanism(inst.truthful(), Plan(inst.structure, inst.weights)) \
        == run_matroid_mechanism(inst)
    rank_one = UniformMatroid(inst.ground, 1)
    other_weights = {**inst.weights, "c": mpq(3)}
    for plan in (Plan(rank_one, inst.weights), Plan(inst.structure, other_weights)):
        with pytest.raises(InputError, match="plan was built from another structure"):
            run_matroid_mechanism(inst, plan)

    square = square_instance({e: 1 for e in ["e11", "e12", "e21", "e22"]}, 12)
    exact = get_blackbox("exact-bipartite", square.structure)
    greedy = get_blackbox("greedy", square.structure)
    plan = Plan(square.structure, square.weights, exact)
    assert run_intersection_mechanism(square, exact, plan) == \
        run_intersection_mechanism(square, exact)
    for blackbox in (greedy, get_blackbox("exact-bipartite", square.structure)):
        with pytest.raises(InputError, match="plan was built from another structure"):
            run_intersection_mechanism(square, blackbox, plan)


def test_tau_bidding_above_the_budget_breaks_ir_in_memory():
    """The file boundary rejects bids above the budget because the tau
    branch pays tau the budget whatever tau bid."""
    m = UniformMatroid(["a", "b"], 1)
    inst = Instance(m, {"a": 10, "b": 1}, {"a": 20, "b": 1}, {"a": 20, "b": 1}, 5)
    out = run_matroid_mechanism(inst)
    assert out.allocation == {"a"} and out.payments == {"a": 5}
    (failure,) = check_outcome_invariants(inst, out, "matroid")
    assert (failure.property, failure.element, failure.observed, failure.required) == \
        ("IR", "a", "5", ">= bid 20")


def test_invariants_on_random_instances():
    cfg = GeneratorConfig(count=80, seed=5)
    for index in range(80):
        inst = gen_matroid_instance(cfg, index)
        out = run_matroid_mechanism(inst)
        assert not check_outcome_invariants(inst, out, "matroid")
        # payment rate never exceeds the removal-boundary rate
        if out.branch == "set":
            assert set_weight(inst.weights, out.allocation) > inst.weights[out.tau]


def test_cache_gives_identical_outcomes():
    # a make_runner runner reuses its plan (and its blackbox memo) across
    # deviations; every deviation must give what a fresh run gives
    cfg = GeneratorConfig(count=3, seed=6, n_range=(3, 7))
    for mechanism in ("matroid", "intersection-exact", "intersection-greedy"):
        for index in range(3):
            if mechanism == "matroid":
                inst = gen_matroid_instance(cfg, index).truthful()

                def fresh(i):
                    return run_matroid_mechanism(i)
            else:
                inst = gen_bipartite_instance(cfg, index).truthful()
                blackbox = get_blackbox(BLACKBOX_OF[mechanism], inst.structure)

                def fresh(i, blackbox=blackbox):
                    return run_intersection_mechanism(i, blackbox)
            runner = make_runner(mechanism, inst)
            truthful = runner(inst)
            assert truthful == fresh(inst)
            rng = random.Random(index)
            for e in inst.ground:
                for d in truthful_deviation_bids(inst, e, truthful, rng, 12):
                    deviated = inst.with_bid(e, d)
                    assert runner(deviated) == fresh(deviated)


def assert_trace_matches_recomputation(inst, out):
    removed = set()
    for step in out.trace:
        surviving = inst.structure.delete(removed | {out.tau})
        expected = max_weight_independent_set(surviving, inst.weights)
        assert step.chosen == tuple(sorted(expected))
        assert step.value == set_weight(inst.weights, step.chosen)
        if step.removed is not None:
            removed.add(step.removed)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), kind=st.sampled_from(MATROID_KINDS))
def test_repaired_greedy_set_matches_recomputation(data, kind):
    m = data.draw(matroids(kind))
    # small weights make ties common; bids up to the budget force removals
    weights = {e: data.draw(st.integers(1, 4)) for e in m.ground}
    budget = data.draw(st.integers(1, 12))
    bids = {e: data.draw(st.integers(1, budget)) for e in m.ground}
    inst = Instance(m, weights, bids, bids, budget)
    assert_trace_matches_recomputation(inst, run_matroid_mechanism(inst))


@pytest.mark.parametrize("regime", ["tight", "loose"])
@pytest.mark.parametrize("kind", ["graphic", "deadline"])
def test_repaired_sets_match_recomputation_at_size(kind, regime):
    """The same second route at n = 60, where graphic cuts split large trees
    and deadline repairs move many slots; the runs must repair in earnest."""
    cfg = GeneratorConfig(count=3, seed=0, n_range=(60, 60), kinds=(kind,),
                          budget_regime=regime)
    repairs = 0
    for index in range(3):
        inst = gen_matroid_instance(cfg, index)
        out = run_matroid_mechanism(inst)
        assert_trace_matches_recomputation(inst, out)
        repairs += sum(step.removed in step.chosen for step in out.trace)
    assert repairs >= 10


def test_one_exchange_structure_per_walk(monkeypatch):
    """A run repairs one exchange structure in place: a full run at n = 200
    builds at most one, and once the run is over nothing holds it, the
    shared plan included."""
    built = []
    for cls in (GraphicMatroid, DeadlineMatroid):
        def counted(self, basis, exchange=cls.exchange):
            structure = exchange(self, basis)
            built.append(weakref.ref(structure))
            return structure
        monkeypatch.setattr(cls, "exchange", counted)
    for kind in ("graphic", "deadline"):
        for regime in ("tight", "loose"):
            cfg = GeneratorConfig(count=1, seed=0, n_range=(200, 200), kinds=(kind,),
                                  budget_regime=regime)
            inst = gen_matroid_instance(cfg, 0)
            plan = Plan(inst.structure, inst.weights)
            built.clear()
            out = run_matroid_mechanism(inst, plan)
            assert sum(step.removed in step.chosen for step in out.trace) >= 2
            assert len(built) == 1
            gc.collect()
            assert built[0]() is None


def test_removing_a_coloop_leaves_no_replacement():
    # the triangle p, q, r plus the bridge c; tau = a hangs off the far end
    m = GraphicMatroid([("a", 4, 5), ("p", 1, 2), ("q", 2, 3), ("r", 3, 1), ("c", 3, 4)])
    weights = {"a": 10, "p": 5, "q": 4, "r": 3, "c": 2}
    bids = {"a": 1, "p": 1, "q": 1, "r": 1, "c": 9}
    inst = Instance(m, weights, bids, bids, 10)
    out = run_matroid_mechanism(inst)
    assert [(s.removed, s.chosen, s.value) for s in out.trace] == [
        ("c", ("c", "p", "q"), 11),
        (None, ("p", "q"), 9),
    ]
    assert_trace_matches_recomputation(inst, out)


def test_repair_breaks_weight_ties_by_id():
    # x, y and z tie at weight 3 and are listed in reverse id order; after a
    # is removed the replacement must be y, the smallest id not yet chosen
    m = UniformMatroid(["t", "z", "y", "x", "a"], 2)
    weights = {"t": 9, "a": 5, "x": 3, "y": 3, "z": 3}
    bids = {"t": 1, "a": 9, "x": 1, "y": 1, "z": 1}
    inst = Instance(m, weights, bids, bids, 5)
    out = run_matroid_mechanism(inst)
    assert [(s.removed, s.chosen, s.value) for s in out.trace] == [
        ("a", ("a", "x"), 8),
        (None, ("x", "y"), 6),
    ]
    assert_trace_matches_recomputation(inst, out)


def test_first_price_greedy_is_manipulable():
    # raising the bid raises the payment while still winning: the control
    # mechanism must exhibit a strict utility gain somewhere
    inst = uniform_instance({"a": 5, "b": 4}, {"a": 2, "b": 2}, 10)
    honest = first_price_greedy(inst)
    assert "a" in honest.allocation
    u_honest = utility(inst, honest, "a")
    lying = inst.with_bid("a", mpq(8))
    out_lying = first_price_greedy(lying)
    assert "a" in out_lying.allocation
    assert utility(lying, out_lying, "a") > u_honest


def test_with_bid_matches_instance_built_from_scratch():
    cfg = GeneratorConfig(count=6, seed=5, n_range=(3, 7))
    for index in range(6):
        inst = gen_matroid_instance(cfg, index)
        before = dict(inst.bids)
        for e in sorted(inst.ground):
            for bid in (mpq(1, 3), inst.bids[e] * 2, inst.budget + 1):
                fresh = Instance(inst.structure, inst.weights, inst.true_costs,
                                 {**inst.bids, e: bid}, inst.budget)
                deviated = inst.with_bid(e, bid)
                assert deviated.bids == fresh.bids
                assert run_matroid_mechanism(deviated) == run_matroid_mechanism(fresh)
        assert inst.bids == before


def test_with_bid_rejects_what_the_constructor_rejects():
    inst = uniform_instance({"a": 5, "b": 4}, {"a": 2, "b": 2}, 10)
    for e, bid in (("a", 0), ("b", mpq(-1, 2)), ("zz", 3), ("zz", 0)):
        with pytest.raises(InputError) as fresh:
            Instance(inst.structure, inst.weights, inst.true_costs,
                     {**inst.bids, e: bid}, inst.budget)
        with pytest.raises(InputError) as copied:
            inst.with_bid(e, bid)
        assert str(copied.value) == str(fresh.value)


# The removal loop runs on integer keys over a bid-free plan; the reference
# below is the loop in plain rationals that it replaced, with every candidate
# set recomputed from scratch.


def reference_mechanism(inst, select):
    """The threshold mechanism in rational arithmetic; ``select(excluded)``
    is the candidate set on the ground set minus ``excluded``."""

    def step(iteration, rate, removed, chosen, value):
        # rate p/q and value a/b: key p, weight a, scales (b, q * b)
        p, q = (None, 1) if rate is None else (rate.numerator, rate.denominator)
        b = value.denominator
        return TraceStep(iteration, removed, p, chosen, value.numerator, (b, q * b))

    weights, budget = inst.weights, inst.budget
    tau = max(sorted(inst.ground), key=weights.__getitem__)
    bb = {e: inst.bids[e] / weights[e] for e in inst.ground if e != tau}
    others = sorted(sorted(bb), key=bb.__getitem__, reverse=True)
    excluded = {tau}
    chosen = select(excluded)
    value = set_weight(weights, chosen)
    trace = []
    i = 1
    while True:
        if i > len(others):
            trace.append(step(i, None, None, sorted(chosen), value))
            break
        rate_i = bb[others[i - 1]]
        if value * rate_i > budget:
            trace.append(step(i, rate_i, others[i - 1], sorted(chosen), value))
            excluded.add(others[i - 1])
            chosen = select(excluded)
            value = set_weight(weights, chosen)
            i += 1
        else:
            trace.append(step(i, rate_i, None, sorted(chosen), value))
            break
    bb_prev = None if i == 1 else bb[others[i - 2]]
    if value > 0:
        rate = budget / value if bb_prev is None else min(budget / value, bb_prev)
    else:
        rate = bb_prev
    if value > weights[tau]:
        branch, allocation = "set", frozenset(chosen)
        payments = {e: rate * weights[e] for e in chosen}
    else:
        branch, allocation, payments = "tau", frozenset([tau]), {tau: budget}
    return Outcome(allocation=allocation, payments=payments, tau=tau, branch=branch,
                   final_rate=rate, trace=tuple(trace), budget=budget)


@st.composite
def priced(draw, structure):
    """Instance on ``structure`` with rational weights, bids and budget over
    mixed denominators; bids often share a buck-per-bang level (ties) and
    often exceed the budget."""
    weights = {e: draw(RATIONALS) for e in structure.ground}
    levels = draw(st.lists(RATIONALS, min_size=1, max_size=2))
    bids = {
        e: draw(st.one_of(RATIONALS, st.sampled_from(levels).map(lambda r, w=w: r * w)))
        for e, w in weights.items()
    }
    budget = draw(st.builds(mpq, st.integers(1, 40), st.sampled_from((1, 2, 5))))
    return Instance(structure, weights, bids, bids, budget)


@pytest.mark.parametrize("kind", MATROID_KINDS)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_integer_loop_matches_rational_loop_on_matroids(kind, data):
    inst = data.draw(priced(data.draw(matroids(kind))))
    expected = reference_mechanism(
        inst,
        lambda excluded: max_weight_independent_set(inst.structure.delete(excluded),
                                                    inst.weights),
    )
    assert run_matroid_mechanism(inst) == expected


@pytest.mark.parametrize("apx", ("exact-bipartite", "greedy"))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_integer_loop_matches_rational_loop_on_intersections(apx, data):
    specs = bipartite_specs() if apx == "exact-bipartite" else st.one_of(
        bipartite_specs(), mixed_specs())
    inst = data.draw(priced(data.draw(specs)))
    blackbox = get_blackbox(apx, inst.structure)
    expected = reference_mechanism(
        inst, lambda excluded: blackbox(inst.structure.delete(excluded), inst.weights))
    calls = []

    def counted(spec, weights, excluded):
        calls.append(frozenset(excluded))
        return blackbox.procedure(spec, weights, excluded)

    out = run_intersection_mechanism(inst, ApxBlackbox(blackbox.name, blackbox.alpha, counted))
    assert out == expected
    # asked at tau and again only when an element of the current set leaves
    assert len(calls) == 1 + sum(step.removed in step.chosen for step in out.trace
                                 if step.removed is not None)


def test_instance_keeps_rationals_and_checks_signs_on_numerators():
    w, half = mpq(7, 3), mpq(1, 2)
    inst = Instance(UniformMatroid(["a", "b"], 1), {"a": w, "b": 2}, {"a": half, "b": 1},
                    {"a": half, "b": 1}, mpq(5, 2))
    assert inst.weights["a"] is w and inst.bids["a"] is half
    assert inst.weights["b"] == 2 and type(inst.weights["b"]) is type(w)
    for field, bad in (("weights", mpq(-1, 3)), ("true_costs", 0), ("bids", mpq(0))):
        vectors = {"weights": {"a": 1, "b": 1}, "true_costs": {"a": 1, "b": 1},
                   "bids": {"a": 1, "b": 1}}
        vectors[field]["b"] = bad
        with pytest.raises(InputError, match=rf"^{field}\[b\] must be positive$"):
            Instance(inst.structure, vectors["weights"], vectors["true_costs"],
                     vectors["bids"], 3)
    with pytest.raises(InputError, match="^budget must be positive$"):
        Instance(inst.structure, {"a": 1, "b": 1}, {"a": 1, "b": 1}, {"a": 1, "b": 1},
                 mpq(-3, 4))


def deviation_bids(inst, e, fresh):
    """Bids for ``e`` that probe the one-bid table: every anchor of
    ``truthful_deviation_bids`` (each other element's buck-per-bang times
    ``w_e``, so exact ties with lower and higher ids, and their neighbours),
    and each bid that puts ``e``'s own budget test at equality on a
    candidate set of the chain it is tested on."""
    bids = set(truthful_deviation_bids(inst, e, fresh(inst), random.Random(0), 0))
    w_e, budget = inst.weights[e], inst.budget
    # bidding near 0 puts e last, so the run walks the sets e can be tested on
    low = fresh(inst.with_bid(e, mpq(1, 10**9)))
    bids.update(budget * w_e / step.value for step in low.trace if step.value > 0)
    bids.add(budget * 3)  # above the budget: e is removed first
    return sorted(bids - {inst.bids[e]})


@pytest.mark.parametrize("mechanism, kind", [("matroid", kind) for kind in MATROID_KINDS]
                         + [("intersection-exact", None), ("intersection-greedy", None)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_bid_answers_match_fresh_runs(mechanism, kind, data):
    if mechanism == "matroid":
        structure = data.draw(matroids(kind))
        run, fresh = "run_matroid_mechanism", run_matroid_mechanism
    else:
        structure = data.draw(bipartite_specs() if mechanism == "intersection-exact"
                              else st.one_of(bipartite_specs(), mixed_specs()))
        blackbox = get_blackbox(BLACKBOX_OF[mechanism], structure)
        run = "run_intersection_mechanism"

        def fresh(i):
            return run_intersection_mechanism(i, blackbox)
    inst = data.draw(priced(structure))
    full_runs = []
    full = getattr(verify, run)

    def counted(*args):
        full_runs.append(1)
        return full(*args)

    with patch.object(verify, run, counted):
        for budget in (inst.budget, inst.budget * 2):  # a base lasts the runner's life
            runner = make_runner(mechanism, inst)
            base = Instance(structure, inst.weights, inst.true_costs, inst.bids, budget)
            assert runner(base) == fresh(base)
            assert len(full_runs) == 1
            again = Instance(structure, inst.weights, inst.true_costs, dict(inst.bids), budget)
            assert runner(again) == fresh(again)  # no bid moved: the base's outcome
            assert len(full_runs) == 1
            for e in sorted(inst.ground):  # tau too: its bid is never read
                for d in deviation_bids(base, e, fresh):
                    deviated = base.with_bid(e, d)
                    assert runner(deviated) == fresh(deviated)
            assert len(full_runs) == 1  # every one-bid call came from the chains
            two = base
            tau = fresh(base).tau
            others = [e for e in sorted(inst.ground) if e != tau][:2]
            for e in others:  # moving two bids other than tau's runs in full
                two = two.with_bid(e, two.bids[e] + 1)
            assert runner(two) == fresh(two)
            assert len(full_runs) == max(1, len(others))
            full_runs.clear()


@pytest.mark.parametrize("mechanism, kind", [("matroid", kind) for kind in MATROID_KINDS]
                         + [("intersection-exact", None), ("intersection-greedy", None)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_moved_bid_hints_give_full_run_outcomes(mechanism, kind, data):
    """``with_bid`` hands the runner which bid moved and from which bids
    mapping.  The hint is trusted only on the mapping the runner last found
    equal to its base, so every call below gives the full run's outcome,
    with full runs counted as in ``test_one_bid_answers_match_fresh_runs``."""
    if mechanism == "matroid":
        structure = data.draw(matroids(kind))
        run, fresh = "run_matroid_mechanism", run_matroid_mechanism
    else:
        structure = data.draw(bipartite_specs() if mechanism == "intersection-exact"
                              else st.one_of(bipartite_specs(), mixed_specs()))
        blackbox = get_blackbox(BLACKBOX_OF[mechanism], structure)
        run = "run_intersection_mechanism"

        def fresh(i):
            return run_intersection_mechanism(i, blackbox)
    base = data.draw(priced(structure))
    ids = sorted(base.ground)
    with pytest.raises(TypeError):
        base.bids[ids[0]] = mpq(1)
    assert base.origin is None
    full_runs = []
    full = getattr(verify, run)

    def counted(*args):
        full_runs.append(1)
        return full(*args)

    def check(inst, runs):
        assert runner(inst) == fresh(inst)
        assert len(full_runs) == runs

    with patch.object(verify, run, counted):
        runner = make_runner(mechanism, base)
        check(base, 1)
        tau = fresh(base).tau
        others = [e for e in ids if e != tau]
        # a deviation of tau: its bid is never read, so the base outcome
        moved_tau = base.with_bid(tau, base.bids[tau] * 2)
        assert moved_tau.origin[0] is base.bids and moved_tau.origin[1] == tau
        check(moved_tau, 1)
        if not others:
            return
        e = data.draw(st.sampled_from(others))
        bids = data.draw(st.lists(RATIONALS, min_size=2, max_size=2))
        # a chain of two with_bid calls from the base: the second hint names
        # a mapping the runner never saw, so it scans every bid
        twice = base.with_bid(e, bids[0]).with_bid(e, bids[1])
        check(twice, 1)
        check(base.with_bid(e, bids[0]).with_bid(e, base.bids[e]), 1)
        if len(others) > 1:
            f = data.draw(st.sampled_from([o for o in others if o != e]))
            check(base.with_bid(e, base.bids[e] * 2).with_bid(f, base.bids[f] * 2), 2)
            # the runner has seen the first link, one bid off its base
            once = base.with_bid(e, base.bids[e] * 3)
            check(once, 2)
            check(once.with_bid(f, base.bids[f] * 3), 3)
        full_runs.clear()
        # equal bids in a fresh mapping: deviated before the runner sees it
        # (a scan), then seen (its scan finds no bid moved), then deviated,
        # each deviation's hint trusted with no scan
        again = Instance(structure, base.weights, base.true_costs, dict(base.bids),
                         base.budget)
        scans = []
        scan = mechanisms.moved
        with patch.object(mechanisms, "moved", lambda *args: scans.append(1) or scan(*args)):
            check(again.with_bid(e, bids[0]), 0)
            check(again, 0)
            assert len(scans) == 2
            for d in deviation_bids(again, e, fresh):
                check(again.with_bid(e, d), 0)
            assert len(scans) == 2
        if len(others) < 2:
            return
        # a hint whose mapping belongs to another runner's base, one bid off
        # this runner's: trusting it would read one moved bid where two moved
        f = data.draw(st.sampled_from([o for o in others if o != e]))
        other = Instance(structure, base.weights, base.true_costs,
                         {**base.bids, f: base.bids[f] * 2}, base.budget)
        make_runner(mechanism, other)(other)
        assert len(full_runs) == 1
        check(other.with_bid(e, base.bids[e] * 3), 2)
        check(other.with_bid(f, base.bids[f]), 2)  # back to the base's bids


def dataclass_built(outcome):
    """``outcome`` rebuilt by its dataclass's own ``__init__``."""
    return type(outcome)(**{f.name: getattr(outcome, f.name) for f in fields(outcome)})


def assert_built_like_a_dataclass(outcome):
    """``outcome`` equals its ``dataclass_built`` copy both ways, with the
    same ``repr`` and the same fields, and stays frozen."""
    reference = dataclass_built(outcome)
    assert outcome == reference and reference == outcome
    assert repr(outcome) == repr(reference)
    assert vars(outcome) == vars(reference)
    for name in ("allocation", "payments", "budget"):
        with pytest.raises(FrozenInstanceError):
            setattr(outcome, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(outcome, name)


@pytest.mark.parametrize("mechanism", ["matroid", "intersection-exact", "intersection-greedy"])
def test_one_step_outcomes_match_dataclass_built_ones(mechanism):
    """Threshold outcomes, full runs and one-bid answers alike, are built in
    one step (``mechanisms.frozen``), and are what the dataclass builds."""
    cfg = GeneratorConfig(count=4, seed=7, n_range=(3, 8))
    gen = gen_matroid_instance if mechanism == "matroid" else gen_bipartite_instance
    answers = 0
    for index in range(4):
        inst = gen(cfg, index)
        runner = make_runner(mechanism, inst)
        truthful = runner(inst)
        assert_built_like_a_dataclass(truthful)
        for e in sorted(inst.ground):
            for d in truthful_deviation_bids(inst, e, truthful, random.Random(index), 6):
                assert_built_like_a_dataclass(runner(inst.with_bid(e, d)))
                answers += 1
    assert answers >= 100


def test_one_bid_answers_with_integer_ids_match_fresh_runs():
    """The one-bid bisect needs no string ids.  Element 2 has
    buck-per-bang 3; bidding 3 ties it exactly, and bidding 3 + 10^-9 lands
    strictly between two integer keys, so the bisect's floor equals 2's key
    with a nonzero remainder: the case that places 1 before every equal key
    without reading an id."""
    structure = UniformMatroid([3, 1, 2], 2)
    inst = Instance(structure, {1: 1, 2: 1, 3: 2}, {1: 2, 2: 3, 3: 4},
                    {1: 2, 2: 3, 3: 4}, 10)
    runner = make_runner("matroid", inst)
    assert runner(inst) == run_matroid_mechanism(inst)
    for d in (mpq(3), mpq(3) + mpq(1, 10**9), mpq(3) - mpq(1, 10**9)):
        deviated = inst.with_bid(1, d)
        assert runner(deviated) == run_matroid_mechanism(deviated)


def test_one_bid_reads_one_moved_bid_off_its_first_call():
    """``OneBid`` with counting hooks: its first call is the base for life,
    a call that moves one bid of its ids is a read off that element's entry,
    the whole table built once at the first such call, and any other call
    runs in full, keeping its last answer."""
    built, reads, fulls = [], [], []

    def table(level, bids):
        built.append(level)
        return {e: (e, level, bids) for e in bids}

    def read(entry, level, bid, base_bid):
        reads.append((entry[0], level, bid, base_bid))
        return "read", entry[0], bid

    def full(answer):
        def run():
            fulls.append(answer)
            return answer
        return run

    one = OneBid(["a", "b", "c"], table, read)
    level = mpq(10)
    base = {"a": mpq(1), "b": mpq(2), "c": mpq(3), "x": mpq(9)}
    assert one(base, level, full("base")) == "base"
    assert fulls == ["base"]
    # x is not one of the ids, and an equal bid or level in a new object has not moved
    assert one({**base, "a": mpq(2, 2), "x": mpq(1)}, mpq(10), full("unused")) == "base"
    assert fulls == ["base"] and built == []
    for e, bid in (("b", mpq(5)), ("b", mpq(7)), ("c", mpq(1))):
        assert one({**base, e: bid}, level, full("unused")) == ("read", e, bid)
    assert built == [level] and fulls == ["base"]
    assert reads == [("b", level, mpq(5), mpq(2)), ("b", level, mpq(7), mpq(2)),
                     ("c", level, mpq(1), mpq(3))]
    assert one.entries() == {e: (e, level, {"a": 1, "b": 2, "c": 3}) for e in "abc"}
    assert one({**base, "a": mpq(4), "b": mpq(5)}, level, full("two")) == "two"
    assert fulls == ["base", "two"]
    # another level runs in full, and an identical repeat gets the last answer
    assert one(base, mpq(20), full("other")) == "other"
    assert one(dict(base), mpq(20), full("unused")) == "other"
    assert fulls == ["base", "two", "other"]
    # the base has not moved: a one-bid call at its level is still a read
    assert one({**base, "a": mpq(3)}, level, full("unused")) == ("read", "a", mpq(3))
    assert fulls == ["base", "two", "other"] and built == [level]
