"""The two procurement mechanisms: hand traces, invariants, edge cases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budgetmech import (
    DeadlineMatroid,
    ExplicitMatroid,
    FreeMatroid,
    GraphicMatroid,
    InputError,
    Instance,
    IntersectionSpec,
    PartitionMatroid,
    UniformMatroid,
    first_price_greedy,
    get_blackbox,
    max_weight_independent_set,
    run_intersection_mechanism,
    run_matroid_mechanism,
    set_weight,
    utility,
)
from budgetmech.oracle import enumerate_independent_sets
from budgetmech.rationals import mpq
from budgetmech.verify import (
    GeneratorConfig,
    check_outcome_invariants,
    gen_matroid_instance,
    make_runner,
)


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
    cfg = GeneratorConfig(count=10, seed=6)
    inst = gen_matroid_instance(cfg, 3)
    cached = make_runner("matroid", inst)
    plain = run_matroid_mechanism(inst)
    again = cached(inst)
    assert plain.allocation == again.allocation and plain.payments == again.payments


MATROID_KINDS = ("uniform", "free", "partition", "graphic", "deadline", "explicit")


@st.composite
def matroids(draw, kind):
    """Small matroid of ``kind`` over ids listed out of id order, with loops
    (rank 0, capacity 0, self-loops) and parallel edges in reach."""
    n = draw(st.integers(1, 8))
    ids = [f"x{j}" for j in range(n)][::-1]
    if kind == "uniform":
        return UniformMatroid(ids, draw(st.integers(0, n)))
    if kind == "free":
        return FreeMatroid(ids)
    if kind == "partition":
        labels = [draw(st.integers(0, 2)) for _ in ids]
        blocks = []
        for label in sorted(set(labels)):
            members = {e for e, b in zip(ids, labels) if b == label}
            blocks.append((members, draw(st.integers(0, len(members)))))
        return PartitionMatroid(ids, blocks)
    if kind == "graphic":
        # three vertices: parallel edges are common, u == v is a self-loop
        ends = st.integers(0, 2)
        return GraphicMatroid([(e, draw(ends), draw(ends)) for e in ids])
    if kind == "deadline":
        return DeadlineMatroid(ids, {e: draw(st.integers(1, n)) for e in ids})
    base = draw(matroids(draw(st.sampled_from(MATROID_KINDS[:-1]))))
    return ExplicitMatroid(base.ground, enumerate_independent_sets(base))


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
