"""Matroid intersections and the two approximation blackboxes."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budgetmech import (
    InputError,
    IntersectionSpec,
    PartitionMatroid,
    UniformMatroid,
    exact_bipartite_matching,
    get_blackbox,
    greedy_common_independent,
    set_weight,
)
from budgetmech.intersection import _check_dual_certificate
from budgetmech.matroids import weight_order
from budgetmech.oracle import brute_force_max
from budgetmech.rationals import mpq
from budgetmech.verify import GeneratorConfig, gen_bipartite_instance
from conftest import RATIONALS, bipartite_specs, mixed_specs


def bipartite(edges):
    """edges: {id: (left, right)} -> IntersectionSpec of two capacity-1 partitions."""
    ids = sorted(edges)
    by_left, by_right = {}, {}
    for e, (l, r) in edges.items():
        by_left.setdefault(l, set()).add(e)
        by_right.setdefault(r, set()).add(e)
    return IntersectionSpec(
        [
            PartitionMatroid(ids, [(s, 1) for s in by_left.values()]),
            PartitionMatroid(ids, [(s, 1) for s in by_right.values()]),
        ]
    )


def square():
    return bipartite(
        {"e11": (1, 1), "e12": (1, 2), "e21": (2, 1), "e22": (2, 2)}
    )


def test_spec_validation():
    with pytest.raises(InputError):
        IntersectionSpec([UniformMatroid(["a"], 1)])
    with pytest.raises(InputError):
        IntersectionSpec([UniformMatroid(["a"], 1), UniformMatroid(["b"], 1)])


def test_common_independence():
    spec = square()
    assert spec.is_independent({"e12", "e21"})
    assert not spec.is_independent({"e11", "e12"})  # shares left vertex


def test_matching_single_edge():
    spec = bipartite({"e": (1, 1)})
    assert exact_bipartite_matching(spec, {"e": mpq(5)}) == {"e"}


def test_matching_conflict_keeps_heavier():
    spec = bipartite({"e1": (1, 1), "e2": (2, 1)})
    assert exact_bipartite_matching(spec, {"e1": mpq(3), "e2": mpq(2)}) == {"e1"}


def test_matching_2x2():
    w = {"e11": mpq(4), "e12": mpq(3), "e21": mpq(3), "e22": mpq(1)}
    best = exact_bipartite_matching(square(), w)
    assert best == {"e12", "e21"} and set_weight(w, best) == 6


def test_matching_tie_break_lexicographic():
    # path u-v-w: both single-edge matchings weigh 2; smallest id set wins
    spec = bipartite({"e_uv": ("u", "v"), "e_vw": ("w", "v")})
    w = {"e_uv": mpq(2), "e_vw": mpq(2)}
    assert exact_bipartite_matching(spec, w) == {"e_uv"}
    # parallel edges with equal weight: keep the smaller id
    spec2 = bipartite({"p1": (1, 1), "p2": (1, 1)})
    assert exact_bipartite_matching(spec2, {"p1": mpq(3), "p2": mpq(3)}) == {"p1"}


def test_matching_shape_errors():
    not_bipartite = IntersectionSpec(
        [UniformMatroid(["a", "b"], 1), UniformMatroid(["a", "b"], 2)]
    )
    with pytest.raises(InputError):
        exact_bipartite_matching(not_bipartite, {"a": mpq(1), "b": mpq(1)})
    cap2 = IntersectionSpec(
        [
            PartitionMatroid(["a", "b"], [({"a", "b"}, 2)]),
            PartitionMatroid(["a", "b"], [({"a"}, 1), ({"b"}, 1)]),
        ]
    )
    with pytest.raises(InputError):
        exact_bipartite_matching(cap2, {"a": mpq(1), "b": mpq(1)})


def test_greedy_examples():
    spec = IntersectionSpec(
        [UniformMatroid(["a", "b"], 1), UniformMatroid(["a", "b"], 1)]
    )
    assert greedy_common_independent(spec, {"a": mpq(3), "b": mpq(2)}) == {"a"}

    path = bipartite({"e_uv": ("u", "v"), "e_vw": ("w", "v")})
    assert greedy_common_independent(path, {"e_uv": mpq(2), "e_vw": mpq(2)}) == {"e_uv"}

    w = {"e11": mpq(4), "e12": mpq(3), "e21": mpq(3), "e22": mpq(1)}
    greedy = greedy_common_independent(square(), w)
    assert greedy == {"e11", "e22"} and set_weight(w, greedy) == 5  # alpha > 1 visible


def test_blackbox_registry():
    spec = square()
    exact = get_blackbox("exact-bipartite", spec)
    assert exact.alpha == 1
    greedy = get_blackbox("greedy", spec)
    assert greedy.alpha == 2
    with pytest.raises(InputError):
        get_blackbox("nope", spec)
    with pytest.raises(InputError):
        get_blackbox(
            "exact-bipartite",
            IntersectionSpec([UniformMatroid(["a"], 1), UniformMatroid(["a"], 1)]),
        )


def test_blackboxes_against_brute_force():
    """Exact equals the oracle; greedy stays within its certified factor."""
    cfg = GeneratorConfig(count=60, seed=9, n_range=(3, 10))
    for index in range(60):
        inst = gen_bipartite_instance(cfg, index)
        spec, w = inst.structure, inst.weights
        opt_value = set_weight(w, brute_force_max(spec, w))
        exact = exact_bipartite_matching(spec, w)
        assert spec.is_independent(exact)
        assert set_weight(w, exact) == opt_value
        greedy = greedy_common_independent(spec, w)
        assert spec.is_independent(greedy)
        assert set_weight(w, greedy) * spec.k >= opt_value


def _larger_graphs():
    """``(spec, weights)`` on graphs beyond the golden runs' n <= 30: generated
    instances at n = 100 and 200, a 200-leaf star, 200 disjoint edges, a
    199-edge chain and a sparse graph with more left vertices than right.
    The four shapes draw weights from {1, 3/2, 2, 3} and shuffled ids, so
    value ties between differently-ordered edge sets are common."""
    graphs = []
    for n in (100, 200):
        for index, regime in enumerate(("tight", "loose", "tight")):
            config = GeneratorConfig(1, 7, (n, n), budget_regime=regime)
            inst = gen_bipartite_instance(config, index)
            graphs.append((inst.structure, inst.weights))
    rng = random.Random(15)
    shapes = (
        [(0, v) for v in range(200)],
        [(k, k) for k in range(200)],
        [(k // 2 + k % 2, k // 2) for k in range(199)],
        [(rng.randrange(150), rng.randrange(60)) for _ in range(300)],
    )
    levels = (mpq(1), mpq(3, 2), mpq(2), mpq(3))
    for ends in shapes:
        ids = [f"e{k:03d}" for k in range(len(ends))]
        rng.shuffle(ids)
        graphs.append((bipartite(dict(zip(ids, ends))),
                       {e: rng.choice(levels) for e in ids}))
    return graphs


# sha256 of every answer of ``test_larger_graph_answers_are_pinned``, as the
# primal-dual Dijkstra implementation of the blackbox computed them
LARGER_GRAPH_ANSWERS_SHA256 = "a5e2d7e7116b0093518656eb1d48eb9bfc1b39f0ae07e4d1908601dbb233057b"


def test_larger_graph_answers_are_pinned():
    """The exact blackbox's answers, with the heaviest 0, 1, 2, 5, 13 and
    n/3 edges excluded, on every graph of ``_larger_graphs``."""
    answers = []
    for spec, w in _larger_graphs():
        order = weight_order(spec.ground, w)
        for k in (0, 1, 2, 5, 13, len(order) // 3):
            answers.append(sorted(exact_bipartite_matching(spec, w, frozenset(order[:k]))))
    digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
    assert digest == LARGER_GRAPH_ANSWERS_SHA256


# a 2x3 assignment problem: rows 0 and 1 take columns 1 and 0 (weight 6),
# column 2 stays unassigned; potentials (3, 2) and (1, 0, 0) prove it maximum
ENTRY = [[4, 3, 0], [3, 1, 0]]
EDGES = [(0, 0, 4), (0, 1, 3), (1, 0, 3), (1, 1, 1)]
OWNER = [1, 0, None]


def test_dual_certificate_accepts_the_optimum():
    _check_dual_certificate(ENTRY, EDGES, OWNER, [3, 2], [1, 0, 0])
    # a lighter parallel edge under an entry is covered by it
    _check_dual_certificate(ENTRY, EDGES + [(0, 0, 2)], OWNER, [3, 2], [1, 0, 0])


def test_dual_certificate_rejects_a_matrix_that_keeps_the_lighter_parallel_edge():
    # edges 5 and 4 join row 0 and column 0, and the matrix holds 4: the
    # assignment is maximum for the matrix, not for the graph
    with pytest.raises(AssertionError, match="dual certificate failed"):
        _check_dual_certificate(ENTRY, EDGES + [(0, 0, 5)], OWNER, [3, 2], [1, 0, 0])


@pytest.mark.parametrize("owner, y_row, y_col", [
    ([0, 1, None], [3, 2], [1, 0, 0]),  # suboptimal assignment, optimal potentials
    (OWNER, [3, 3], [0, 0, 0]),  # assigned entries tight, entry (0, 0) uncovered
    (OWNER, [3, 2], [1, 0, 1]),  # positive potential on the unassigned column
    ([1, None, None], [3, 2], [1, 0, 0]),  # row 0 left without a column
])
def test_dual_certificate_rejects(owner, y_row, y_col):
    with pytest.raises(AssertionError, match="dual certificate failed"):
        _check_dual_certificate(ENTRY, EDGES, owner, y_row, y_col)


@st.composite
def tie_heavy_bipartite(draw):
    """Small graphs with parallel edges, isolated vertices (empty blocks) and
    unbalanced sides; weights from {1, 2, 3/2}, so value ties are common.
    Also draws a set of edges to delete."""
    n_left = draw(st.integers(1, 4))
    n_right = draw(st.integers(1, 4))
    ends = draw(st.lists(
        st.tuples(st.integers(0, n_left - 1), st.integers(0, n_right - 1)),
        min_size=1, max_size=9,
    ))
    ids = draw(st.permutations([f"e{k}" for k in range(len(ends))]))
    by_left = [set() for _ in range(n_left)]
    by_right = [set() for _ in range(n_right)]
    for e, (l, r) in zip(ids, ends):
        by_left[l].add(e)
        by_right[r].add(e)
    spec = IntersectionSpec([
        PartitionMatroid(ids, [(s, 1) for s in by_left]),
        PartitionMatroid(ids, [(s, 1) for s in by_right]),
    ])
    weights = {e: draw(st.sampled_from([mpq(1), mpq(2), mpq(3, 2)])) for e in ids}
    removed = draw(st.sets(st.sampled_from(ids)))
    return spec, weights, removed


@settings(max_examples=300, deadline=None)
@given(tie_heavy_bipartite())
def test_exact_matching_is_the_oracle_set(case):
    """Set identity, not just value: the lexicographic tie-break among
    value-equal optima is what keeps ``run`` output stable.  Each blackbox
    answers an exclusion set on the base spec with the set it gives on the
    deleted spec."""
    spec, w, removed = case
    deleted = spec.delete(removed)
    for sub in (spec, deleted):
        assert exact_bipartite_matching(sub, w) == brute_force_max(sub, w)
    for blackbox in (exact_bipartite_matching, greedy_common_independent):
        assert blackbox(spec, w, removed) == blackbox(deleted, w)


@pytest.mark.parametrize("apx", ("exact-bipartite", "greedy"))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_excluding_an_unchosen_element_keeps_the_answer(apx, data):
    """The requirement ``ApxBlackbox`` places on every blackbox: for an
    exclusion set X and any x outside bb(X), bb(X | {x}) == bb(X).  Weights
    come from one to three levels, so value ties are the rule."""
    spec = data.draw(bipartite_specs() if apx == "exact-bipartite"
                     else st.one_of(bipartite_specs(), mixed_specs(loops=True)))
    levels = data.draw(st.lists(RATIONALS, min_size=1, max_size=3))
    w = {e: data.draw(st.sampled_from(levels)) for e in spec.ground}
    excluded = data.draw(st.frozensets(st.sampled_from(spec.ground)))
    blackbox = get_blackbox(apx, spec)
    chosen = blackbox(spec, w, excluded)
    for x in set(spec.ground) - excluded - chosen:
        assert blackbox(spec, w, excluded | {x}) == chosen


def test_determinism():
    spec = square()
    w = {"e11": mpq(4), "e12": mpq(3), "e21": mpq(3), "e22": mpq(1)}
    runs = {exact_bipartite_matching(spec, w) for _ in range(5)}
    assert len(runs) == 1
    runs = {greedy_common_independent(spec, w) for _ in range(5)}
    assert len(runs) == 1


def test_delete_preserves_shape():
    spec = square()
    sub = spec.delete({"e11"})
    assert set(sub.ground) == {"e12", "e21", "e22"}
    w = {"e12": mpq(3), "e21": mpq(3), "e22": mpq(1)}
    assert exact_bipartite_matching(sub, w) == {"e12", "e21"}
