"""Matroid families: oracles, deletion, greedy optimality."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budgetmech import (
    DeadlineMatroid,
    ExplicitMatroid,
    FreeMatroid,
    GraphicMatroid,
    InputError,
    PartitionMatroid,
    UniformMatroid,
    matroid_from_json,
    max_weight_independent_set,
    set_weight,
)
from budgetmech.oracle import brute_force_max, enumerate_independent_sets
from budgetmech.rationals import mpq
from conftest import MATROID_KINDS, matroids, mixed_specs


def triangle():
    return GraphicMatroid([("e1", "u", "v"), ("e2", "v", "w"), ("e3", "w", "u")])


def sample_matroids():
    return [
        UniformMatroid(["a", "b", "c"], 2),
        FreeMatroid(["a", "b", "c"]),
        PartitionMatroid(["a", "b", "c", "d"], [({"a", "b"}, 1), ({"c", "d"}, 2)]),
        triangle(),
        DeadlineMatroid(["j1", "j2", "j3"], {"j1": 1, "j2": 1, "j3": 2}),
    ]


def test_uniform_oracle():
    m = UniformMatroid(["a", "b", "c"], 2)
    assert m.is_independent({"a", "b"})
    assert not m.is_independent({"a", "b", "c"})
    assert m.is_independent(set())


def test_unknown_element_rejected():
    m = UniformMatroid(["a", "b"], 1)
    with pytest.raises(InputError):
        m.is_independent({"z"})
    with pytest.raises(InputError):
        m.delete({"z"})


def test_graphic_cycle_detected():
    m = triangle()
    assert not m.is_independent({"e1", "e2", "e3"})
    assert m.is_independent({"e1", "e2"})
    loop = GraphicMatroid([("e", "u", "u")])
    assert not loop.is_independent({"e"})


def test_deadline_prefix_rule():
    m = DeadlineMatroid(["j1", "j2", "j3"], {"j1": 1, "j2": 1, "j3": 2})
    # two deadline-1 jobs cannot both run in the first slot
    assert not m.is_independent({"j1", "j2"})
    assert m.is_independent({"j1", "j3"})
    assert not m.is_independent({"j1", "j2", "j3"})


def test_free_is_full_rank_uniform():
    free = FreeMatroid(["a", "b", "c"])
    uni = UniformMatroid(["a", "b", "c"], 3)
    for r in range(4):
        for s in itertools.combinations("abc", r):
            assert free.is_independent(set(s)) == uni.is_independent(set(s))


def test_free_is_a_uniform_matroid_that_stays_free():
    """A free matroid counts room as a uniform one does, and deleting from
    it keeps its kind and its wire format, so it never turns uniform."""
    free = FreeMatroid(["c", "a", "b"])
    assert isinstance(free, UniformMatroid) and free.rank == 3
    assert free.to_json() == {"kind": "free"}
    for t in ({"a"}, {"a", "b", "c"}, set()):
        deleted = free.delete(t)
        assert type(deleted) is FreeMatroid and deleted.kind == "free"
        assert deleted.rank == 3 - len(t) and deleted.to_json() == {"kind": "free"}
        assert matroid_from_json(deleted.to_json(), list(deleted.ground)).kind == "free"
    kept = UniformMatroid(["a", "b", "c"], 3).delete({"a"})
    assert type(kept) is UniformMatroid and kept.to_json() == {"kind": "uniform", "rank": 3}


def test_partition_invariants_enforced():
    with pytest.raises(InputError):
        PartitionMatroid(["a", "b"], [({"a"}, 1)])  # does not cover
    with pytest.raises(InputError):
        PartitionMatroid(["a", "b"], [({"a", "b"}, 1), ({"b"}, 1)])  # overlap


def test_deadline_validation():
    with pytest.raises(InputError):
        DeadlineMatroid(["a"], {"a": 0})
    with pytest.raises(InputError):
        DeadlineMatroid(["a"], {"b": 1})


def test_delete_examples():
    m = UniformMatroid(["a", "b", "c"], 2)
    assert m.delete(set()).ground == m.ground
    d = m.delete({"a"})
    assert set(d.ground) == {"b", "c"}
    independents = {s for s in enumerate_independent_sets(d)}
    assert independents == {frozenset(), frozenset("b"), frozenset("c"), frozenset("bc")}
    path = triangle().delete({"e3"})
    assert path.is_independent({"e1", "e2"})


@pytest.mark.parametrize("m", sample_matroids(), ids=lambda m: m.kind)
def test_axioms_exhaustively(m):
    independents = set(enumerate_independent_sets(m))
    assert frozenset() in independents
    for s in independents:
        for e in s:
            assert s - {e} in independents, "hereditary property failed"
    for a in independents:
        for b in independents:
            if len(a) < len(b):
                assert any(a | {e} in independents for e in b - a), "exchange failed"


@pytest.mark.parametrize("m", sample_matroids(), ids=lambda m: m.kind)
def test_delete_consistency(m):
    ground = list(m.ground)
    for r in range(len(ground) + 1):
        for t in itertools.combinations(ground, r):
            deleted = m.delete(set(t))
            rest = [e for e in ground if e not in t]
            for k in range(len(rest) + 1):
                for s in itertools.combinations(rest, k):
                    assert deleted.is_independent(set(s)) == m.is_independent(set(s))


def test_greedy_examples():
    m = UniformMatroid(["a", "b", "c"], 2)
    w = {"a": mpq(6), "b": mpq(5), "c": mpq(4)}
    best = max_weight_independent_set(m, w)
    assert best == {"a", "b"} and set_weight(w, best) == 11

    wt = {"e1": mpq(3), "e2": mpq(2), "e3": mpq(1)}
    best = max_weight_independent_set(triangle(), wt)
    assert best == {"e1", "e2"} and set_weight(wt, best) == 5

    assert max_weight_independent_set(UniformMatroid([], 0), {}) == frozenset()


def test_greedy_deterministic_on_ties():
    m = UniformMatroid(["b", "a", "c"], 1)
    w = {"a": mpq(5), "b": mpq(5), "c": mpq(5)}
    assert max_weight_independent_set(m, w) == {"a"}


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=7),
    kind=st.sampled_from(["uniform", "partition", "graphic", "deadline", "free"]),
)
def test_greedy_matches_brute_force(data, n, kind):
    ids = [f"x{j}" for j in range(n)]
    if kind == "uniform":
        m = UniformMatroid(ids, data.draw(st.integers(0, n)))
    elif kind == "free":
        m = FreeMatroid(ids)
    elif kind == "partition":
        cut = data.draw(st.integers(1, n))
        left, right = set(ids[:cut]), set(ids[cut:])
        blocks = [(left, data.draw(st.integers(1, max(1, len(left))))), ]
        if right:
            blocks.append((right, data.draw(st.integers(1, len(right)))))
        m = PartitionMatroid(ids, blocks)
    elif kind == "graphic":
        nv = max(2, n // 2 + 1)
        edges = []
        for e in ids:
            u = data.draw(st.integers(0, nv - 1))
            v = data.draw(st.integers(0, nv - 2))
            if v >= u:
                v += 1
            edges.append((e, u, v))
        m = GraphicMatroid(edges)
    else:
        m = DeadlineMatroid(ids, {e: data.draw(st.integers(1, n)) for e in ids})
    w = {e: mpq(data.draw(st.integers(1, 12))) for e in ids}
    greedy = max_weight_independent_set(m, w)
    brute = brute_force_max(m, w)
    assert set_weight(w, greedy) == set_weight(w, brute)
    assert greedy == brute  # identical under the shared tie-break rule


def test_explicit_matroid_validates_axioms():
    ExplicitMatroid(["a", "b"], [["a"], ["b"]])
    with pytest.raises(InputError):
        ExplicitMatroid(["a", "b"], [["a", "b"]])  # missing singletons: not hereditary
    with pytest.raises(InputError):
        # {a,b} and {c} independent but {c} cannot be extended: exchange fails
        ExplicitMatroid(["a", "b", "c"], [["a"], ["b"], ["c"], ["a", "b"]])


def test_json_round_trip():
    for m in sample_matroids() + [ExplicitMatroid(["a", "b"], [["a"], ["b"]])]:
        doc = m.to_json()
        again = matroid_from_json(doc, list(m.ground))
        assert again.to_json() == doc
        assert tuple(again.ground) == tuple(m.ground)


def _draw_matroid(data, kind, ids):
    """A small matroid of ``kind`` over ``ids``, with the corner cases common:
    rank 0, capacity 0, self-loops and parallel edges, deadlines past n."""
    n = len(ids)
    if kind == "uniform":
        return UniformMatroid(ids, data.draw(st.integers(0, n)))
    if kind == "free":
        return FreeMatroid(ids)
    if kind == "partition":
        block = {e: data.draw(st.integers(0, 2)) for e in ids}
        members = [{e for e in ids if block[e] == b} for b in range(3)]
        return PartitionMatroid(
            ids, [(s, data.draw(st.integers(0, len(s)))) for s in members if s]
        )
    if kind == "graphic":
        # three vertices, so parallel edges and self-loops are common
        return GraphicMatroid(
            [(e, data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))) for e in ids]
        )
    if kind == "deadline":
        return DeadlineMatroid(ids, {e: data.draw(st.integers(1, n + 1)) for e in ids})
    base = _draw_matroid(
        data, data.draw(st.sampled_from(["uniform", "partition", "graphic", "deadline"])), ids
    )
    return ExplicitMatroid(ids, enumerate_independent_sets(base))


@settings(max_examples=400, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=0, max_value=7),
    kind=st.sampled_from(["uniform", "free", "partition", "graphic", "deadline", "explicit"]),
)
def test_extender_matches_the_oracle(data, n, kind):
    """Second route for ``extender``: grown from a random independent start
    along a random order, it must answer every ``fits`` exactly like the
    whole-set oracle ``_independent``."""
    ids = [f"x{j}" for j in range(n)]
    m = _draw_matroid(data, kind, ids)
    members = set()
    for e in data.draw(st.lists(st.sampled_from(ids), unique=True)) if ids else []:
        if m._independent(frozenset(members | {e})):
            members.add(e)
    grow = m.extender(frozenset(members)) if members else m.extender()
    for e in data.draw(st.permutations(ids)):
        if e in members:
            continue
        for f in ids:
            if f not in members:
                assert grow.fits(f) == m._independent(frozenset(members | {f})), (f, members)
        if grow.fits(e):
            grow.add(e)
            members.add(e)


@settings(max_examples=300, deadline=None)
@given(structure=st.one_of(*(matroids(kind, loops=True) for kind in MATROID_KINDS),
                           mixed_specs(loops=True)))
def test_loops_match_the_oracle_on_single_elements(structure):
    """Second route for ``loops``, read off each description: an element is
    a loop iff the oracle rejects it alone."""
    assert structure.loops() == tuple(e for e in structure.ground
                                      if not structure.is_independent({e}))


def _draw_graph(data, ids):
    """Edges on three to six vertices: several trees, self-loops, parallel edges,
    and cuts with more than one vertex on each side all in reach."""
    ends = st.integers(0, data.draw(st.integers(2, 5)))
    return GraphicMatroid([(e, data.draw(ends), data.draw(ends)) for e in ids])


@settings(max_examples=400, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["uniform", "free", "partition", "graphic", "deadline", "explicit"]),
)
def test_exchange_matches_the_oracle(data, kind):
    """Second route for ``exchange``, driven as the repair drives it: ``S``
    starts as the greedy basis, along a drawn scan order, of the ground minus
    a drawn excluded set.  Elements then leave in a drawn order; a member of
    ``S`` leaves by ``remove``, followed by ``add`` of the first element in
    scan order that fits.  After each ``remove`` every ``fits`` must answer
    like the whole-set oracle ``_independent``."""
    n = data.draw(st.integers(0, 10 if kind == "graphic" else 7))
    ids = [f"x{j}" for j in range(n)]
    m = _draw_graph(data, ids) if kind == "graphic" else _draw_matroid(data, kind, ids)
    excluded = set(data.draw(st.sets(st.sampled_from(ids), max_size=n // 2))) if ids else set()
    scan = data.draw(st.permutations(ids))
    members = set()
    for e in scan:
        if e not in excluded and m._independent(frozenset(members | {e})):
            members.add(e)
    basis = m.exchange(frozenset(members))
    for x in data.draw(st.permutations(ids)):
        if x in excluded:
            continue
        excluded.add(x)
        if x not in members:
            continue
        basis.remove(x)
        members.remove(x)
        candidates = [f for f in scan if f not in members and f not in excluded]
        for f in candidates:
            assert basis.fits(f) == m._independent(frozenset(members | {f})), (x, f, members)
        fitting = [f for f in candidates if basis.fits(f)]
        if fitting:
            basis.add(fitting[0])
            members.add(fitting[0])
