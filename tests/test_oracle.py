"""Brute-force oracles: exactness, tie-breaks, caps, self-consistency."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budgetmech import (
    CapExceeded,
    UniformMatroid,
    XosValuation,
    brute_force_max,
    brute_force_opt,
    max_weight_independent_set,
    set_weight,
    xos_opt,
)
from budgetmech.oracle import enumerate_independent_sets
from budgetmech.rationals import mpq
from conftest import MATROID_KINDS, RATIONALS, bipartite_specs, matroids, mixed_specs


def test_zero_budget_buys_nothing():
    m = UniformMatroid(["a", "b"], 2)
    w = {"a": mpq(5), "b": mpq(3)}
    c = {"a": mpq(1), "b": mpq(1)}
    assert brute_force_opt(m, w, c, 0) == frozenset()


def test_spec_example():
    m = UniformMatroid(["a", "b", "c"], 2)
    w = {"a": mpq(6), "b": mpq(5), "c": mpq(4)}
    c = {"a": mpq(6), "b": mpq(2), "c": mpq(2)}
    assert brute_force_opt(m, w, c, 10) == {"a", "b"}


def test_singleton_fallback_bound():
    m = UniformMatroid(["a", "b", "c"], 3)
    w = {"a": mpq(9), "b": mpq(2), "c": mpq(1)}
    c = {"a": mpq(4), "b": mpq(4), "c": mpq(4)}
    opt = brute_force_opt(m, w, c, 4)
    assert set_weight(w, opt) >= max(w.values())


def test_lexicographic_tie_break():
    m = UniformMatroid(["a", "b", "c"], 1)
    w = {"a": mpq(5), "b": mpq(5), "c": mpq(5)}
    c = {e: mpq(1) for e in w}
    assert brute_force_opt(m, w, c, 10) == {"a"}


def test_cap_enforced():
    ids = [f"e{j}" for j in range(23)]
    m = UniformMatroid(ids, 3)
    ones = {e: mpq(1) for e in ids}
    with pytest.raises(CapExceeded):
        brute_force_opt(m, ones, ones, 5)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 7))
def test_budget_monotonicity(data, n):
    ids = [f"x{j}" for j in range(n)]
    m = UniformMatroid(ids, data.draw(st.integers(1, n)))
    w = {e: mpq(data.draw(st.integers(1, 9))) for e in ids}
    c = {e: mpq(data.draw(st.integers(1, 9))) for e in ids}
    budgets = sorted(data.draw(st.integers(0, 40)) for _ in range(3))
    values = [set_weight(w, brute_force_opt(m, w, c, b)) for b in budgets]
    assert values == sorted(values)
    total = sum(c.values())
    assert set_weight(w, brute_force_opt(m, w, c, total)) == set_weight(
        w, brute_force_max(m, w)
    )


def test_unbudgeted_max_equals_greedy():
    m = UniformMatroid(["a", "b", "c", "d"], 2)
    w = {"a": mpq(4), "b": mpq(7), "c": mpq(2), "d": mpq(7)}
    assert brute_force_max(m, w) == max_weight_independent_set(m, w)


def test_xos_opt_manual():
    val = XosValuation(["a", "b"], [{"a": 4, "b": 2}, {"a": 0, "b": 5}])
    costs = {"a": mpq(3), "b": mpq(3)}
    best, value = xos_opt(val, costs, 6)
    assert best == {"a", "b"} and value == 6  # first clause: 4 + 2
    best, value = xos_opt(val, costs, 3)
    assert best == {"b"} and value == 5


def _subsets(ground):
    """Every subset of ``ground`` as a sorted id tuple, by ``combinations``."""
    ids = sorted(ground)
    return [c for r in range(len(ids) + 1) for c in combinations(ids, r)]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), structure=st.one_of(
    *(matroids(kind, loops=True) for kind in MATROID_KINDS), bipartite_specs(),
    mixed_specs(loops=True)))
def test_oracles_match_a_naive_scan_with_the_written_tie_rule(data, structure):
    """Second route: a scan of ``combinations`` that applies the tie rule as
    written (value, then smaller cost for XOS, then the smaller sorted id
    tuple) on tie-heavy weights, costs and clauses, at budgets 0, exactly one
    subset's cost, 1/35 either side of it and above the total.  In the
    mixed-denominator case the weights lie on denominators 5 and 7, which no
    cost has, and those budgets on 35."""
    ground = structure.ground
    weights = data.draw(st.sampled_from(
        (RATIONALS, st.builds(mpq, st.integers(1, 20), st.sampled_from((5, 7))))))
    w = {e: data.draw(weights) for e in ground}
    c = {e: data.draw(RATIONALS) for e in ground}
    independent = [s for s in _subsets(ground) if structure.is_independent(set(s))]
    assert enumerate_independent_sets(structure) == [frozenset(s) for s in sorted(independent)]
    spent = sum(c[e] for e in data.draw(st.sets(st.sampled_from(sorted(ground)))))
    clauses = [{e: data.draw(st.integers(0, 3)) for e in ground}
               for _ in range(data.draw(st.integers(1, 3)))]
    valuation = XosValuation(ground, clauses)
    budgets = [mpq(0), spent, spent + mpq(1, 35), sum(c.values()) + 1]
    if spent:
        budgets.append(spent - mpq(1, 35))
    for budget in budgets:
        fit = [s for s in independent if sum(c[e] for e in s) <= budget]
        best = min(fit, key=lambda s: (-sum(w[e] for e in s), s))
        assert brute_force_opt(structure, w, c, budget) == frozenset(best)
        fit = [s for s in _subsets(ground) if sum(c[e] for e in s) <= budget]
        best = min(fit, key=lambda s: (-valuation.value(s), sum(c[e] for e in s), s))
        assert xos_opt(valuation, c, budget) == (frozenset(best), valuation.value(best))
    best = min(independent, key=lambda s: (-sum(w[e] for e in s), s))
    assert brute_force_max(structure, w) == frozenset(best)
