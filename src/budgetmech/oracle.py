"""Brute-force oracles: exact budgeted optima for desk-scale instances.

These are the independent side of every dual-route check in the test
harness; they never share code with the mechanisms or blackboxes they
verify.
"""

from .errors import CapExceeded
from .rationals import ZERO, mpq

ENUMERATION_CAP = 22


def _better(value, ids, best_value, best_ids):
    # ties go to the lexicographically smallest sorted id tuple
    if best_value is None or value > best_value:
        return True
    return value == best_value and ids < best_ids


def brute_force_opt(structure, weights, costs, budget):
    """Maximum-weight independent set whose total cost is at most ``budget``.

    ``structure`` is a Matroid or an IntersectionSpec.  ``budget=None`` means
    no budget constraint, which realizes the unbudgeted maximum as well.
    Enumeration walks the tree of independent sets only (independence is
    hereditary), pruning on cost; ties resolve to the lexicographically
    smallest id set.
    """
    ground = sorted(structure.ground)
    if len(ground) > ENUMERATION_CAP:
        raise CapExceeded(
            f"brute-force oracle capped at {ENUMERATION_CAP} elements, got {len(ground)}"
        )
    weights = {e: mpq(weights[e]) for e in ground}
    costs = {e: mpq(costs[e]) for e in ground} if budget is not None else None

    best = [ZERO, ()]

    def visit(value, ids):
        if _better(value, ids, best[0], best[1]):
            best[0], best[1] = value, ids

    def extend(start, current, value, cost):
        for j in range(start, len(ground)):
            e = ground[j]
            if budget is not None and cost + costs[e] > budget:
                continue
            candidate = current | {e}
            if not structure.is_independent(candidate):
                continue
            new_value = value + weights[e]
            visit(new_value, tuple(sorted(candidate)))
            extend(
                j + 1,
                candidate,
                new_value,
                cost + costs[e] if budget is not None else cost,
            )

    visit(ZERO, ())
    extend(0, frozenset(), ZERO, ZERO)
    return frozenset(best[1])


def brute_force_max(structure, weights):
    """Unbudgeted maximum-weight independent set (budget treated as infinite)."""
    return brute_force_opt(structure, weights, {e: ZERO for e in structure.ground}, None)


def xos_opt(valuation, costs, budget):
    """Optimal budgeted subset for an XOS valuation, by subset enumeration.

    Returns ``(subset, value)``.  Ties: larger value, then smaller cost, then
    lexicographically smallest id set.
    """
    ground = sorted(valuation.ground)
    n = len(ground)
    if n > ENUMERATION_CAP:
        raise CapExceeded(
            f"brute-force oracle capped at {ENUMERATION_CAP} elements, got {n}"
        )
    costs = {e: mpq(costs[e]) for e in ground}
    budget = mpq(budget)

    best_set, best_value, best_cost = frozenset(), ZERO, ZERO

    def extend(start, current, cost):
        nonlocal best_set, best_value, best_cost
        for j in range(start, n):
            e = ground[j]
            new_cost = cost + costs[e]
            if new_cost > budget:
                continue
            candidate = current | {e}
            value = valuation.value(candidate)
            ids = tuple(sorted(candidate))
            if (
                value > best_value
                or (value == best_value and new_cost < best_cost)
                or (
                    value == best_value
                    and new_cost == best_cost
                    and ids < tuple(sorted(best_set))
                )
            ):
                best_set, best_value, best_cost = frozenset(candidate), value, new_cost
            extend(j + 1, candidate, new_cost)

    extend(0, frozenset(), ZERO)
    return best_set, best_value


def enumerate_independent_sets(structure):
    """All independent sets of a desk-scale matroid or intersection."""
    ground = sorted(structure.ground)
    if len(ground) > ENUMERATION_CAP:
        raise CapExceeded("too many elements to enumerate")
    out = [frozenset()]

    def extend(start, current):
        for j in range(start, len(ground)):
            candidate = current | {ground[j]}
            if structure.is_independent(candidate):
                out.append(frozenset(candidate))
                extend(j + 1, candidate)

    extend(0, frozenset())
    return out
