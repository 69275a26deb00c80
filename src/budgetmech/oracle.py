"""Brute-force oracles: exact budgeted optima for desk-scale instances.

These are the independent side of every dual-route check in the test
harness; they never share code with the mechanisms or blackboxes they
verify.  Each is one walk: preorder over the id-sorted ground set, pruned on
cost and on independence (which is hereditary), visits sets in lexicographic
order of their sorted id tuples.  So the first strict improvement wins, and
ties go to the lexicographically smallest id set.
"""

from .errors import CapExceeded
from .rationals import as_rational, mpq, scale_to_integers

ENUMERATION_CAP = 22


def _walk(ground, fits, weights, costs, budget, visit):
    """``visit(s, weight, cost)`` for each subset ``s`` of ``ground`` that
    ``fits`` and costs at most ``budget``, in lexicographic order of sorted
    id tuples (the empty set first); weight and cost are summed on the way."""
    ground = sorted(ground)
    if len(ground) > ENUMERATION_CAP:
        raise CapExceeded(
            f"brute-force oracle capped at {ENUMERATION_CAP} elements, got {len(ground)}")

    def extend(start, current, weight, cost):
        for j in range(start, len(ground)):
            e = ground[j]
            new_cost = cost + costs[e]
            if new_cost <= budget and fits(candidate := current | {e}):
                new_weight = weight + weights[e]
                visit(candidate, new_weight, new_cost)
                extend(j + 1, candidate, new_weight, new_cost)

    visit(frozenset(), 0, 0)
    extend(0, frozenset(), 0, 0)


def _integer_costs(ground, costs, budget):
    """The costs of ``ground`` as integers over their common denominator,
    and the budget on that scale, rounded down: an integer total fits the
    budget exactly when it fits the rounded one."""
    den, scaled = scale_to_integers([as_rational(costs[e]) for e in ground])
    budget = as_rational(budget)
    return dict(zip(ground, scaled)), budget.numerator * den // budget.denominator


def brute_force_opt(structure, weights, costs, budget):
    """Maximum-weight independent set of a Matroid or an IntersectionSpec
    whose total cost is at most ``budget``: the first of maximum weight.

    The walk sums integers: the weights over their common denominator, and
    the costs over theirs with the budget on the cost scale
    (``rationals.scale_to_integers``), which keeps every comparison."""
    ground = structure.ground
    _, scaled = scale_to_integers([as_rational(weights[e]) for e in ground])
    best = [0, frozenset()]

    def keep(s, weight, cost):
        if weight > best[0]:
            best[:] = weight, s

    _walk(ground, structure.is_independent, dict(zip(ground, scaled)),
          *_integer_costs(ground, costs, budget), keep)
    return best[1]


def brute_force_max(structure, weights):
    """Unbudgeted maximum-weight independent set: zero costs, zero budget."""
    return brute_force_opt(structure, weights, dict.fromkeys(structure.ground, 0), 0)


def xos_opt(valuation, costs, budget):
    """Optimal budgeted subset for an XOS valuation, by subset enumeration.

    Returns ``(subset, value)``: the first maximum of (value, -cost).  The
    walk carries one running sum per clause: the clause values, as integers
    over their common denominator, sit in disjoint bit fields of one
    integer weight, each field wide enough for its clause's total, so a
    visit reads v(S) off its weight in O(clauses).
    """
    ground, clauses = valuation.ground, valuation.functions
    den, scaled = scale_to_integers([f[e] for f in clauses for e in ground])
    rows = [scaled[k * len(ground):(k + 1) * len(ground)] for k in range(len(clauses))]
    width = max(sum(row) for row in rows).bit_length()
    mask, shifts = (1 << width) - 1, [k * width for k in range(len(clauses))]
    packed = {e: sum(row[j] << shift for row, shift in zip(rows, shifts))
              for j, e in enumerate(ground)}
    best = [0, 0, frozenset()]

    def keep(s, sums, cost):
        value = max(sums >> shift & mask for shift in shifts)
        if value > best[0] or (value == best[0] and cost < best[1]):
            best[:] = value, cost, s

    _walk(ground, lambda s: True, packed, *_integer_costs(ground, costs, budget), keep)
    return best[2], mpq(best[0], den)


def enumerate_independent_sets(structure):
    """All independent sets of a desk-scale matroid or intersection, in the
    walk's order."""
    out = []
    zeros = dict.fromkeys(structure.ground, 0)
    _walk(structure.ground, structure.is_independent, zeros, zeros, 0,
          lambda s, weight, cost: out.append(s))
    return out
