"""Matroid intersections and deterministic approximation blackboxes.

A blackbox reads element weights only, never bids: the procurement mechanism
hands it a structure and the public weight vector, so cost manipulation
cannot influence which common independent set it computes.
"""

from dataclasses import dataclass
from typing import Callable

from .errors import InputError
from .matroids import PartitionMatroid, weight_order
from .rationals import ZERO, common_denominator, mpq


class IntersectionSpec:
    """k >= 2 matroids over one shared ground set; common independence oracle."""

    def __init__(self, matroids):
        matroids = tuple(matroids)
        if len(matroids) < 2:
            raise InputError("an intersection needs at least two matroids")
        ground = matroids[0].ground
        for m in matroids[1:]:
            if tuple(m.ground) != tuple(ground):
                raise InputError("all matroids in an intersection must share one ground list")
        self.matroids = matroids
        self.ground = tuple(ground)
        self._ground_set = frozenset(ground)

    @property
    def k(self):
        return len(self.matroids)

    def check_members(self, s):
        unknown = set(s) - self._ground_set
        if unknown:
            raise InputError(f"unknown element ids: {sorted(unknown)}")

    def is_independent(self, s):
        """Common independence: independent in every constituent matroid."""
        self.check_members(s)
        s = frozenset(s)
        return all(m._independent(s) for m in self.matroids)

    def delete(self, t):
        return IntersectionSpec([m.delete(t) for m in self.matroids])

    def restrict(self, t):
        return IntersectionSpec([m.restrict(t) for m in self.matroids])

    def to_json(self):
        return {"intersection": [m.to_json() for m in self.matroids]}

    def __repr__(self):
        return f"IntersectionSpec(k={self.k}, ground={list(self.ground)!r})"


@dataclass(frozen=True)
class ApxBlackbox:
    """Deterministic alpha-approximation for max-weight common independent sets."""

    name: str
    alpha: object  # rational >= 1
    procedure: Callable[[IntersectionSpec, dict], frozenset]

    def __call__(self, spec, weights):
        return self.procedure(spec, weights)


def _bipartite_shape(spec):
    """Left/right vertex of each edge, or raise if the spec is not a
    two-partition-matroid, capacity-1 encoding of a bipartite graph."""
    if spec.k != 2:
        raise InputError("bipartite matching needs exactly two matroids")
    sides = []
    for m in spec.matroids:
        if not isinstance(m, PartitionMatroid):
            raise InputError("bipartite matching needs two partition matroids")
        if any(cap != 1 for _, cap in m.blocks):
            raise InputError("bipartite matching needs capacity 1 on every vertex block")
        sides.append({e: idx for idx, (members, _) in enumerate(m.blocks) for e in members})
    return sides[0], sides[1]


def _perturb_for_lex(weights, ids):
    """Add per-edge bonuses smaller than any true value gap so that the
    perturbed optimum is unique and equals the lexicographically smallest
    id set among the original value-equal optima."""
    d = common_denominator(weights[e] for e in ids)
    return {e: mpq(weights[e]) + mpq(1, d * (1 << (j + 1))) for j, e in enumerate(ids)}


def exact_bipartite_matching(spec, weights):
    """Maximum-weight matching in the bipartite graph encoded by ``spec``.

    Successive augmentation: repeatedly apply the maximum-gain alternating
    path (found by Bellman-Ford over the residual graph) until no path has
    positive gain.  Perturbed weights make the optimum unique, so the result
    is deterministic with value-equal optima resolved to the smallest id set.
    """
    left_of, right_of = _bipartite_shape(spec)
    ids = sorted(spec.ground)
    if not ids:
        return frozenset()
    wp = _perturb_for_lex(weights, ids)

    match_of_edge = {e: False for e in ids}
    left_matched = {}  # left vertex -> edge id
    right_matched = {}  # right vertex -> edge id

    nodes = [("L", v) for v in sorted(set(left_of.values()))] + [
        ("R", v) for v in sorted(set(right_of.values()))
    ]

    while True:
        dist = {}
        pred = {}
        for node in nodes:
            if node[0] == "L" and node[1] not in left_matched:
                dist[node] = ZERO
        changed = True
        rounds = 0
        while changed:
            changed = False
            rounds += 1
            if rounds > len(nodes) + 1:
                raise AssertionError("positive alternating cycle: matching invariant broken")
            for e in ids:
                u = ("L", left_of[e])
                v = ("R", right_of[e])
                if not match_of_edge[e]:
                    if u in dist and (v not in dist or dist[u] + wp[e] > dist[v]):
                        dist[v] = dist[u] + wp[e]
                        pred[v] = (u, e)
                        changed = True
                else:
                    if v in dist and (u not in dist or dist[v] - wp[e] > dist[u]):
                        dist[u] = dist[v] - wp[e]
                        pred[u] = (v, e)
                        changed = True

        best_node, best_gain = None, None
        for node in nodes:
            if node[0] == "R" and node[1] not in right_matched and node in dist:
                if best_gain is None or dist[node] > best_gain:
                    best_node, best_gain = node, dist[node]
        if best_node is None or best_gain <= ZERO:
            break

        node = best_node
        while node in pred:
            prev, e = pred[node]
            match_of_edge[e] = not match_of_edge[e]
            node = prev
        left_matched = {}
        right_matched = {}
        for e in ids:
            if match_of_edge[e]:
                left_matched[left_of[e]] = e
                right_matched[right_of[e]] = e

    result = frozenset(e for e in ids if match_of_edge[e])
    assert spec.is_independent(result)
    return result


def greedy_common_independent(spec, weights):
    """Weight-descending greedy over the intersection; certified alpha = k.

    Scan elements by weight descending (id ascending on ties) and keep each
    one that leaves the set independent in every matroid.
    """
    chosen = set()
    for e in weight_order(spec.ground, weights):
        chosen.add(e)
        if not all(m._independent(frozenset(chosen)) for m in spec.matroids):
            chosen.discard(e)
    return frozenset(chosen)


def get_blackbox(name, spec):
    """Blackbox registry used by the CLI flag ``--apx``."""
    if name == "exact-bipartite":
        _bipartite_shape(spec)  # validate shape up front
        return ApxBlackbox("exact-bipartite", mpq(1), exact_bipartite_matching)
    if name == "greedy":
        return ApxBlackbox("greedy", mpq(spec.k), greedy_common_independent)
    raise InputError(f"unknown blackbox {name!r} (expected exact-bipartite or greedy)")


def memoized_blackbox(blackbox):
    """Same blackbox with results cached by remaining ground set.

    Valid because every query during a mechanism run is a deletion of one
    base spec, so the surviving ground set identifies the query; used by the
    verification harness to keep large deviation sweeps fast.
    """
    cache = {}

    def cached(spec, weights):
        key = spec.ground
        if key not in cache:
            cache[key] = blackbox.procedure(spec, weights)
        return cache[key]

    return ApxBlackbox(blackbox.name, blackbox.alpha, cached)
