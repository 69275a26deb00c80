"""Matroid intersections and deterministic approximation blackboxes.

A blackbox reads element weights only, never bids: the procurement mechanism
hands it a structure, the public weight vector and the elements excluded so
far, so cost manipulation cannot influence which common independent set it
computes.  It answers as on ``spec.delete(excluded)``, without building it.

Every blackbox must also keep its answer when an element outside that
answer is excluded: the mechanisms' shared removal loop
(``mechanisms._run_threshold_mechanism``) relies on it to skip such calls.
``get_blackbox`` proves it for both blackboxes here.
"""

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable

from .errors import InputError
from .matroids import PartitionMatroid, weight_order
from .rationals import mpq, scale_to_integers


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

    def to_json(self):
        return {"intersection": [m.to_json() for m in self.matroids]}

    def __repr__(self):
        return f"IntersectionSpec(k={self.k}, ground={list(self.ground)!r})"


@dataclass(frozen=True)
class ApxBlackbox:
    """Deterministic alpha-approximation for max-weight common independent sets.

    Besides determinism, every blackbox must keep its answer when an
    unchosen element leaves: for every exclusion set ``X`` and every ``x``
    outside ``bb(spec, w, X)``, ``bb(spec, w, X | {x}) == bb(spec, w, X)``,
    the rule of ``mechanisms._run_threshold_mechanism``.  An arbitrary
    alpha-approximation need not meet it, so a new procedure needs a proof
    of it and the property test in ``tests/test_intersection.py`` extended
    to it.
    """

    name: str
    alpha: object  # rational >= 1
    procedure: Callable[[IntersectionSpec, dict, frozenset], frozenset]

    def __call__(self, spec, weights, excluded=frozenset()):
        return self.procedure(spec, weights, excluded)


def _bipartite_shape(spec):
    """Left and right vertex of each edge (the two partition matroids' block
    maps), or raise if the spec is not a two-partition-matroid, capacity-1
    encoding of a bipartite graph."""
    if spec.k != 2:
        raise InputError("bipartite matching needs exactly two matroids")
    for m in spec.matroids:
        if not isinstance(m, PartitionMatroid):
            raise InputError("bipartite matching needs two partition matroids")
        if any(cap != 1 for _, cap in m.blocks):
            raise InputError("bipartite matching needs capacity 1 on every vertex block")
    return spec.matroids[0]._block_of, spec.matroids[1]._block_of


def _perturb_for_lex(weights, ids):
    """Integer weights ``w_e * d * 2^(m+1) + 2^(m-j)`` for the j-th of the m
    sorted ``ids``, with ``d`` the common denominator of the true weights.

    Scaled true values of two edge sets differ by 0 or at least 2^(m+1),
    while the bonuses sum to less than 2^(m+1) and spell the set in binary.
    So distinct edge sets get distinct weights, and the perturbed optimum is
    the lexicographically smallest id set among the value-equal optima.
    """
    m = len(ids)
    _, scaled = scale_to_integers([weights[e] for e in ids])
    return [(w << (m + 1)) + (1 << (m - j)) for j, w in enumerate(scaled)]


def _check_dual_certificate(wp, left, right, matched, y_left, y_right):
    """Raise unless the duals prove ``matched`` a maximum-weight matching.

    Checks LP-duality for max-weight bipartite matching: duals nonnegative,
    ``y_u + y_v >= wp_e`` on every edge with equality on matched edges, and
    zero on every unmatched vertex.  Then any matching N has
    ``wp(N) <= sum of duals = wp(matched)``.
    """
    covered_left = {left[j] for j in matched}
    covered_right = {right[j] for j in matched}
    ok = (
        all(y >= 0 for y in y_left)
        and all(y >= 0 for y in y_right)
        and all(y_left[u] + y_right[v] >= w for w, u, v in zip(wp, left, right))
        and all(y_left[left[j]] + y_right[right[j]] == wp[j] for j in matched)
        and all(y == 0 for u, y in enumerate(y_left) if u not in covered_left)
        and all(y == 0 for v, y in enumerate(y_right) if v not in covered_right)
    )
    if not ok:
        raise AssertionError("dual certificate failed: matching is not maximum-weight")


def exact_bipartite_matching(spec, weights, excluded=frozenset()):
    """Maximum-weight matching in the bipartite graph encoded by ``spec``
    minus the edges in ``excluded``.

    Primal-dual (Hungarian) augmentation on the integer weights of
    ``_perturb_for_lex``.  Duals start at ``max wp`` on the left and 0 on the
    right; reduced costs ``y_u + y_v - wp_e`` stay nonnegative and matched
    edges stay tight.  The free left vertices always share one dual ``delta``.
    Each phase runs one Dijkstra over alternating paths from all free left
    vertices: an augmenting path of reduced length ``D`` gains ``delta - D``,
    so the phase augments along the shortest one if ``D < delta``, and
    otherwise lowers ``delta`` to 0 and stops, since no positive-gain path is
    left.  Perturbed weights make the optimum unique, so the result is
    deterministic with value-equal optima resolved to the smallest id set.
    Only surviving edges are numbered, so the result is the one on
    ``spec.delete(excluded)``; a vertex with no surviving edge stays free.
    """
    left_of, right_of = _bipartite_shape(spec)
    ids = sorted(e for e in spec.ground if e not in excluded)
    if not ids:
        return frozenset()
    wp = _perturb_for_lex(weights, ids)
    left = [left_of[e] for e in ids]
    right = [right_of[e] for e in ids]
    adj = [[] for _ in spec.matroids[0].blocks]
    for j, u in enumerate(left):
        adj[u].append(j)

    delta = max(wp)
    y_left = [delta] * len(adj)
    y_right = [0] * len(spec.matroids[1].blocks)
    mate_left = [None] * len(y_left)  # edge index matched at each vertex
    mate_right = [None] * len(y_right)

    while delta > 0:
        free = [u for u, j in enumerate(mate_left) if j is None]
        if not free:
            break
        # Dijkstra; a matched right vertex settles its mate at the same distance
        settled_left = dict.fromkeys(free, 0)
        settled_right = {}
        best, via, heap = {}, {}, []

        def scan(u, d):
            y_u = y_left[u]
            for j in adj[u]:
                v = right[j]
                if v in settled_right:
                    continue
                dv = d + y_u + y_right[v] - wp[j]
                if v not in best or dv < best[v]:
                    best[v], via[v] = dv, j
                    heappush(heap, (dv, v))

        for u in free:
            scan(u, 0)
        end = None
        while heap:
            d, v = heappop(heap)
            if v in settled_right:
                continue
            if d >= delta:
                break
            settled_right[v] = d
            j = mate_right[v]
            if j is None:
                end = v
                break
            u = left[j]
            settled_left[u] = d
            scan(u, d)

        step = delta if end is None else settled_right[end]
        for u, d in settled_left.items():
            if d < step:
                y_left[u] -= step - d
        for v, d in settled_right.items():
            if d < step:
                y_right[v] += step - d
        delta -= step
        if end is None:
            break
        v = end
        while v is not None:
            j = via[v]
            u = left[j]
            previous = mate_left[u]
            mate_left[u], mate_right[v] = j, j
            v = None if previous is None else right[previous]

    matched = [j for j in mate_left if j is not None]
    _check_dual_certificate(wp, left, right, matched, y_left, y_right)
    result = frozenset(ids[j] for j in matched)
    assert spec.is_independent(result)
    return result


def greedy_common_independent(spec, weights, excluded=frozenset()):
    """Weight-descending greedy over the intersection; certified alpha = k.

    Scan the elements not in ``excluded`` by weight descending (id ascending
    on ties) and keep each one that every matroid's extender fits.  These
    are the tests greedy makes on ``spec.delete(excluded)``, since a set
    avoiding ``excluded`` is independent there iff it is in ``spec``.
    """
    survivors = [e for e in spec.ground if e not in excluded]
    grows = [m.extender() for m in spec.matroids]
    chosen = []
    for e in weight_order(survivors, weights):
        if all(grow.fits(e) for grow in grows):
            for grow in grows:
                grow.add(e)
            chosen.append(e)
    return frozenset(chosen)


def get_blackbox(name, spec):
    """Blackbox by name (``--apx``, ``verify.BLACKBOX_OF``); the procedures
    are read as module globals at each call, so a later wrapper is seen.

    Both keep their answer when an unchosen element leaves, as the removal
    loop ``mechanisms._run_threshold_mechanism`` requires.
    ``exact-bipartite``: deleting an edge outside the perturbed optimum
    leaves that optimum feasible, and it stays optimal among fewer
    candidates; deleting the edge drops a bonus bit that is 0 in every
    remaining candidate, so their perturbed order is kept.  ``greedy``: a
    rejected element changed no extender state, so without it the scan
    makes the same choices.
    """
    if not isinstance(spec, IntersectionSpec):
        raise InputError(f"blackbox {name!r} needs a matroid intersection, not a single matroid")
    if name == "exact-bipartite":
        _bipartite_shape(spec)  # validate shape up front
        return ApxBlackbox("exact-bipartite", mpq(1), exact_bipartite_matching)
    if name == "greedy":
        return ApxBlackbox("greedy", mpq(spec.k), greedy_common_independent)
    raise InputError(f"unknown blackbox {name!r} (expected exact-bipartite or greedy)")


def memoized_blackbox(blackbox):
    """Same blackbox with results cached by exclusion set.

    Valid for the queries of one mechanism run and its bid deviations: one
    base spec and one weight vector, so the exclusion set identifies the
    query; used by the verification harness to keep deviation sweeps fast.
    """
    cache = {}

    def cached(spec, weights, excluded=frozenset()):
        key = frozenset(excluded)
        if key not in cache:
            cache[key] = blackbox.procedure(spec, weights, key)
        return cache[key]

    return ApxBlackbox(blackbox.name, blackbox.alpha, cached)
