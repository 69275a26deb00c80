"""Matroid intersections and deterministic approximation blackboxes.

A blackbox reads element weights only, never bids: the procurement mechanism
hands it a structure, the public weight vector and the elements excluded so
far, so cost manipulation cannot influence which common independent set it
computes.  It answers as on ``spec.delete(excluded)``, without building it,
and keeps its answer when an unchosen element leaves (``ApxBlackbox``).
"""

from dataclasses import dataclass
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
    outside ``bb(spec, w, X)``, ``bb(spec, w, X | {x}) == bb(spec, w, X)``:
    the unchosen-removal rule, which ``mechanisms.Plan.walk`` owns and
    applies without asking the blackbox.  An arbitrary alpha-approximation
    need not meet it, so a new procedure needs a proof of it and the
    property test in ``tests/test_intersection.py`` extended to it.
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


def _check_dual_certificate(entry, edges, owner, y_row, y_col):
    """Raise unless the potentials prove that giving each column ``j`` of
    ``entry`` to row ``owner[j]`` (every row once) is a maximum assignment,
    and every edge ``(i, j, w)`` of ``edges`` weighs at most ``entry[i][j]``.

    LP duality: ``y_row[i] + y_col[j] >= entry[i][j]``, tight on assigned
    entries; column potentials >= 0, and 0 on unassigned columns.  As
    entries are >= 0 and rows no more than columns, any matching extends to
    a row-covering assignment of no smaller weight, which weighs at most the
    sum of the potentials: the weight of this assignment.  The edge bound
    carries this to the graph: a matching of the edges weighs at most the
    assignment of their entries.
    """
    assigned = [(i, j) for j, i in enumerate(owner) if i is not None]
    ok = (
        sorted(i for i, _ in assigned) == list(range(len(entry)))
        and all(w <= entry[i][j] for i, j, w in edges)
        and all(y >= 0 and (i is not None or y == 0) for i, y in zip(owner, y_col))
        and all(y_row[i] + y >= e for i, row in enumerate(entry) for y, e in zip(y_col, row))
        and all(y_row[i] + y_col[j] == entry[i][j] for i, j in assigned)
    )
    if not ok:
        raise AssertionError("dual certificate failed: assignment is not maximum-weight")


def exact_bipartite_matching(spec, weights, excluded=frozenset()):
    """Maximum-weight matching in the bipartite graph encoded by ``spec``
    minus the edges in ``excluded``: the Kuhn-Munkres assignment method
    (Kuhn 1955; Munkres 1957) on the ``_perturb_for_lex`` weights of the
    surviving edges only, whose unique optimum is the one on the deleted spec.

    Rows are the vertices with a surviving edge on the side with fewer of
    them, columns the other side's; an entry is the heaviest edge between
    its row and column, or 0, and a row assigned to a 0 stays unmatched.
    Each phase adds a row and moves the potentials by the least ``slack``
    outside its tree of tight entries until the tree reaches a free column.
    """
    left_of, right_of = _bipartite_shape(spec)
    ids = sorted(e for e in spec.ground if e not in excluded)
    if len({left_of[e] for e in ids}) > len({right_of[e] for e in ids}):
        left_of, right_of = right_of, left_of
    row_at = {u: i for i, u in enumerate(sorted({left_of[e] for e in ids}))}
    col_at = {v: j for j, v in enumerate(sorted({right_of[e] for e in ids}))}
    c = len(col_at)
    entry = [[0] * c for _ in row_at]
    edge_of = dict(zip(_perturb_for_lex(weights, ids), ids))
    edges = [(row_at[left_of[e]], col_at[right_of[e]], w) for w, e in sorted(edge_of.items())]
    for i, j, w in edges:  # of parallel edges, the heaviest is written last
        entry[i][j] = w

    y_row, y_col = [0] * len(row_at), [0] * (c + 1)
    owner = [None] * (c + 1)  # row assigned to each column; column c roots a phase
    for start in range(len(row_at)):
        owner[c] = start
        slack = [y_col[j] - entry[start][j] for j in range(c)]
        way = [c] * c  # the tree column whose row gives j its slack
        tree, outside = [c], list(range(c))
        while True:
            j0 = min(outside, key=slack.__getitem__)
            delta = slack[j0]
            for j in tree:
                y_row[owner[j]] -= delta
                y_col[j] += delta
            slack = [s - delta for s in slack]
            if owner[j0] is None:
                break
            tree.append(j0)
            outside.remove(j0)
            i = owner[j0]
            for j in outside:
                reduced = y_row[i] + y_col[j] - entry[i][j]
                if reduced < slack[j]:
                    slack[j], way[j] = reduced, j0
        while j0 != c:
            owner[j0] = owner[way[j0]]
            j0 = way[j0]

    del owner[c], y_col[c]
    _check_dual_certificate(entry, edges, owner, y_row, y_col)
    result = frozenset(edge_of[entry[i][j]] for j, i in enumerate(owner)
                       if i is not None and entry[i][j])
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
    """Blackbox by name (``--apx``, ``verify.BLACKBOX_OF``).  The procedures
    are read as module globals when ``get_blackbox`` runs, so a wrapper
    installed before then is seen and one installed later is not.

    Both keep their answer when an unchosen element leaves, as
    ``mechanisms.Plan.walk``, the owner of that rule, requires.
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

