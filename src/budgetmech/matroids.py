"""Matroid families behind a common independence oracle.

Every matroid here is described declaratively (kind plus parameters) and
evaluated through ``is_independent``.  Deletion stays within the same
family, so a deleted matroid remains exact and cheap to query.

``extender(start)`` grows an independent set ``S`` from ``start``:
``fits(e)`` equals ``_independent(S | {e})`` for ``e`` not in ``S``, and
``add(e)`` puts a fitting ``e`` into ``S``.  After O(|start|) set-up
``fits`` costs O(1) for partition (room per block) and uniform and free
(one block), amortized O(log n) for deadline (latest free slot) and graphic
(one persistent union-find each), and one whole-set oracle call for any
other kind.  The greedy adds what fits.

``exchange(B)`` repairs ``B``, a basis of the ground set that survives so
far, in place: after ``remove(x)``, ``fits(f)`` holds iff ``f`` lies in the
fundamental cocircuit of ``x`` with respect to ``B``, which is the test the
mechanism's repair step needs, and ``add(f)`` puts ``f`` in.  Uniform, free,
partition and explicit repair with their extender.  Deadlines keep the slack
of every slot, and graphic the forest and the cut that ``remove`` leaves: a
second structure each, because one for both jobs measured slower.
``_independent`` stays the definitional oracle behind ``is_independent``.

Element ids are opaque strings; every deterministic tie-break in the package
orders them by plain string comparison, which is public, bid-independent
information.
"""

from itertools import accumulate

from .errors import InputError
from .rationals import ZERO, is_int, scale_to_integers


def _integer(value, what):
    """``value`` if it is an integer (a bool is not one), as in files: a
    rank, capacity or deadline is never truncated."""
    if not is_int(value):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


class Matroid:
    """Base class: a ground list plus an independence oracle."""

    kind = "abstract"

    def __init__(self, ground):
        ground = tuple(ground)
        if len(set(ground)) != len(ground):
            raise InputError("duplicate element ids in ground set")
        self.ground = ground
        self._ground_set = frozenset(ground)

    def check_members(self, s):
        unknown = set(s) - self._ground_set
        if unknown:
            raise InputError(f"unknown element ids: {sorted(unknown)}")

    def is_independent(self, s):
        """True iff the element set ``s`` is independent."""
        self.check_members(s)
        return self._independent(frozenset(s))

    def _independent(self, s):
        raise NotImplementedError

    def loops(self):
        """The loops, in ground order: the elements in no independent set,
        read off the description without an oracle call."""
        raise NotImplementedError

    def extender(self, start=()):
        """Incremental independence test grown from the independent ``start``."""
        return _OracleExtender(self._independent, start)

    def exchange(self, basis):
        """Repair structure for ``basis``, a basis of the surviving ground set:
        ``remove``, ``fits`` and ``add`` keep one set, first ``basis``."""
        return self.extender(basis)

    def _with_ground(self, new_ground):
        raise NotImplementedError

    def delete(self, t):
        """Matroid on ground minus ``t`` with the induced independent sets."""
        self.check_members(t)
        t = frozenset(t)
        return self._with_ground(tuple(e for e in self.ground if e not in t))

    def to_json(self):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(ground={list(self.ground)!r})"


class UniformMatroid(Matroid):
    """Independent iff the set has at most ``rank`` elements."""

    kind = "uniform"

    def __init__(self, ground, rank):
        self.rank = _integer(rank, "uniform rank")
        super().__init__(ground)
        if rank < 0:
            raise InputError("uniform rank must be nonnegative")

    def _independent(self, s):
        return len(s) <= self.rank

    def loops(self):
        return self.ground if self.rank == 0 else ()

    def extender(self, start=()):
        # a uniform matroid is a partition matroid with one block
        return _BlockExtender(dict.fromkeys(self.ground, 0), [self.rank], start)

    def _with_ground(self, new_ground):
        return UniformMatroid(new_ground, self.rank)

    def to_json(self):
        return {"kind": "uniform", "rank": self.rank}


class FreeMatroid(UniformMatroid):
    """Every subset is independent: the uniform matroid of full rank, kept as
    its own kind so instances can say "no structural constraint" directly."""

    kind = "free"

    def __init__(self, ground):
        ground = tuple(ground)
        super().__init__(ground, len(ground))

    def _with_ground(self, new_ground):
        return FreeMatroid(new_ground)

    def to_json(self):
        return {"kind": "free"}


class PartitionMatroid(Matroid):
    """Disjoint blocks with per-block capacities covering the ground set;
    ``block_of[e]`` is the index of ``e``'s block."""

    kind = "partition"

    def __init__(self, ground, blocks):
        self.blocks = tuple((frozenset(members), _integer(cap, "partition capacity"))
                            for members, cap in blocks)
        super().__init__(ground)
        seen = set()
        for members, cap in self.blocks:
            if cap < 0:
                raise InputError("partition capacity must be nonnegative")
            if members & seen:
                raise InputError("partition blocks are not disjoint")
            seen |= members
        if seen != self._ground_set:
            raise InputError("partition blocks must cover the ground set exactly")
        self.block_of = {}
        for idx, (members, _) in enumerate(self.blocks):
            for e in members:
                self.block_of[e] = idx

    def _independent(self, s):
        counts = {}
        for e in s:
            idx = self.block_of[e]
            counts[idx] = counts.get(idx, 0) + 1
            if counts[idx] > self.blocks[idx][1]:
                return False
        return True

    def loops(self):
        return tuple(e for e in self.ground if self.blocks[self.block_of[e]][1] == 0)

    def extender(self, start=()):
        return _BlockExtender(self.block_of, [cap for _, cap in self.blocks], start)

    def _with_ground(self, new_ground):
        keep = frozenset(new_ground)
        blocks = [
            (members & keep, cap) for members, cap in self.blocks if members & keep
        ]
        return PartitionMatroid(new_ground, blocks)

    def to_json(self):
        return {
            "kind": "partition",
            "blocks": [
                {"members": sorted(members), "capacity": cap}
                for members, cap in self.blocks
            ],
        }


class GraphicMatroid(Matroid):
    """Elements are labelled edges; independent sets are acyclic edge sets."""

    kind = "graphic"

    def __init__(self, edges):
        # edges: iterable of (element-id, endpoint, endpoint)
        edges = [(e, u, v) for e, u, v in edges]
        super().__init__([e for e, _, _ in edges])
        self.edges = {e: (u, v) for e, u, v in edges}

    def _independent(self, s):
        parent = {}

        def find(x):
            root = x
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(x, x) != x:
                parent[x], x = root, parent[x]
            return root

        for e in s:
            u, v = self.edges[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent.setdefault(u, u)
            parent.setdefault(v, v)
            parent[ru] = rv
        return True

    def loops(self):
        return tuple(e for e in self.ground if self.edges[e][0] == self.edges[e][1])

    def extender(self, start=()):
        return _ForestExtender(self.edges, start)

    def exchange(self, basis):
        return _ForestCut(self.edges, basis)

    def _with_ground(self, new_ground):
        return GraphicMatroid([(e, *self.edges[e]) for e in new_ground])

    def to_json(self):
        return {
            "kind": "graphic",
            "edges": [[e, *self.edges[e]] for e in self.ground],
        }


class DeadlineMatroid(Matroid):
    """Unit jobs on one machine; a set is independent iff all deadlines are met.

    Equivalent prefix condition: with deadlines sorted ascending,
    the j-th smallest deadline must be at least j.
    """

    kind = "deadline"

    def __init__(self, ground, deadlines):
        for e, d in deadlines.items():
            _integer(d, f"deadline of {e!r}")
        super().__init__(ground)
        if set(deadlines) != self._ground_set:
            raise InputError("deadline map must cover the ground set exactly")
        self.deadlines = {e: deadlines[e] for e in self.ground}
        for e, d in self.deadlines.items():
            if d < 1:
                raise InputError(f"deadline of {e!r} must be at least 1")

    def _independent(self, s):
        for j, d in enumerate(sorted(self.deadlines[e] for e in s), start=1):
            if d < j:
                return False
        return True

    def loops(self):
        return ()  # every deadline is at least 1

    def extender(self, start=()):
        return _LatestFreeSlot(self.deadlines, len(self.ground), start)

    def exchange(self, basis):
        return _SlackSlots(self.deadlines, len(self.ground), basis)

    def _with_ground(self, new_ground):
        return DeadlineMatroid(new_ground, {e: self.deadlines[e] for e in new_ground})

    def to_json(self):
        return {"kind": "deadline", "deadlines": dict(sorted(self.deadlines.items()))}


class ExplicitMatroid(Matroid):
    """Matroid given by listing every independent set (test plumbing).

    The matroid axioms are checked at construction, so a bad listing fails
    fast instead of corrupting downstream results.
    """

    kind = "explicit"

    def __init__(self, ground, independents):
        super().__init__(ground)
        sets = {frozenset(s) for s in independents}
        sets.add(frozenset())
        for s in sets:
            self.check_members(s)
        self.independents = frozenset(sets)
        self._check_axioms()

    def _check_axioms(self):
        for s in self.independents:
            for e in s:
                if s - {e} not in self.independents:
                    raise InputError("explicit matroid violates the hereditary property")
        for a in self.independents:
            for b in self.independents:
                if len(a) < len(b) and not any(
                    a | {e} in self.independents for e in b - a
                ):
                    raise InputError("explicit matroid violates the exchange property")

    def _independent(self, s):
        return s in self.independents

    def loops(self):
        listed = frozenset().union(*self.independents)
        return tuple(e for e in self.ground if e not in listed)

    def _with_ground(self, new_ground):
        keep = frozenset(new_ground)
        return ExplicitMatroid(
            new_ground, [s for s in self.independents if s <= keep]
        )

    def to_json(self):
        return {
            "kind": "explicit",
            "independents": sorted(sorted(s) for s in self.independents),
        }


class _OracleExtender:
    """Fallback: asks the whole-set oracle about ``S + e``."""

    def __init__(self, independent, start):
        self.independent = independent
        self.members = frozenset(start)

    def fits(self, e):
        return self.independent(self.members | {e})

    def add(self, e):
        self.members = self.members | {e}

    def remove(self, e):
        self.members = self.members - {e}


class _BlockExtender:
    """Partition, uniform and free: the room left in each block."""

    def __init__(self, block_of, room, start):
        self.block_of = block_of
        self.room = room
        for e in start:
            room[block_of[e]] -= 1

    def fits(self, e):
        return self.room[self.block_of[e]] > 0

    def add(self, e):
        self.room[self.block_of[e]] -= 1

    def remove(self, e):
        self.room[self.block_of[e]] += 1


class _UnionFind:
    """Path-compressed union-find on ``parent``; a key with no entry is a root."""

    def _root(self, x):
        parent = self.parent
        root = x
        while root in parent:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root


class _ForestExtender(_UnionFind):
    """Graphic: one persistent union-find over the vertices of the members.

    ``e`` fits iff its endpoints lie in different trees, so a self-loop
    never fits.
    """

    def __init__(self, edges, start):
        self.edges = edges
        self.parent = {}
        for e in start:
            self.add(e)

    def fits(self, e):
        u, v = self.edges[e]
        return self._root(u) != self._root(v)

    def add(self, e):
        u, v = self.edges[e]
        ru, rv = self._root(u), self._root(v)
        if ru != rv:
            self.parent[ru] = rv


class _ForestCut:
    """Graphic exchange: the adjacency of the forest ``S`` and, after
    ``remove(x)``, one side of the cut that ``x`` left in its tree.

    ``fits(f)`` holds iff ``f`` crosses that cut.  This is exact only for an
    ``f`` spanned by ``S + x``, whose ends lie in one tree: ``S + f`` is a
    forest iff ``f`` crosses.  Every ``f`` the repair asks about is spanned,
    because its ``S + x`` is a basis of the surviving ground set.  Before
    any ``remove`` and after an ``add``, no spanned ``f`` fits, and ``fits``
    says so.  ``remove`` labels the side by a search from both ends of ``x``
    in lockstep that stops when either side is done, so it costs the
    smaller side.  One forest for both jobs, with ``_ForestExtender``, made
    runs at n = 100/200 9-10% slower (1.78 to 1.96 ms; 2 vCPUs, Fraction).
    """

    def __init__(self, edges, start):
        self.edges = edges
        self.adjacent, self.side = {}, frozenset()
        for e in start:
            self.add(e)

    def remove(self, x):
        u, v = self.edges[x]
        adjacent = self.adjacent
        adjacent[u].remove(v)
        adjacent[v].remove(u)
        seen, todo = ({u}, {v}), ([u], [v])
        while todo[0] and todo[1]:
            for side, stack in zip(seen, todo):
                for w in adjacent[stack.pop()]:
                    if w not in side:
                        side.add(w)
                        stack.append(w)
        self.side = seen[0] if not todo[0] else seen[1]

    def fits(self, f):
        u, v = self.edges[f]
        return (u in self.side) != (v in self.side)

    def add(self, e):
        u, v = self.edges[e]
        self.adjacent.setdefault(u, set()).add(v)
        self.adjacent.setdefault(v, set()).add(u)
        self.side = frozenset()


class _LatestFreeSlot(_UnionFind):
    """Deadline: each member takes the latest free slot up to its deadline,
    found by union-find: a free slot is a root, a full slot t is linked to
    t - 1, and slot 0, never filled, means none is free.

    ``e`` fits iff ``_root(min(d_e, n)) > 0``.  No set of at most n jobs
    needs a slot past n, so a later deadline is capped at n.  This is exact
    under any insertion order: if ``e`` finds no free slot, let ``m >=
    min(d_e, n)`` be maximal with slots 1..m all full.  A member due after
    ``m`` would have taken slot ``m + 1``, which has been free all along, so
    with ``e`` that makes ``m + 1`` jobs due by ``m``.
    """

    def __init__(self, deadlines, n, start):
        self.deadlines, self.n, self.parent = deadlines, n, {}
        for e in start:
            self.add(e)

    def fits(self, e):
        return self._root(min(self.deadlines[e], self.n)) > 0

    def add(self, e):
        slot = self._root(min(self.deadlines[e], self.n))
        self.parent[slot] = slot - 1


class _SlackSlots:
    """Deadline exchange: ``slack[t] = t - #{members due by slot t}`` for t <= n.

    A set is independent iff no slack is negative, so ``e`` fits iff no slot
    from its deadline on is tight (slack 0), that is iff its deadline is past
    ``last_tight``, the last tight slot.  Slot 0 is always tight, so
    ``last_tight`` is 0 when no real slot is.  Deadlines are capped at n, as
    in ``_LatestFreeSlot``.  ``remove`` raises every slack from the deadline
    on, so the new last tight slot is the last zero below it.  As the greedy's
    extender it took 0.94 ms per greedy at n = 200, ``_LatestFreeSlot`` 0.18.
    """

    def __init__(self, deadlines, n, start):
        self.deadlines = deadlines
        due = [0] * (n + 1)
        for e in start:
            due[min(deadlines[e], n)] += 1
        self.slack = [t - members for t, members in enumerate(accumulate(due))]
        self.last_tight = max(t for t, slack in enumerate(self.slack) if slack == 0)

    def fits(self, e):
        return self.deadlines[e] > self.last_tight

    def add(self, e):
        slack = self.slack
        for t in range(min(self.deadlines[e], len(slack) - 1), len(slack)):
            slack[t] -= 1
            if slack[t] == 0:
                self.last_tight = t

    def remove(self, e):
        slack = self.slack
        start = min(self.deadlines[e], len(slack) - 1)
        for t in range(start, len(slack)):
            slack[t] += 1
        if self.last_tight >= start:
            t = start - 1
            while slack[t]:
                t -= 1
            self.last_tight = t


def _json_ids(value, what):
    """``value`` if it is a list of element ids (strings)."""
    if not isinstance(value, list) or not all(isinstance(e, str) for e in value):
        raise InputError(f"{what} must be a list of element ids")
    return value


def _json_edge(edge):
    """``edge`` if it is ``[id, u, v]`` with string or integer endpoints."""
    if (
        not isinstance(edge, list) or len(edge) != 3 or not isinstance(edge[0], str)
        or not all(isinstance(x, str) or is_int(x) for x in edge[1:])
    ):
        raise InputError(f"graphic edge must be [id, u, v] with string or integer "
                         f"endpoints, got {edge!r}")
    return edge


def _json_list(obj, key, kind):
    value = obj.get(key)
    if not isinstance(value, list):
        raise InputError(f"{kind} matroid needs a list {key!r}")
    return value


def matroid_from_json(obj, ground):
    """Build a matroid over ``ground`` from its wire-format description;
    raises InputError unless every field has its JSON type."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("matroid spec must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "uniform":
        return UniformMatroid(ground, obj.get("rank"))
    if kind == "free":
        return FreeMatroid(ground)
    if kind == "partition":
        blocks = _json_list(obj, "blocks", kind)
        if not all(isinstance(b, dict) for b in blocks):
            raise InputError("partition blocks must be objects")
        return PartitionMatroid(ground, (
            (_json_ids(b.get("members"), "partition members"), b.get("capacity"))
            for b in blocks
        ))
    if kind == "graphic":
        m = GraphicMatroid([_json_edge(edge) for edge in _json_list(obj, "edges", kind)])
        if m.ground != tuple(ground):
            raise InputError("graphic edge labels must match the element list exactly")
        return m
    if kind == "deadline":
        deadlines = obj.get("deadlines")
        if not isinstance(deadlines, dict):
            raise InputError("deadline matroid needs an object 'deadlines'")
        return DeadlineMatroid(ground, deadlines)
    if kind == "explicit":
        return ExplicitMatroid(ground, [_json_ids(s, "explicit independent set")
                                        for s in _json_list(obj, "independents", kind)])
    raise InputError(f"unknown matroid kind {kind!r}")


def set_weight(weights, s):
    """Total weight of an element set (0 for the empty set)."""
    total = ZERO
    for e in s:
        total += weights[e]
    return total


def descending(ids, key):
    """``ids`` by the integers ``key`` descending, ties to the smaller id: a
    stable descending sort of the id-sorted list."""
    return sorted(sorted(ids), key=key.__getitem__, reverse=True)


def weight_order(ids, weights):
    """``ids`` by weight descending, ties to the smaller id.

    The keys are the weights as integers over their common denominator,
    which keep the order and the ties exactly.
    """
    _, scaled = scale_to_integers([weights[e] for e in ids])
    return descending(ids, dict(zip(ids, scaled)))


def max_weight_independent_set(matroid, weights, order=None):
    """Maximum-weight independent set by the standard matroid greedy.

    Deterministic tie-break: weight descending, then element id ascending;
    ``order`` is the ground set already in ``weight_order``, if the caller
    has it.  Returns the empty set for an empty ground set.  Weights must be
    positive, so the optimum is also inclusion-maximal.
    """
    if order is None:
        order = weight_order(matroid.ground, weights)
    grow = matroid.extender()
    chosen = []
    for e in order:
        if grow.fits(e):
            grow.add(e)
            chosen.append(e)
    return frozenset(chosen)
