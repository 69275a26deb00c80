"""Budget-feasible procurement mechanisms with proportional payments.

Both mechanisms share one control flow: set aside the heaviest element tau,
walk the remaining elements in non-increasing buck-per-bang order removing
unaffordable prefixes, then either buy the surviving max-weight (or blackbox)
set at a uniform per-weight rate or buy tau alone at the full budget.

The per-iteration rate refresh (r = bb of the element currently considered)
is deliberate: it is what makes the removal loop terminate and is the form
the truthfulness argument needs.  Bids enter only through the buck-per-bang
order and the budget test; the candidate sets themselves are computed from
public weights alone.  So the bid-free part (tau, the weight order, integer
weights and every candidate set) is a ``Plan`` built once per structure and
weight vector, and the loop itself compares integers.  For the same
reason a run where one bid moved visits only two chains of candidate sets,
and ``OneBidRunner`` answers such runs from them through ``OneBid``, the
one-bid protocol that the XOS plan shares.
"""

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from math import lcm
from types import MappingProxyType
from typing import Optional

from .errors import InputError
from .intersection import IntersectionSpec
from .matroids import Matroid, descending, max_weight_independent_set
from .rationals import ZERO, as_rational, moved, mpq, same, scale_to_integers


class Instance:
    """Ground elements with public weights, private costs, declared bids, budget.

    The structure has no loop, an element in no independent set: the tau
    branch buys tau alone without asking the structure, so a loop as tau
    would be bought.

    ``bids`` is a read-only ``MappingProxyType`` over a dict that no one
    else holds, so two bids mappings that are the same object hold the same
    bids.  ``origin`` is None on a constructed instance; ``with_bid`` sets
    it on its copy (see there).
    """

    def __init__(self, structure, weights, true_costs, bids, budget):
        if not isinstance(structure, (Matroid, IntersectionSpec)):
            raise InputError("structure must be a Matroid or an IntersectionSpec")
        ground = set(structure.ground)
        if not ground:
            raise InputError("instance needs a nonempty ground set")
        loops = structure.loops()
        if loops:
            raise InputError(f"element {loops[0]!r} is a loop: no independent set holds it")
        self.structure = structure
        self.budget = as_rational(budget)
        if self.budget.numerator <= 0:
            raise InputError("budget must be positive")
        self.weights = {e: as_rational(v) for e, v in weights.items()}
        self.true_costs = {e: as_rational(v) for e, v in true_costs.items()}
        self.bids = MappingProxyType({e: as_rational(v) for e, v in bids.items()})
        self.origin = None
        for name, vec in (
            ("weights", self.weights),
            ("true_costs", self.true_costs),
            ("bids", self.bids),
        ):
            if set(vec) != ground:
                raise InputError(f"{name} must cover exactly the ground set")
            for e, v in vec.items():
                if v.numerator <= 0:
                    raise InputError(f"{name}[{e}] must be positive")
        # bids above the budget are rejected at the file-load boundary: the tau
        # branch pays tau the budget whatever tau bid, so a tau bidding above
        # the budget would be paid less than its bid.  The in-memory type
        # tolerates such bids so that they can still be traced and tested.

    def buck_per_bang(self, e):
        return self.bids[e] / self.weights[e]

    def with_bid(self, e, bid):
        """Copy of the instance where element ``e`` declares ``bid``.

        Every other field was validated when this instance was built, so only
        the new bid is converted and checked.  The copy's ``origin`` is
        ``(self.bids, e)``: its bids are ``self.bids`` with only ``e``'s
        replaced, which ``OneBid`` reads as a hint instead of comparing
        every bid.
        """
        if e not in self.bids:
            raise InputError("bids must cover exactly the ground set")
        bid = as_rational(bid)
        if bid.numerator <= 0:
            raise InputError(f"bids[{e}] must be positive")
        bids = self.bids.copy()
        bids[e] = bid
        clone = object.__new__(type(self))
        clone.__dict__ = {**self.__dict__, "bids": MappingProxyType(bids),
                          "origin": (self.bids, e)}
        return clone

    def truthful(self):
        """Copy where every element bids its true cost."""
        return Instance(
            self.structure, self.weights, self.true_costs, dict(self.true_costs), self.budget
        )

    @property
    def ground(self):
        return self.structure.ground


class TraceStep:
    """One loop iteration: the rate tested, the set computed, the removal (if any).

    A step is the loop's integers: ``key``, the order key of the element
    tested (None on the exit iteration reached after every element has been
    removed, where no candidate rate exists), ``members``, the candidate
    set, and ``weight``, its scaled weight, with the run's ``scales =
    (value_den, rate_den)``.  ``rate = key * value_den / rate_den``,
    ``chosen`` (sorted ids) and ``value = weight / value_den`` each render
    their own field on every read.

    Equality and ``repr`` are by the rendered fields, not the integers: a
    one-bid answer's step for the moved element scales its rate by that
    element's own bid denominator, so it carries other ``scales`` than the
    same step of a full run.
    """

    __slots__ = ("iteration", "removed", "key", "members", "weight", "scales")

    def __init__(self, iteration, removed, key, members, weight, scales):
        self.iteration = iteration
        self.removed = removed
        self.key = key
        self.members = members
        self.weight = weight
        self.scales = scales

    @property
    def rate(self):
        return None if self.key is None else mpq(self.key * self.scales[0], self.scales[1])

    @property
    def chosen(self):
        return tuple(sorted(self.members))

    @property
    def value(self):
        return mpq(self.weight, self.scales[0])

    def _fields(self):
        return (self.iteration, self.rate, self.removed, self.chosen, self.value)

    def __eq__(self, other):
        if not isinstance(other, TraceStep):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        iteration, rate, removed, chosen, value = self._fields()
        return (f"TraceStep(iteration={iteration!r}, rate={rate!r}, removed={removed!r}, "
                f"chosen={chosen!r}, value={value!r})")


class Payments:
    """Payment view every outcome shares: a subclass has an ``allocation``
    and a ``payments`` dict listing winners only (others pay 0)."""

    def payment(self, e):
        return self.payments.get(e, ZERO)

    @property
    def total_payment(self):
        """The payments' sum, added as integers over their common denominator."""
        d, scaled = scale_to_integers(list(self.payments.values()))
        return mpq(sum(scaled), d)

    def utility(self, e, cost):
        """Quasi-linear utility of ``e`` at true cost ``cost``: payment minus
        cost if allocated, else payment."""
        if e in self.allocation:
            return self.payment(e) - cost
        return self.payment(e)


def frozen(cls, fields):
    """A ``cls``, a frozen dataclass without ``__post_init__``, holding
    ``fields``, a dict naming every field.  Its ``__dict__`` is filled in one
    step, where ``__init__`` pays one ``object.__setattr__`` per field;
    equality, ``repr`` and frozenness are the dataclass's own."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class Outcome(Payments):
    """Allocation plus payments of a threshold mechanism."""

    allocation: frozenset
    payments: dict
    tau: Optional[str]
    branch: str  # "set" or "tau"
    final_rate: Optional[object]  # None encodes +infinity
    trace: tuple
    budget: object


class Plan:
    """The bid-free part of a threshold mechanism on one structure and one
    weight vector, shared by every bid vector on them.

    ``scaled[e]`` is ``w_e * value_den``, with ``value_den`` the weights'
    common denominator, so a set's weight is an integer sum.  ``lcm`` is the
    least common multiple of the scaled weights and ``multiplier[e]`` is
    ``lcm // scaled[e]``: for bids ``P_e / d`` over a common denominator
    ``d``, ``P_e * multiplier[e]`` is buck-per-bang times ``d * lcm /
    value_den``, an integer key for the removal order.  ``order`` is the
    ground set by weight descending, ties to the smaller id; its head is tau,
    the heaviest element, and ``rest`` the others in id order.

    The plan also owns the candidate sets, which ``walk`` yields.  On a
    matroid ``start`` is the greedy set and its scaled weight, and a set is
    repaired in place as its elements leave (``_repair``), on one exchange
    structure per walk.  On an intersection ``start`` is no set, and
    ``blackbox`` is asked on the structure and the set excluded so far; its
    answer and scaled weight are kept per exclusion set, so every bid
    vector on the plan asks once per set.
    """

    def __init__(self, structure, weights, blackbox=None):
        ground = structure.ground
        self.structure, self.weights, self.blackbox = structure, weights, blackbox
        self.value_den, scaled = scale_to_integers([weights[e] for e in ground])
        self.scaled = dict(zip(ground, scaled))
        self.order = descending(ground, self.scaled)
        self.tau = self.order[0]
        self.rest = tuple(sorted(self.order[1:]))
        self.lcm = lcm(*scaled)
        self.multiplier = {e: self.lcm // self.scaled[e] for e in self.rest}
        if isinstance(structure, Matroid):
            self.position = {e: k for k, e in enumerate(self.order)}
            basis = max_weight_independent_set(structure, weights, self.order)
            self.start = basis, self.weight(basis)
        else:
            self.start, self._answers = (None, None), {}

    def weight(self, s):
        """Scaled weight of the element set ``s``."""
        return sum(self.scaled[e] for e in s)

    def walk(self, leaving):
        """The candidate set (a frozenset) and its scaled weight after each
        element of ``leaving`` has left the candidate ground set in turn.

        A new set is computed when there is none yet, and otherwise only
        when the element that leaves is in the current set: a set that
        avoids ``x`` is also the answer once ``x`` has left.  On a matroid
        the greedy scan rejected ``x``, so without ``x`` it makes the same
        choices.  On an intersection it is the contract of every
        ``ApxBlackbox``, proved for each shipped blackbox in
        ``get_blackbox``.  So each yielded set depends on the set of
        elements that have left, not on their order.

        The walk is lazy: an element leaves only when the next state is
        asked for.  On a matroid it builds one ``structure.exchange`` at its
        first repair and repairs that in place from then on.  The structure
        lives in the walk, not on the plan, because every run shares the
        plan and ``OneBidRunner`` interleaves two walks on it.
        """
        matroid = isinstance(self.structure, Matroid)
        chosen, value = self.start
        excluded, basis = set(), None
        for x in leaving:
            excluded.add(x)
            if not matroid and (chosen is None or x in chosen):
                chosen, value = self._ask(excluded)
            elif matroid and x in chosen:
                if basis is None:
                    basis = self.structure.exchange(chosen)
                chosen, value = self._repair(x, chosen, value, excluded, basis)
            yield chosen, value

    def _repair(self, x, chosen, value, excluded, basis):
        """``B - x + f``, with ``B`` the matroid set ``chosen`` and ``f`` the
        first surviving element after ``x`` outside ``B`` that keeps it
        independent, or ``B - x`` if there is none, with its scaled weight.
        ``basis`` is the walk's ``structure.exchange``, which holds ``B`` and
        is brought to the answer in place.

        Elements before ``x`` need no test: each one outside ``B`` is
        spanned by the members of ``B`` before it, which do not include
        ``x``.  The ``f`` outside ``B`` that keep ``B - x + f`` independent
        form, with ``x``, the fundamental cocircuit of ``x`` with respect to
        ``B``; after ``basis.remove(x)``, ``basis.fits`` tests membership in
        it.  ``B`` is a basis of the surviving ground set, as ``exchange``
        requires: the greedy set is one, a repair keeps one, and so does an
        element outside ``B`` leaving.
        """
        basis.remove(x)
        chosen = chosen - {x}
        value -= self.scaled[x]
        order = self.order
        for k in range(self.position[x] + 1, len(order)):
            f = order[k]
            if f in chosen or f in excluded:
                continue
            if basis.fits(f):
                basis.add(f)
                return chosen | {f}, value + self.scaled[f]
        return chosen, value

    def _ask(self, excluded):
        """The blackbox's answer with ``excluded`` left out, and its scaled
        weight, asked once per exclusion set."""
        key = frozenset(excluded)
        if key not in self._answers:
            answer = frozenset(self.blackbox(self.structure, self.weights, key))
            self._answers[key] = answer, self.weight(answer)
        return self._answers[key]


class BidKeys:
    """The bid-dependent part of one run of the removal loop, on integers.

    With the bids of the others over their common denominator ``d`` and the
    budget ``B = b_num / b_den``, element ``e``'s buck-per-bang is
    ``key[e] * value_den / rate_den`` with ``rate_den = d * lcm``.  ``order``
    is the others by key descending, ties to the smaller id: the removal
    order.  A candidate of scaled weight ``V`` fails the budget test
    ``value * rate > budget`` at ``e`` iff ``V * key[e] * b_den > b_num *
    rate_den``.  Rationals are built only for the final rate and the
    payments.
    """

    def __init__(self, bids, budget, plan):
        rest, multiplier = plan.rest, plan.multiplier
        bid_den, bid_ints = scale_to_integers([bids[e] for e in rest])
        self.key = {e: p * multiplier[e] for e, p in zip(rest, bid_ints)}
        self.order = descending(rest, self.key)
        self.budget = budget
        self.scales = (plan.value_den, bid_den * plan.lcm)

    def steps(self, walk, tested, iteration=1, until=0):
        """Trace steps of ``walk``'s states, each tested against the next
        element of ``tested`` (then None, past the last, which passes), up to
        the first passing test at index ``until`` or later.  Step ``k`` is
        iteration ``iteration + k``; a failed test removes its element."""
        key, scales, den = self.key, self.scales, self.budget.denominator
        limit = self.budget.numerator * scales[1]
        steps = []
        for k, ((chosen, value), e) in enumerate(zip(walk, [*tested, None])):
            passed = e is None or value * key[e] * den <= limit
            steps.append(TraceStep(iteration + k, None if passed else e, key.get(e),
                                   chosen, value, scales))
            if passed and k >= until:
                return steps


def settle(plan, budget, stop, prev):
    """The fields of an ``Outcome`` other than its trace, for a loop that
    stopped at trace step ``stop`` after the removal step ``prev`` (None
    when nothing was removed).

    rate = min(budget / value, bb_prev), or bb_prev when value is 0; bb_prev
    is the rate of the last removed element, +inf (None) if none was
    removed.  The set branch buys ``stop``'s set at that rate per weight,
    when it outweighs tau; the tau branch buys tau at the budget.

    The rate is ``pn * value_den / pd`` for integers ``pn / pd``: budget /
    value is ``b_num / (b_den * value)`` and bb_prev is ``prev.key /
    prev.scales[1]``.  With ``w_e = scaled[e] / value_den``, a winner's
    payment ``rate * w_e`` is ``pn * scaled[e] / pd``, one rational built
    from those integers.
    """
    chosen, value, tau = stop.members, stop.weight, plan.tau
    num, den = budget.numerator, budget.denominator
    # budget / value <= bb_prev, with bb_prev = prev.key * value_den / prev.scales[1]
    if value > 0 and (prev is None or num * prev.scales[1] <= prev.key * den * value):
        pn, pd = num, den * value
    elif prev is not None:
        pn, pd = prev.key, prev.scales[1]
    else:
        pn = pd = None
    rate = None if pn is None else mpq(pn * plan.value_den, pd)

    if value > plan.scaled[tau]:
        branch, allocation = "set", frozenset(chosen)
        payments = {e: mpq(pn * plan.scaled[e], pd) for e in chosen}
    else:
        branch, allocation, payments = "tau", frozenset([tau]), {tau: budget}
    return {"allocation": allocation, "payments": payments, "tau": tau, "branch": branch,
            "final_rate": rate, "budget": budget}


def _run_threshold_mechanism(inst, plan, blackbox):
    """The shared removal loop, on integers: walk tau and then the others in
    ``BidKeys`` order out of the candidate ground set (``Plan.walk``), and
    stop at the first candidate set that passes the budget test against the
    next element.  The two mechanisms differ only in ``blackbox``, None for
    the matroid greedy (the alpha = 1 blackbox).  ``plan`` is
    ``Plan(inst.structure, inst.weights, blackbox)``, built here when None;
    a plan built on another structure (by identity), other weights (by
    value) or another blackbox raises InputError."""
    if plan is None:
        plan = Plan(inst.structure, inst.weights, blackbox)
    elif plan.structure is not inst.structure or plan.weights != inst.weights \
            or plan.blackbox is not blackbox:
        raise InputError("plan was built from another structure, weights or blackbox")
    keys = BidKeys(inst.bids, inst.budget, plan)
    trace = keys.steps(plan.walk([plan.tau, *keys.order]), keys.order)
    prev = trace[-2] if len(trace) > 1 else None
    return frozen(Outcome, {**settle(plan, inst.budget, trace[-1], prev),
                            "trace": tuple(trace)})


def run_matroid_mechanism(inst, plan=None):
    """Budget-feasible mechanism for procuring an independent set of a matroid.

    The greedy set is computed once, in the plan, and repaired as elements
    leave the ground set (``Plan.walk``).  ``plan`` is checked or built by
    ``_run_threshold_mechanism``."""
    if not isinstance(inst.structure, Matroid):
        raise InputError("run_matroid_mechanism needs a single-matroid instance")
    return _run_threshold_mechanism(inst, plan, None)


def run_intersection_mechanism(inst, blackbox, plan=None):
    """Same mechanism with the exact greedy step replaced by an APX blackbox,
    asked on the instance's own spec and the set excluded so far."""
    if not isinstance(inst.structure, IntersectionSpec):
        raise InputError("run_intersection_mechanism needs an intersection instance")
    return _run_threshold_mechanism(inst, plan, blackbox)


class OneBid:
    """The one-bid protocol: answers for bid variants of one base call.

    ``one(bids, level, full)`` gives what the thunk ``full`` computes, which
    must be a deterministic function of ``level`` (a budget or a threshold)
    and the bids of ``ids``.  The first call runs ``full`` and is the base
    for the object's life.  A later call at the base's level that moves no
    bid of ``ids`` gets the base answer, and one that moves one bid ``e`` is
    ``read(entries()[e], level, bid, base_bid)``.  Any other call runs
    ``full``, and the last such answer is kept under its exact key, the
    level and the bids of ``ids``.  Bids and levels are compared by
    ``rationals.moved`` and ``same``: by identity first, then by value.

    ``origin``, when given, is ``(mapping, e)``: ``bids`` is ``mapping``
    with at most ``e``'s bid replaced (``Instance.with_bid``).  It is
    trusted only when ``mapping`` is the object last found equal to the
    base on ``ids``: the base call's bids, or those of a later call whose
    ``moved`` scan came back empty.  Then one ``same`` test on ``e`` finds
    which bid moved; every other call scans every id.  Only a read-only
    mapping keeps that object equal to the base, so only an ``Instance``'s
    bids come with an ``origin``.  ``table`` and ``read`` are functions of
    their inputs, never an owner's bound methods, so nothing points back.
    """

    def __init__(self, ids, table, read):
        self.ids, self._table, self._read = ids, table, read
        self.base = None  # (level, bids of ids, answer) of the first call
        self._equal = None  # the bids mapping last found equal to the base's
        self._rows = None
        self._last = (None, None), None

    def __call__(self, bids, level, full, origin=None):
        if self.base is None:
            self.base = level, {e: bids[e] for e in self.ids}, full()
            self._equal = bids
        base_level, base_bids, answer = self.base
        if same(level, base_level):
            if origin is not None and origin[0] is self._equal:
                e = origin[1]
                changed = [e] if e in base_bids and not same(bids[e], base_bids[e]) else []
            else:
                changed = moved(bids, base_bids, self.ids)
                if not changed:
                    self._equal = bids
            if not changed:
                return answer
            if len(changed) == 1:
                e = changed[0]
                return self._read(self.entries()[e], level, bids[e], base_bids[e])
        key = level, [bids[e] for e in self.ids]
        if key != self._last[0]:
            self._last = key, full()
        return self._last[1]

    def entries(self):
        """Every id's entry at the base, ``table(level, base_bids)``, a dict
        by id built whole when first asked for."""
        if self._rows is None:
            level, bids, _ = self.base
            self._rows = self._table(level, bids)
        return self._rows


class OneBidRunner:
    """Runs a threshold mechanism on bid variants of one instance through
    ``one``, a ``OneBid`` over ``plan.rest`` at the budget (tau's bid is
    never read) whose entries, each element's two removal chains, are built
    and read by partials over the plan (``_chains``, ``_chain_answer``).

    ``run(inst)`` is the full mechanism on ``plan``, whose ``walk`` gives
    the chains too; a call passes its instance's ``origin`` to ``one`` as
    the moved-bid hint.  A caller that holds bids and a budget rather than
    an instance calls ``one`` with a thunk of its own and no hint.  Let ``e`` be the one
    element whose bid moved, and ``O`` the others (tau and ``e`` aside) in
    the base's removal order.

    - A new bid for ``e`` scales every other key alike, so the others keep
      the order ``O``; only ``e``'s position ``p`` in it moves.
    - Each candidate set depends only on the set that has left
      (``Plan.walk``).  So a run visits ``A_k``, the set after tau and
      ``O[:k]`` have left, for ``k <= p``, then ``B_k``, the set after ``e``
      has left too, for ``k >= p``.
    - A budget test compares a set's value with the buck-per-bang of the
      next element.  Unless that element is ``e``, neither side reads
      ``e``'s bid, so every test on both chains has one result for every
      bid of ``e``.

    The loop stops at its first passing test: on ``A`` before ``p``, else
    ``e``'s own test against ``A_p``, else on ``B`` from ``p`` on.  Only
    ``e``'s trace step and, when the loop stops at ``B_p``, the final rate
    read the new bid, so the other fields are kept per stop.
    """

    def __init__(self, plan, run=None):
        self._run, self.plan = run, plan
        self.one = OneBid(plan.rest, partial(_chains, plan), partial(_chain_answer, plan))

    def __call__(self, inst):
        return self.one(inst.bids, inst.budget, lambda: self._run(inst), inst.origin)


def _chains(plan, budget, bids):
    """Every element's two chains as trace steps, by id, at the base's
    ``BidKeys``: ``A`` up to its first passing test and ``B`` up to its
    first passing test at or after that index, and for each ``k`` the index
    of ``B``'s first passing test from ``k`` on.  Every entry shares one
    ``ranked``, each ``(-key[o] * lcm, o)`` in removal order, ``e``'s at
    ``i``; its dicts keep the stops on ``A`` and ``B`` that read no bid of ``e``."""
    keys, table = BidKeys(bids, budget, plan), {}
    ranked = [(-keys.key[o] * plan.lcm, o) for o in keys.order]
    for i, e in enumerate(keys.order):
        others = [o for o in keys.order if o != e]
        a = keys.steps(plan.walk([plan.tau, *others]), others)
        walk = plan.walk([plan.tau, e, *others])
        next(walk)  # tau alone has left: that is A_0
        b = keys.steps(walk, others, iteration=2, until=len(a) - 1)
        next_pass = [len(b) - 1] * len(b)
        for k in range(len(b) - 2, -1, -1):
            next_pass[k] = k if b[k].removed is None else next_pass[k + 1]
        table[e] = e, i, ranked, a, b, next_pass, {}, {}
    return table


def _chain_answer(plan, entry, budget, bid, _base_bid):
    """The outcome when ``e`` bids ``bid``: ``e``'s position ``p`` in ``O`` is
    found on integers.  Times ``rate_den * lcm / value_den`` (``rate_den``
    is every step's ``scales[1]``), another element's buck-per-bang is the
    integer ``A = key[o] * lcm``, and ``e``'s, at ``bid = P / q``, is ``T /
    q`` with ``T = P * multiplier[e] * rate_den``.  For integers ``A`` and
    ``q > 0``, ``A * q > T`` exactly when ``A > f = T // q``, and ``A * q =
    T`` only when ``r = T % q`` is 0.  So ``e`` goes after every ``A > f``
    and before every ``A < f``; among the ``A = f`` it goes by id when
    ``r`` is 0 (ties to the smaller id) and first otherwise, which the
    1-tuple ``(-f,)`` encodes: it sorts below every ``(-f, o)``, whatever
    the ids' type.  ``p`` counts the others' ranks below that probe."""
    e, i, ranked, a, b, next_pass, a_stops, b_stops = entry
    key_e = bid.numerator * plan.multiplier[e]
    f, r = divmod(key_e * a[0].scales[1], bid.denominator)
    p = bisect_left(ranked, (-f, e) if r == 0 else (-f,))
    p -= i < p  # e's own base rank is below the probe
    if p >= len(a):  # A passes before e is tested: one outcome, kept under None
        if None not in a_stops:
            a_stops[None] = frozen(Outcome, {**_chain_stop(plan, a_stops, a, len(a) - 1, budget),
                                             "trace": tuple(a)})
        return a_stops[None]
    at, den_e = a[p], bid.denominator * plan.lcm  # e's own test, as in BidKeys, at e's scale
    passed = at.weight * key_e * budget.denominator <= budget.numerator * den_e
    step = TraceStep(p + 1, None if passed else e, key_e, at.members, at.weight,
                     (plan.value_den, den_e))
    if passed:
        return frozen(Outcome, {**_chain_stop(plan, a_stops, a, p, budget),
                                "trace": (*a[:p], step)})
    stop = next_pass[p]
    fields = settle(plan, budget, b[p], step) if stop == p else \
        _chain_stop(plan, b_stops, b, stop, budget)
    return frozen(Outcome, {**fields, "trace": (*a[:p], step, *b[p:stop + 1])})


def _chain_stop(plan, stops, chain, k, budget):
    """The fields of a stop at ``chain[k]``, which read no bid of ``e``,
    kept in the chain's ``stops``."""
    if k not in stops:
        stops[k] = settle(plan, budget, chain[k], chain[k - 1] if k else None)
    return stops[k]


def utility(inst, outcome, e):
    """``outcome.utility`` of ``e`` at its true cost in ``inst``."""
    inst.structure.check_members({e})
    return outcome.utility(e, inst.true_costs[e])


def first_price_greedy(inst):
    """Deliberately manipulable control mechanism for harness sensitivity checks.

    Buys elements in cheapest buck-per-bang order while the budget lasts and
    pays each winner its own bid.  Individually rational, budget feasible and
    independent, but not truthful: a winner with slack in the budget gains by
    raising its bid.
    """
    order = sorted(inst.structure.ground, key=lambda e: (inst.buck_per_bang(e), e))
    chosen = set()
    spent = ZERO
    for e in order:
        if spent + inst.bids[e] > inst.budget:
            continue
        candidate = chosen | {e}
        if inst.structure.is_independent(candidate):
            chosen = candidate
            spent += inst.bids[e]
    return Outcome(
        allocation=frozenset(chosen),
        payments={e: inst.bids[e] for e in chosen},
        tau=None,
        branch="set",
        final_rate=None,
        trace=(),
        budget=inst.budget,
    )
