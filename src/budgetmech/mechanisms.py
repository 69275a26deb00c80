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
and ``OneBidRunner`` answers such runs from them.
"""

from bisect import bisect_left
from dataclasses import dataclass
from math import lcm
from typing import Optional

from .errors import InputError
from .intersection import IntersectionSpec
from .matroids import Matroid, descending, max_weight_independent_set
from .rationals import ZERO, mpq, scale_to_integers


def _rational(value):
    """``value`` as a rational; a rational is kept as it is."""
    return value if type(value) is mpq else mpq(value)


class Instance:
    """Ground elements with public weights, private costs, declared bids, budget."""

    def __init__(self, structure, weights, true_costs, bids, budget):
        if not isinstance(structure, (Matroid, IntersectionSpec)):
            raise InputError("structure must be a Matroid or an IntersectionSpec")
        ground = set(structure.ground)
        if not ground:
            raise InputError("instance needs a nonempty ground set")
        self.structure = structure
        self.budget = _rational(budget)
        if self.budget.numerator <= 0:
            raise InputError("budget must be positive")
        self.weights = {e: _rational(v) for e, v in weights.items()}
        self.true_costs = {e: _rational(v) for e, v in true_costs.items()}
        self.bids = {e: _rational(v) for e, v in bids.items()}
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
        # bids above the budget are rejected at the file-load boundary; the
        # in-memory type tolerates them so that above-budget declarations can
        # still be traced and tested (such elements can never be paid anyway)

    def buck_per_bang(self, e):
        return self.bids[e] / self.weights[e]

    def with_bid(self, e, bid):
        """Copy of the instance where element ``e`` declares ``bid``.

        Every other field was validated when this instance was built, so only
        the new bid is converted and checked.
        """
        if e not in self.bids:
            raise InputError("bids must cover exactly the ground set")
        bid = _rational(bid)
        if bid.numerator <= 0:
            raise InputError(f"bids[{e}] must be positive")
        clone = object.__new__(type(self))
        clone.__dict__ = {**self.__dict__, "bids": {**self.bids, e: bid}}
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

    ``rate`` is None only on the exit iteration reached after every element
    has been removed (no candidate rate exists there).

    The loop records a step in integers: the order key of the element
    considered, the candidate set and its scaled weight, with the run's
    ``(value_den, rate_den)``, so ``rate = key * value_den / rate_den`` and
    ``value = weight / value_den``.  ``rate``, ``chosen`` (sorted ids) and
    ``value`` are rendered when first read.  Equality is by those values.
    """

    __slots__ = ("iteration", "removed", "_key", "_members", "_weight", "_scales",
                 "_rendered")

    def __init__(self, iteration, removed, key, members, weight, scales):
        self.iteration = iteration
        self.removed = removed
        self._key = key
        self._members = members
        self._weight = weight
        self._scales = scales
        self._rendered = None

    @classmethod
    def of(cls, iteration, rate, removed, chosen, value):
        """A step given by its rendered fields."""
        step = cls(iteration, removed, None, None, None, None)
        step._rendered = (rate, tuple(chosen), value)
        return step

    def _render(self):
        if self._rendered is None:
            value_den, rate_den = self._scales
            rate = None if self._key is None else mpq(self._key * value_den, rate_den)
            self._rendered = (rate, tuple(sorted(self._members)),
                              mpq(self._weight, value_den))
        return self._rendered

    @property
    def rate(self):
        return self._render()[0]

    @property
    def chosen(self):
        return self._render()[1]

    @property
    def value(self):
        return self._render()[2]

    def _fields(self):
        rate, chosen, value = self._render()
        return (self.iteration, rate, self.removed, chosen, value)

    def __eq__(self, other):
        if not isinstance(other, TraceStep):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

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
        return sum(self.payments.values(), ZERO)

    def utility(self, e, cost):
        """Quasi-linear utility of ``e`` at true cost ``cost``: payment minus
        cost if allocated, else payment."""
        if e in self.allocation:
            return self.payment(e) - cost
        return self.payment(e)


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
    repaired as its elements leave (``_repair``).  On an intersection
    ``start`` is no set, and ``blackbox`` is asked on the structure and the
    set excluded so far; its answer and scaled weight are kept per
    exclusion set, so every bid vector on the plan asks once per set.
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
        asked for.
        """
        reselect = self._repair if isinstance(self.structure, Matroid) else self._ask
        chosen, value = self.start
        excluded = set()
        for x in leaving:
            excluded.add(x)
            if chosen is None or x in chosen:
                chosen, value = reselect(x, chosen, value, excluded)
            yield chosen, value

    def _repair(self, x, chosen, value, excluded):
        """``B - x + f``, with ``B`` the matroid set ``chosen`` and ``f`` the
        first surviving element after ``x`` outside ``B`` that keeps it
        independent, or ``B - x`` if there is none, with its scaled weight.

        Elements before ``x`` need no test: each one outside ``B`` is
        spanned by the members of ``B`` before it, which do not include
        ``x``.  The ``f`` outside ``B`` that keep ``B - x + f`` independent
        form, with ``x``, the fundamental cocircuit of ``x`` with respect to
        ``B``; ``structure.extender(B - x).fits`` tests membership in it.
        """
        chosen = chosen - {x}
        value -= self.scaled[x]
        cocircuit = None  # built at the first candidate; often none is left
        for f in self.order[self.position[x] + 1:]:
            if f in chosen or f in excluded:
                continue
            if cocircuit is None:
                cocircuit = self.structure.extender(chosen)
            if cocircuit.fits(f):
                return chosen | {f}, value + self.scaled[f]
        return chosen, value

    def _ask(self, x, chosen, value, excluded):
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
    """
    chosen, value, tau = stop._members, stop._weight, plan.tau
    value_den, num, den = plan.value_den, budget.numerator, budget.denominator
    # budget / value <= bb_prev, with bb_prev = prev._key * value_den / prev._scales[1]
    if value > 0 and (prev is None or num * prev._scales[1] <= prev._key * den * value):
        rate = mpq(num * value_den, den * value)  # budget / value
    else:
        rate = None if prev is None else mpq(prev._key * value_den, prev._scales[1])

    if value > plan.scaled[tau]:
        branch, allocation = "set", frozenset(chosen)
        payments = {e: rate * plan.weights[e] for e in chosen}
    else:
        branch, allocation, payments = "tau", frozenset([tau]), {tau: budget}
    return {"allocation": allocation, "payments": payments, "tau": tau, "branch": branch,
            "final_rate": rate, "budget": budget}


def _run_threshold_mechanism(inst, plan):
    """The shared removal loop, on integers: walk tau and then the others in
    ``BidKeys`` order out of the candidate ground set (``Plan.walk``), and
    stop at the first candidate set that passes the budget test against the
    next element."""
    keys = BidKeys(inst.bids, inst.budget, plan)
    trace = keys.steps(plan.walk([plan.tau, *keys.order]), keys.order)
    prev = trace[-2] if len(trace) > 1 else None
    return Outcome(trace=tuple(trace), **settle(plan, inst.budget, trace[-1], prev))


def run_matroid_mechanism(inst, plan=None):
    """Budget-feasible mechanism for procuring an independent set of a matroid.

    The greedy set is computed once, in the plan, and repaired as elements
    leave the ground set (``Plan.walk``).  ``plan`` is
    ``Plan(inst.structure, inst.weights)``, built here when not given.
    """
    if not isinstance(inst.structure, Matroid):
        raise InputError("run_matroid_mechanism needs a single-matroid instance")
    if plan is None:
        plan = Plan(inst.structure, inst.weights)
    return _run_threshold_mechanism(inst, plan)


def run_intersection_mechanism(inst, blackbox, plan=None):
    """Same mechanism with the exact greedy step replaced by an APX blackbox,
    asked on the instance's own spec and the set excluded so far.  ``plan``
    is ``Plan(inst.structure, inst.weights, blackbox)``, built here when not
    given; a given plan asks its own blackbox.
    """
    if not isinstance(inst.structure, IntersectionSpec):
        raise InputError("run_intersection_mechanism needs an intersection instance")
    if plan is None:
        plan = Plan(inst.structure, inst.weights, blackbox)
    return _run_threshold_mechanism(inst, plan)


class OneBidRunner:
    """Runs a threshold mechanism on bid variants of one instance, answering
    a call that moves one bid away from the first call's from two removal
    chains of that element.

    ``run(inst)`` is the full mechanism on ``plan``, whose ``walk`` gives
    the chains too.  The first call runs in full and its bids and budget
    become the key.  Let ``e`` be the one element whose bid moved, and ``O``
    the others (tau and ``e`` aside) in the key's removal order.

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
    read the new bid, so the other fields are kept per stop.  The mechanism
    is deterministic and tau's bid is never read, so a call that moves no
    bid, or only tau's, gets the key's outcome.  Any other call (several
    bids moved, or another budget) runs in full; another budget becomes the
    new key.
    """

    def __init__(self, run, plan):
        self._run, self._plan = run, plan
        self._base = None  # (instance, outcome) of the key
        self._keys = None  # the key's BidKeys, built with the first chains
        self._chains = {}

    def __call__(self, inst):
        if self._base is None or inst.budget != self._base[0].budget:
            outcome = self._run(inst)
            self._base, self._keys, self._chains = (inst, outcome), None, {}
            return outcome
        base_bids = self._base[0].bids
        moved = [e for e, bid in inst.bids.items()
                 if bid is not base_bids[e] and bid != base_bids[e]]
        if len(moved) > 1:
            return self._run(inst)
        if not moved or moved[0] == self._plan.tau:
            return self._base[1]
        e = moved[0]
        if e not in self._chains:
            self._chains[e] = self._build(e)
        return self._answer(e, inst.bids[e])

    def _build(self, e):
        """``e``'s two chains as trace steps, ``A`` up to its first passing
        test and ``B`` up to its first passing test at or after that index,
        and for each ``k`` the index of ``B``'s first passing test from ``k``
        on."""
        if self._keys is None:
            inst = self._base[0]
            self._keys = BidKeys(inst.bids, inst.budget, self._plan)
        keys, plan = self._keys, self._plan
        others = [o for o in keys.order if o != e]
        a = keys.steps(plan.walk([plan.tau, *others]), others)
        walk = plan.walk([plan.tau, e, *others])
        next(walk)  # tau alone has left: that is A_0
        b = keys.steps(walk, others, iteration=2, until=len(a) - 1)
        next_pass = [len(b) - 1] * len(b)
        for k in range(len(b) - 2, -1, -1):
            next_pass[k] = k if b[k].removed is None else next_pass[k + 1]
        return others, a, b, next_pass, {}

    def _answer(self, e, bid):
        others, a, b, next_pass, tails = self._chains[e]
        plan, key, rate_den = self._plan, self._keys.key, self._keys.scales[1]
        budget = self._base[0].budget
        # e's key over its own scale: buck-per-bang is key_e * value_den / den_e
        key_e, den_e = bid.numerator * plan.multiplier[e], bid.denominator * plan.lcm
        p = bisect_left(others, (-key_e * rate_den, e), key=lambda o: (-key[o] * den_e, o))

        def tail(chain, k):  # the fields of a stop at chain[k], which read no bid of e
            slot = (chain is a, k)
            if slot not in tails:
                tails[slot] = settle(plan, budget, chain[k], chain[k - 1] if k else None)
            return tails[slot]

        if p >= len(a):  # A passes before e is tested
            return Outcome(trace=tuple(a), **tail(a, len(a) - 1))
        at = a[p]  # e's own budget test, as in BidKeys but at e's scale
        passed = at._weight * key_e * budget.denominator <= budget.numerator * den_e
        step = TraceStep(p + 1, None if passed else e, key_e, at._members, at._weight,
                         (plan.value_den, den_e))
        if passed:
            return Outcome(trace=(*a[:p], step), **tail(a, p))
        stop = next_pass[p]
        fields = settle(plan, budget, b[p], step) if stop == p else tail(b, stop)
        return Outcome(trace=(*a[:p], step, *b[p:stop + 1]), **fields)


def utility(inst, outcome, e):
    """``outcome.utility`` of ``e`` at its true cost in ``inst``."""
    if e not in inst.structure._ground_set:
        raise InputError(f"unknown element id {e!r}")
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
