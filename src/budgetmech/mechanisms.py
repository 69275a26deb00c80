"""Budget-feasible procurement mechanisms with proportional payments.

Both mechanisms share one control flow: set aside the heaviest element tau,
walk the remaining elements in non-increasing buck-per-bang order removing
unaffordable prefixes, then either buy the surviving max-weight (or blackbox)
set at a uniform per-weight rate or buy tau alone at the full budget.

The per-iteration rate refresh (r = bb of the element currently considered)
is deliberate: it is what makes the removal loop terminate and is the form
the truthfulness argument needs.  Bids enter only through the buck-per-bang
order and the budget test; the candidate sets themselves are computed from
public weights alone.
"""

import copy
from dataclasses import dataclass
from typing import Optional

from .errors import InputError
from .intersection import IntersectionSpec
from .matroids import Matroid, max_weight_independent_set, set_weight, weight_order
from .rationals import ZERO, mpq


class Instance:
    """Ground elements with public weights, private costs, declared bids, budget."""

    def __init__(self, structure, weights, true_costs, bids, budget):
        if not isinstance(structure, (Matroid, IntersectionSpec)):
            raise InputError("structure must be a Matroid or an IntersectionSpec")
        ground = set(structure.ground)
        if not ground:
            raise InputError("instance needs a nonempty ground set")
        self.structure = structure
        self.budget = mpq(budget)
        if self.budget <= 0:
            raise InputError("budget must be positive")
        self.weights = {e: mpq(v) for e, v in weights.items()}
        self.true_costs = {e: mpq(v) for e, v in true_costs.items()}
        self.bids = {e: mpq(v) for e, v in bids.items()}
        for name, vec in (
            ("weights", self.weights),
            ("true_costs", self.true_costs),
            ("bids", self.bids),
        ):
            if set(vec) != ground:
                raise InputError(f"{name} must cover exactly the ground set")
            for e, v in vec.items():
                if v <= 0:
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
        bid = mpq(bid)
        if bid <= 0:
            raise InputError(f"bids[{e}] must be positive")
        clone = copy.copy(self)
        clone.bids = {**self.bids, e: bid}
        return clone

    def truthful(self):
        """Copy where every element bids its true cost."""
        return Instance(
            self.structure, self.weights, self.true_costs, dict(self.true_costs), self.budget
        )

    @property
    def ground(self):
        return self.structure.ground


@dataclass(frozen=True)
class TraceStep:
    """One loop iteration: the rate tested, the set computed, the removal (if any).

    ``rate`` is None only on the exit iteration reached after every element
    has been removed (no candidate rate exists there).
    """

    iteration: int
    rate: Optional[object]
    removed: Optional[str]
    chosen: tuple
    value: object


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

    def value(self, weights):
        return set_weight(weights, self.allocation)


def _pick_tau(ground, weights):
    # maximum weight, ties to the smallest element id (max keeps the first)
    return max(sorted(ground), key=weights.__getitem__)


def _run_threshold_mechanism(inst, exclude):
    """The shared removal loop.

    ``exclude(e)`` removes ``e`` from the candidate ground set and returns the
    candidate set on what survives together with its weight.  It is called
    first with tau, then with each removed element in turn.
    """
    weights, budget = inst.weights, inst.budget
    tau = _pick_tau(inst.ground, weights)
    bb = {e: inst.buck_per_bang(e) for e in inst.ground if e != tau}
    others = sorted(sorted(bb), key=bb.__getitem__, reverse=True)

    chosen, value = exclude(tau)
    trace = []
    i = 1
    while True:
        if i > len(others):
            trace.append(TraceStep(i, None, None, tuple(sorted(chosen)), value))
            break
        rate_i = bb[others[i - 1]]
        if value * rate_i > budget:
            trace.append(
                TraceStep(i, rate_i, others[i - 1], tuple(sorted(chosen)), value)
            )
            chosen, value = exclude(others[i - 1])
            i += 1
        else:
            trace.append(TraceStep(i, rate_i, None, tuple(sorted(chosen)), value))
            break

    bb_prev = None if i == 1 else bb[others[i - 2]]  # None = +inf
    if value > 0:
        rate = budget / value if bb_prev is None else min(budget / value, bb_prev)
    else:
        rate = bb_prev

    if value > weights[tau]:
        branch, allocation = "set", frozenset(chosen)
        payments = {e: rate * weights[e] for e in chosen}
    else:
        branch, allocation, payments = "tau", frozenset([tau]), {tau: budget}
    return Outcome(
        allocation=allocation,
        payments=payments,
        tau=tau,
        branch=branch,
        final_rate=rate,
        trace=tuple(trace),
        budget=budget,
    )


def run_matroid_mechanism(inst):
    """Budget-feasible mechanism for procuring an independent set of a matroid.

    The greedy set ``B`` (weight descending, id ascending) is computed once
    and repaired as elements leave the ground set: excluding ``x`` not in
    ``B`` changes nothing; excluding ``x`` in ``B`` gives ``B - x + f``, with
    ``f`` the first surviving element after ``x`` outside ``B`` that keeps
    it independent, or ``B - x`` if there is none.  Elements before ``x``
    need no test: each one outside ``B`` is spanned by the members of ``B``
    before it, which do not include ``x``.  The ``f`` outside ``B`` that keep
    ``B - x + f`` independent form, with ``x``, the fundamental cocircuit of
    ``x`` with respect to ``B``; ``structure.extender(B - x).fits`` tests
    membership in it.
    """
    if not isinstance(inst.structure, Matroid):
        raise InputError("run_matroid_mechanism needs a single-matroid instance")
    structure, weights = inst.structure, inst.weights
    order = weight_order(structure.ground, weights)
    position = {e: k for k, e in enumerate(order)}
    excluded = set()
    chosen = max_weight_independent_set(structure, weights)
    value = set_weight(weights, chosen)

    def exclude(x):
        nonlocal chosen, value
        excluded.add(x)
        if x in chosen:
            chosen = chosen - {x}
            value -= weights[x]
            cocircuit = None  # built at the first candidate; often none is left
            for f in order[position[x] + 1:]:
                if f in chosen or f in excluded:
                    continue
                if cocircuit is None:
                    cocircuit = structure.extender(chosen)
                if cocircuit.fits(f):
                    chosen = chosen | {f}
                    value += weights[f]
                    break
        return chosen, value

    return _run_threshold_mechanism(inst, exclude)


def run_intersection_mechanism(inst, blackbox):
    """Same mechanism with the exact greedy step replaced by an APX blackbox.

    A blackbox is an arbitrary approximation with no exchange property, so it
    is asked again after every exclusion, on the instance's own spec and the
    set excluded so far.
    """
    if not isinstance(inst.structure, IntersectionSpec):
        raise InputError("run_intersection_mechanism needs an intersection instance")
    excluded = set()

    def exclude(x):
        excluded.add(x)
        chosen = blackbox(inst.structure, inst.weights, excluded)
        return chosen, set_weight(inst.weights, chosen)

    return _run_threshold_mechanism(inst, exclude)


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
