"""Budget-feasible procurement under XOS valuations at desk scale.

The valuation is a pointwise maximum of additive clauses.  The randomized
mechanism draws an explicit coin tape from its seed (one branch coin, then
one split bit per element in id order), so a fixed seed pins every random
choice and the realized run is a deterministic mechanism that can be
replayed under bid deviations.

Optimal subsets inside the mechanism are found by exhaustive enumeration,
which is the only exact realization for general XOS valuations; instance
size is capped accordingly.
"""

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, compress, takewhile
from typing import Optional

from .errors import CapExceeded, InputError
from .matroids import FreeMatroid, set_weight
from .mechanisms import (
    Instance,
    OneBid,
    OneBidRunner,
    Outcome,
    Payments,
    Plan,
    run_matroid_mechanism,
)
from .rationals import ZERO, as_rational, mpq, rational_isqrt, scale_to_integers

XOS_ENUMERATION_CAP = 16


class XosValuation:
    """max over additive clauses; clause weights are nonnegative rationals."""

    def __init__(self, ground, functions):
        self.ground = tuple(ground)
        ground_set = set(self.ground)
        if len(ground_set) != len(self.ground):
            raise InputError("duplicate element ids in ground set")
        self.functions = []
        for k, f in enumerate(functions):
            if set(f) != ground_set:
                raise InputError(f"clause {k} must cover exactly the ground set")
            clause = {e: as_rational(v) for e, v in f.items()}
            for e, v in clause.items():
                if v < 0:
                    raise InputError(f"clause {k} value for {e!r} is negative")
            self.functions.append(clause)
        self.functions = tuple(self.functions)
        if not self.functions:
            raise InputError("an XOS valuation needs at least one additive clause")

    @property
    def num_clauses(self):
        return len(self.functions)

    def clause_value(self, k, s):
        return set_weight(self.functions[k], s)

    def value(self, s):
        """v(S): maximum clause value; 0 on the empty set."""
        unknown = set(s) - set(self.ground)
        if unknown:
            raise InputError(f"unknown element ids: {sorted(unknown)}")
        return max(self.clause_value(k, s) for k in range(self.num_clauses))

    def best_clause(self, s):
        """Index of the clause achieving v(S); ties to the lowest index."""
        best, best_value = 0, self.clause_value(0, s)
        for k in range(1, self.num_clauses):
            v = self.clause_value(k, s)
            if v > best_value:
                best, best_value = k, v
        return best


@dataclass(frozen=True)
class XosParams:
    """Tuning constants for the sampling mechanism.

    ``gamma`` is the certified approximation factor of the additive
    sub-mechanism (4 for the one shipped here); it only enters the
    ratio analysis, never the run itself.
    """

    alpha: object
    beta: object
    gamma: object
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_rational(self.alpha))
        object.__setattr__(self, "beta", as_rational(self.beta))
        object.__setattr__(self, "gamma", as_rational(self.gamma))
        if self.alpha <= 1:
            raise InputError("alpha must exceed 1")
        if self.beta <= 0:
            raise InputError("beta must be positive")
        if self.gamma < 1:
            raise InputError("gamma must be at least 1")
        if self.alpha * self.beta - self.beta - 4 * self.alpha <= 0:
            raise InputError("alpha*beta - beta - 4*alpha must be positive (bound is vacuous)")


def partition_halves(valuation, opt, alpha):
    """Split ``opt`` into two disjoint halves each holding a constant share.

    Requires every element's clause-star value to be at most f*(opt)/alpha;
    then both returned halves carry at least ((alpha-1)/(2*alpha)) * f*(opt),
    where f* is the clause achieving v(opt).  Elements are consumed in id
    order, so the construction is deterministic.
    """
    alpha = as_rational(alpha)
    if alpha <= 1:
        raise InputError("alpha must exceed 1")
    opt = frozenset(opt)
    star = valuation.best_clause(opt)
    total = valuation.clause_value(star, opt)
    cap = total / alpha
    for e in sorted(opt):
        if valuation.functions[star][e] > cap:
            raise InputError(
                f"element {e!r} violates the partition precondition "
                f"(clause value exceeds f*(opt)/alpha)"
            )
    bound = (alpha - 1) / (2 * alpha) * total
    s1 = set()
    s1_value = ZERO
    remaining = sorted(opt)
    while remaining and s1_value < bound:
        e = remaining.pop(0)
        s1.add(e)
        s1_value += valuation.functions[star][e]
    return frozenset(s1), frozenset(remaining)


def _split_with_rng(rng, ground):
    t1, t2 = set(), set()
    for e in sorted(ground):
        (t1 if rng.getrandbits(1) else t2).add(e)
    return frozenset(t1), frozenset(t2)


def random_split(ground, seed):
    """Independent fair-coin split of ``ground``; deterministic given ``seed``."""
    return _split_with_rng(random.Random(seed), ground)


@dataclass(frozen=True)
class XosOutcome(Payments):
    """Realized run of the sampling mechanism under one fixed coin tape; the
    max-element branch leaves the fields after ``budget`` empty."""

    branch: str  # "max-element", "sub-mechanism", or "empty"
    allocation: frozenset
    payments: dict
    budget: object
    t1: frozenset = frozenset()
    t2: frozenset = frozenset()
    threshold: Optional[object] = None
    s_star: Optional[frozenset] = None
    clause_index: Optional[int] = None
    inner: Optional[Outcome] = None


def _additive_subset_sums(values, zero=ZERO):
    """Sum of every subset of ``values``, indexed by bitmask (bit j set when
    ``values[j]`` is in the subset); the empty sum is ``zero``."""
    sums = [zero] * (1 << len(values))
    for mask in range(1, 1 << len(values)):
        low = mask & (-mask)
        sums[mask] = sums[mask ^ low] + values[low.bit_length() - 1]
    return sums


def _value_table(valuation, ids):
    """v(S) of every subset S of ``ids``, indexed by bitmask (bit j set when
    ``ids[j]`` is in S): the max over clauses of each clause's subset sums."""
    clause_sums = [_additive_subset_sums([f[e] for e in ids]) for f in valuation.functions]
    return [max(sums) for sums in zip(*clause_sums)]


def _bid_totals(bids):
    """``(d, C)``: the rationals ``bids`` as integers over their common
    denominator ``d``, and ``C``, the integer bid total of every subset by
    bitmask, so a subset's bid total is ``C[mask] / d``."""
    d, scaled = scale_to_integers(bids)
    return d, _additive_subset_sums(scaled, 0)


def _opt_value_under_budget(cost, value, budget):
    """max V over the subsets with bid total at most ``budget``, for a v(S)
    table ``value = (D, V)`` of integers over their common denominator D,
    so the optimum is V / D.  On integers: ``C <= floor(budget * d)``."""
    d, C = cost
    _, V = value
    limit = budget.numerator * d // budget.denominator
    return max(compress(V, map(limit.__ge__, C)))


def _one_bid_optima(ids, cost, value, budget):
    """For each element j of ``ids``, by id, ``(without, costs, best, bid,
    d)``: the max integer value V over the subsets without j with bid total
    at most ``budget``; the integer bid totals of the subsets with j,
    ascending; ``best[k]``, the max V over the first k + 1 of them; and j's
    bid as an integer over the bid scale ``d``.  Changing j's bid alone by
    D moves every total with j by D and no other, so the optimum under
    ``budget`` is the larger of ``without`` and ``best[k - 1]``, k =
    bisect_right(costs, (budget - D) * d) (``without`` alone when k is 0).
    O(k 2^k) for k ids."""
    d, C = cost
    _, V = value
    limit = budget.numerator * d // budget.denominator
    rows = {}
    for j, e in enumerate(ids):
        bit = 1 << j
        without = max(v for m, (c, v) in enumerate(zip(C, V)) if not m & bit and c <= limit)
        pairs = sorted((c, v) for m, (c, v) in enumerate(zip(C, V)) if m & bit)
        best = list(accumulate((v for _, v in pairs), max))
        rows[e] = without, [c for c, _ in pairs], best, C[bit], d
    return rows


def _optimum_at_shift(entry, budget, bid, base_bid):
    """The integer optimum V under ``budget`` once j's bid moves from
    ``base_bid`` to ``bid``, read off j's ``_one_bid_optima`` entry.  A
    total C with j fits when C + (bid - base_bid) * d <= budget * d; times
    q * b, the denominators of the new bid and the budget, that is a test
    of C against one integer floor."""
    without, costs, best, base, d = entry
    q, b = bid.denominator, budget.denominator
    k = bisect_right(costs, (budget.numerator * d * q + (base * q - bid.numerator * d) * b)
                     // (q * b))
    return max(without, best[k - 1]) if k else without


def _ranks(cost, value, threshold):
    """``(slope, ranks)``: an iterator over the rank ``(K, C)`` of every
    subset by bitmask, the smaller the better in the surplus order.  ``C``
    is the integer bid total of ``_bid_totals`` over its scale d, and K =
    (threshold * bids(S) - v(S)) * t_den * d * D = slope * C - t_den * d *
    V, where threshold = t_num / t_den, v(S) = V / D (``value = (D, V)``)
    and slope = t_num * D.  The ranks are made lazily: a list of 2^k tuples
    fragments the allocator's arenas and raises the process's peak
    memory."""
    d, C = cost
    D, V = value
    slope, scale = threshold.numerator * D, threshold.denominator * d
    return slope, zip((slope * c - scale * v for c, v in zip(C, V)), C)


def _members(ids, mask):
    """The id tuple of ``mask``, in ``ids`` order."""
    return tuple(e for j, e in enumerate(ids) if mask >> j & 1)


def _argmax_surplus(ids, cost, value, threshold):
    """argmax over subsets of ``ids`` of v(S) - threshold * bids(S).

    Ties: smaller bid total, then lexicographically smallest id set.  The
    empty set (objective 0, cost 0) is always a candidate.  The order is
    the least rank of ``_ranks``, then the smaller id tuple, found in two
    lazy passes over the ranks.
    """
    best = min(_ranks(cost, value, threshold)[1])
    _, ranks = _ranks(cost, value, threshold)
    return frozenset(min(_members(ids, m) for m, r in enumerate(ranks) if r == best))


def _class_winners(ids, cost, value, threshold):
    """For each element e of ``ids``, by id, ``(inn, out, bid, d, slope)``:
    the best subset with e and the best without e (the empty set included)
    in ``_argmax_surplus``'s order, each as its rank ``(K, C, id tuple)``
    (``_ranks``), so the smaller rank is the better set; e's bid as an
    integer over the bid scale d; and the slope of K in C.  Changing e's
    bid alone by D adds (slope, 1) * D * d to the rank of every set with e,
    so both stay the best of their class.  O(k 2^k) for k ids."""
    d, C = cost
    slope, ranks = _ranks(cost, value, threshold)
    ranks = list(ranks)
    order = sorted(range(len(ranks)), key=ranks.__getitem__)

    def winner(bit, side):
        i = next(i for i, m in enumerate(order) if bool(m & bit) is side)
        best = ranks[order[i]]
        tied = takewhile(lambda m: ranks[m] == best, order[i:])
        return (*best, min(_members(ids, m) for m in tied if bool(m & bit) is side))

    return {e: (winner(1 << j, True), winner(1 << j, False), C[1 << j], d, slope)
            for j, e in enumerate(ids)}


def _argmax_at_shift(entry, threshold, bid, base_bid):
    """The surplus argmax at ``threshold`` once e's bid moves from
    ``base_bid`` to ``bid``, read off e's ``_class_winners`` entry: both
    ranks over the new bid's denominator q, where the move is (bid -
    base_bid) * d * q on integers."""
    (deficit, cost, ids), out, base, d, slope = entry
    q = bid.denominator
    shift = bid.numerator * d - base * q
    return frozenset(min((deficit * q + slope * shift, cost * q + shift, ids),
                         (out[0] * q, out[1] * q, out[2]))[2])


class _ChosenSet:
    """The bid-free part of the sub-mechanism on one chosen T2 set: the
    clause achieving its value (``clause_index``, ties to the lowest index;
    None for the empty set) and the free matroid and weights over its
    sorted ``members``.

    A chosen set never holds a member that its best clause values at 0:
    dropping one keeps v(S) and lowers the bid total, so neither the full
    argmax nor an answer read off ``_class_winners`` chooses such a set.

    ``run`` hands its bids and budget to the ``OneBid`` of one
    ``OneBidRunner`` over one ``Plan``, so a run that moves no member's bid
    (tau aside) away from the first run's gets that run's outcome, and one
    that moves one such bid is answered from the runner's chains.  Only a
    full run builds an inner ``Instance``, and it calls
    ``run_matroid_mechanism`` as a module global, at call time.
    """

    def __init__(self, valuation, s_star):
        self.clause_index = valuation.best_clause(s_star) if s_star else None
        self.members = sorted(s_star)
        if self.members:
            clause = valuation.functions[self.clause_index]
            self.matroid = FreeMatroid(self.members)
            self.weights = {e: clause[e] for e in self.members}
            self._plan = Plan(self.matroid, self.weights)
            self._one = OneBidRunner(self._plan).one

    def run(self, true_costs, bids, budget):
        """The inner ``Outcome`` at ``bids``, or None for the empty set."""
        if not self.members:
            return None
        return self._one(bids, budget, lambda: run_matroid_mechanism(Instance(
            self.matroid, self.weights, {e: true_costs[e] for e in self.members},
            {e: bids[e] for e in self.members}, budget), self._plan))


class XosPlan:
    """The bid-free part of one seeded run of ``xos_mechanism_main``, and
    the only reader of its subset tables.

    The coin tape is drawn from ``params.seed`` alone, so the branch coin
    (``take_max_element``), the split ``t1``/``t2`` (ids sorted in
    ``t1_ids``/``t2_ids``), the max-element winner ``star`` and the v(S)
    tables of both halves (``t1_value``, ``t2_value``: each ``_value_table``
    as ``(D, V)``, its integers over their common denominator) read no bid.
    The tables are built only on the sampling branch, where a run reads
    them; on the max-element branch they are None.  The kernels are pure
    functions of the tables (``cost``, the integer bid totals of
    ``_bid_totals``, and ``value`` by subset bitmask) that compare integers
    only, read as module globals at call time.

    Each half reads only its own bids, so each is a ``mechanisms.OneBid``
    whose base is the first run through the plan: T1's integer optimum V
    under the budget, with ``_one_bid_optima`` rows read by
    ``_optimum_at_shift``, and T2's surplus argmax at the threshold, with
    ``_class_winners`` rows read by ``_argmax_at_shift``.  The plan also
    keeps the last threshold under its integers (``threshold``).  The keys
    are exact, so a run through a plan gives the outcome of a run without
    one.

    ``chosen(s_star)`` keeps one ``_ChosenSet`` per chosen T2 set for the
    plan's life, built at the first run that chooses the set: the best
    clause, the inner free matroid and weights, and the inner ``OneBid``.

    ``valuation``, ``ground`` (a frozenset) and ``seed`` name what the plan
    was built from, so a run can reject a plan built for another.
    """

    def __init__(self, valuation, params):
        ground = valuation.ground
        if not ground:
            raise InputError("mechanism needs a nonempty ground set")
        if len(ground) > XOS_ENUMERATION_CAP:
            raise CapExceeded(
                "XOS mechanism enumerates subsets exhaustively; "
                f"reduce n to at most {XOS_ENUMERATION_CAP}"
            )
        rng = random.Random(params.seed)
        self.take_max_element = bool(rng.getrandbits(1))
        self.t1, self.t2 = _split_with_rng(rng, ground)
        self.t1_ids, self.t2_ids = t1_ids, t2_ids = sorted(self.t1), sorted(self.t2)
        self.star = self.t1_value = self.t2_value = None
        if self.take_max_element:
            self.star = min(ground, key=lambda e: (-valuation.value(frozenset([e])), e))
        else:
            self.t1_value = scale_to_integers(_value_table(valuation, t1_ids))
            self.t2_value = scale_to_integers(_value_table(valuation, t2_ids))
        self._t1 = OneBid(t1_ids, lambda budget, bids: _one_bid_optima(
            t1_ids, _bid_totals([bids[e] for e in t1_ids]), self.t1_value, budget),
            _optimum_at_shift)
        self._t2 = OneBid(t2_ids, lambda threshold, bids: _class_winners(
            t2_ids, _bid_totals([bids[e] for e in t2_ids]), self.t2_value, threshold),
            _argmax_at_shift)
        self.valuation, self.ground, self.seed = valuation, frozenset(ground), params.seed
        self._threshold_key = self._threshold = None
        self._chosen = {}

    def t1_optimum(self, bids, budget):
        """max V over S within T1 with bid total at most ``budget``: v(S) =
        V / D over the T1 table's denominator, an integer."""
        return self._t1(bids, budget, lambda: _opt_value_under_budget(
            _bid_totals([bids[e] for e in self.t1_ids]), self.t1_value, budget))

    def threshold(self, t1_optimum, budget, beta):
        """``(t1_optimum / D) / (beta * budget)`` for the integer T1 optimum
        over the T1 table's denominator D, built from integers and kept
        under them, so a run that repeats them gets the same object and the
        T2 half's level test matches it by identity."""
        key = t1_optimum, budget.numerator, budget.denominator, beta.numerator, beta.denominator
        if key != self._threshold_key:
            v, b_num, b_den, beta_num, beta_den = key
            self._threshold_key = key
            self._threshold = mpq(v * beta_den * b_den, self.t1_value[0] * beta_num * b_num)
        return self._threshold

    def t2_argmax(self, bids, threshold):
        """``_argmax_surplus`` over T2."""
        return self._t2(bids, threshold, lambda: _argmax_surplus(
            self.t2_ids, _bid_totals([bids[e] for e in self.t2_ids]), self.t2_value, threshold))

    def t2_breakpoints(self):
        """Bid level of each T2 element above which the surplus argmax at the
        first run's T2 bids and threshold leaves it out and below which it
        keeps it, read off the ``_class_winners`` table there; empty before
        a run has reached T2 and unless that threshold is positive."""
        if self._t2.base is None or self._t2.base[0].numerator <= 0:
            return {}
        # the rank with e gains slope in K per unit of C, so the two ranks'
        # K meet (K_out - K_in) / slope above e's bid, both over d
        return {e: mpq(bid * slope + out[0] - inn[0], slope * d)
                for e, (inn, out, bid, d, slope) in self._t2.entries().items()}

    def chosen(self, s_star):
        """The ``_ChosenSet`` of the chosen T2 set ``s_star``."""
        if s_star not in self._chosen:
            self._chosen[s_star] = _ChosenSet(self.valuation, s_star)
        return self._chosen[s_star]


def xos_mechanism_main(valuation, true_costs, bids, budget, params, plan=None):
    """One seeded run of the random-sampling XOS mechanism.

    Coin tape: the first bit decides between buying the single most valuable
    element at the full budget and running the sampling pipeline; then one
    bit per element (id order) splits the ground set into T1/T2.  T1 is only
    used to calibrate the surplus threshold; the buyer then takes the best
    thresholded subset of T2 and hands it to the additive sub-mechanism
    (the matroid mechanism on a free matroid) under the clause achieving its
    value.  The mechanism reads declared bids, never true costs; both maps
    must cover exactly the ground set, and every call checks all of them.

    ``plan`` is ``XosPlan(valuation, params)``, built here when not given;
    pass one to share it across runs that differ only in bids and budget.
    A plan built from another valuation object or seed raises InputError.
    A shared plan answers from what it keeps: the T1 optimum, threshold and
    T2 argmax (``XosPlan.t1_optimum``, ``XosPlan.threshold``,
    ``XosPlan.t2_argmax``) and, per chosen set, the best clause and the
    inner runner (``XosPlan.chosen``).  Bids that are rationals already are
    kept as they are, so the plan compares them by identity first.
    """
    if plan is None:
        plan = XosPlan(valuation, params)
    elif valuation is not plan.valuation or params.seed != plan.seed:
        raise InputError("plan was built from another valuation or seed")
    for name, values in (("bids", bids), ("true_costs", true_costs)):
        if values.keys() != plan.ground:
            raise InputError(f"{name} must cover exactly the ground set")
    ground = valuation.ground
    budget = as_rational(budget)
    bids = {e: as_rational(bids[e]) for e in ground}
    true_costs = {e: as_rational(true_costs[e]) for e in ground}
    # bid > budget in integers, as in the loader: denominators are positive
    num, den = budget.numerator, budget.denominator
    for e in ground:
        bid = bids[e]
        if bid.numerator <= 0 or bid.numerator * den > num * bid.denominator:
            raise InputError(f"bid of {e!r} must lie in (0, budget]")
        if true_costs[e].numerator <= 0:
            raise InputError(f"true_costs[{e}] must be positive")

    if plan.take_max_element:
        return XosOutcome(
            branch="max-element",
            allocation=frozenset([plan.star]),
            payments={plan.star: budget},
            budget=budget,
        )

    threshold = plan.threshold(plan.t1_optimum(bids, budget), budget, params.beta)
    s_star = plan.t2_argmax(bids, threshold)
    chosen = plan.chosen(s_star)
    inner = chosen.run(true_costs, bids, budget)
    return XosOutcome(
        branch="empty" if inner is None else "sub-mechanism",
        allocation=frozenset() if inner is None else inner.allocation,
        payments={} if inner is None else dict(inner.payments),
        budget=budget,
        t1=plan.t1,
        t2=plan.t2,
        threshold=threshold,
        s_star=s_star,
        clause_index=chosen.clause_index,
        inner=inner,
    )


def xos_objective(alpha, beta, gamma):
    """Worst-case guarantee of the sampling mechanism as a function of its knobs.

    The three branches are the heavy-single-element case and the two
    threshold cases; gamma is the sub-mechanism's approximation factor.
    Every knob must be positive, else InputError.
    """
    # with alpha = A/a, beta = B/b, gamma = G/g the branches are, in order,
    # over the one denominator 32GAB: 16aGB, (A - a)gb and 2(AB - aB - 4Ab)g
    alpha, beta, gamma = map(as_rational, (alpha, beta, gamma))
    A, a, B, b = alpha.numerator, alpha.denominator, beta.numerator, beta.denominator
    G, g = gamma.numerator, gamma.denominator
    if min(A, B, G) <= 0:
        raise InputError("alpha, beta and gamma must be positive")
    branches = (16 * a * G * B, (A - a) * g * b, 2 * (A * B - a * B - 4 * A * b) * g)
    return mpq(min(branches), 32 * G * A * B)


def optimize_constant(gamma):
    """Best (alpha, beta) for the sampling mechanism and the resulting ratio.

    Closed form: the three objective branches are monotone in opposite
    directions, so the optimum equalizes them; that reduces to one quadratic
    in alpha.  Returns exact rationals close to the (irrational) optimum and
    the reciprocal of the objective evaluated exactly at that point.
    """
    gamma = as_rational(gamma)
    if gamma < 1:
        raise InputError("gamma must be at least 1")
    trace_coeff = 2 + 72 * gamma
    constant = 8 * gamma + 1
    disc = trace_coeff * trace_coeff - 4 * constant
    alpha = (trace_coeff + rational_isqrt(disc)) / 2
    beta = (alpha - 1) / (16 * gamma)
    ratio = 1 / xos_objective(alpha, beta, gamma)
    return alpha, beta, ratio
