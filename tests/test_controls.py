"""Failing controls: one small wrong mechanism per verified property.

A check that silently stopped checking would still read green, so each
property meets a mutant that breaks it (mutation testing: DeMillo, Lipton
and Sayward, "Hints on Test Data Selection", IEEE Computer 1978).  Each
mutant is monkeypatched into ``verify`` in place of a mechanism run and
swept over a prefix of the acceptance pools, fixed before any mutant was
written: seed 101 (matroid instances), 202 (bipartite instances) and 404
(XOS instances).  A test asserts that the property's check catches the
mutant at least once, and that every caught record replays as reproduced
while the mutant is installed.
"""

from dataclasses import replace
from functools import partial

import pytest

from budgetmech import Instance, verify
from budgetmech.rationals import ZERO, mpq
from budgetmech.verify import (
    DEFAULT_VERIFY_CONFIG,
    _verify_one,
    check_xos_outcome,
    check_xos_truthfulness,
    gen_xos_instance,
    load_sweep_config,
    replay_failure,
)
from budgetmech.xos import XosParams

PREFIX = 20  # instances of the seed-101 and seed-202 pools
XOS_PREFIX = 3  # instances of the seed-404 pool
XOS_TAPES = range(10)  # coin seeds run on each XOS instance
POOL_SEED = {"matroid": 101, "intersection-exact": 202, "intersection-greedy": 202}
XOS_PARAMS = dict(alpha=218, beta=mpq(9, 2), gamma=4)


# Each threshold mutant replaces ``run_matroid_mechanism(inst, plan)`` or
# ``run_intersection_mechanism(inst, blackbox, plan)``; ``real`` is the
# function it replaces and ``rest`` that function's other arguments.


def buy_tau_too(real, inst, *rest):
    """Independence: the set branch also buys tau, at its bid."""
    outcome = real(inst, *rest)
    if outcome.branch != "set":
        return outcome
    tau = outcome.tau
    return replace(outcome, allocation=outcome.allocation | {tau},
                   payments={**outcome.payments, tau: inst.bids[tau]})


def pay_bid_less(real, inst, *rest):
    """IR: each winner is paid its bid minus 10^-6."""
    outcome = real(inst, *rest)
    return replace(outcome, payments={e: inst.bids[e] - mpq(1, 10**6)
                                      for e in outcome.allocation})


def pay_a_loser(real, inst, *rest):
    """IR: the smallest loser gets a payment entry of 0."""
    outcome = real(inst, *rest)
    losers = sorted(set(inst.ground) - outcome.allocation)
    return replace(outcome, payments={**outcome.payments, **{e: ZERO for e in losers[:1]}})


def pay_101_percent(real, *args):
    """BudgetFeasible: every payment is 101% of the mechanism's (a threshold
    or an XOS run)."""
    outcome = real(*args)
    return replace(outcome, payments={e: p * mpq(101, 100)
                                      for e, p in outcome.payments.items()})


def buy_tau_alone(real, inst, *rest):
    """ApproxRatio: tau alone is bought, at the budget."""
    outcome = real(inst, *rest)
    return replace(outcome, allocation=frozenset([outcome.tau]), branch="tau",
                   payments={outcome.tau: inst.budget})


def remove_everything(real, inst, *rest):
    """Lemma1Bound: the loop runs against a budget 10^9 times smaller, so
    every element fails its budget test and leaves; tau is then bought at
    the real budget."""
    tiny = Instance(inst.structure, inst.weights, inst.true_costs, inst.bids,
                    inst.budget / 10**9)
    outcome = real(tiny, *rest)
    return replace(outcome, payments={outcome.tau: inst.budget}, budget=inst.budget)


def select_by_buck_per_bang(real, inst, *rest):
    """BidIndependence: the candidate sets maximise weight per bid, not
    weight.  The run builds its own plan on those weights (``rest[:-1]``
    drops the given one, which a run on other weights rejects)."""
    by_bid = {e: inst.weights[e] / inst.bids[e] for e in inst.ground}
    return real(Instance(inst.structure, by_bid, inst.true_costs, inst.bids, inst.budget),
                *rest[:-1])


def _install(monkeypatch, mutant):
    for name in ("run_matroid_mechanism", "run_intersection_mechanism"):
        monkeypatch.setattr(verify, name, partial(mutant, getattr(verify, name)))


def _failures(mechanism):
    """Every failure ``verify`` records for ``mechanism`` on its pool prefix."""
    cfg = load_sweep_config({"seed": POOL_SEED[mechanism], "n_range": [3, 12],
                             "deviations_per_element": 1}, DEFAULT_VERIFY_CONFIG)
    return [f for index in range(PREFIX) for report in _verify_one(cfg, mechanism, index)
            for f in report.failures]


@pytest.mark.parametrize("prop, mutant, mechanism, observed", [
    ("Independence", buy_tau_too, "matroid", "dependent"),
    ("Independence", buy_tau_too, "intersection-exact", "dependent"),
    ("IR", pay_bid_less, "matroid", ""),
    ("IR", pay_a_loser, "intersection-greedy", "payment to unallocated element"),
    ("BudgetFeasible", pay_101_percent, "intersection-exact", ""),
    ("ApproxRatio", buy_tau_alone, "matroid", "alloc"),
    ("Lemma1Bound", remove_everything, "matroid", ""),
    ("BidIndependence", select_by_buck_per_bang, "matroid", "iteration"),
    ("BidIndependence", select_by_buck_per_bang, "intersection-exact", "iteration"),
])
def test_each_property_catches_its_mutant(monkeypatch, prop, mutant, mechanism, observed):
    _install(monkeypatch, mutant)
    caught = [f for f in _failures(mechanism) if f.property == prop]
    print(f"{prop} {mutant.__name__} on {mechanism}: caught {len(caught)} times")
    assert caught
    assert all(observed in f.observed for f in caught)
    assert all(replay_failure(f.to_json()) for f in caught)


def test_the_true_mechanisms_pass_the_same_prefix():
    """Without a mutant the same sweeps record nothing, so each hit above
    is the mutant's."""
    for mechanism in POOL_SEED:
        assert not _failures(mechanism)


# The XOS mutants replace ``xos_mechanism_main``, read by ``verify`` at call
# time, with the same arguments.


def pay_t2_winners_their_bids(real, valuation, costs, bids, *rest):
    """Truthful: the sub-mechanism's winners are paid their bids."""
    outcome = real(valuation, costs, bids, *rest)
    if outcome.branch != "sub-mechanism":
        return outcome
    return replace(outcome, payments={e: bids[e] for e in outcome.allocation})


def _xos_caught(prop):
    caught = []
    for index in range(XOS_PREFIX):
        valuation, costs, budget = gen_xos_instance(404, index)
        for seed in XOS_TAPES:
            params = XosParams(seed=seed, **XOS_PARAMS)
            if prop == "Truthful":
                caught += check_xos_truthfulness(valuation, costs, budget, params,
                                                 deviations_per_element=4).failures
            else:
                outcome = verify.xos_mechanism_main(valuation, costs, costs, budget, params)
                caught += [f for f in check_xos_outcome(valuation, costs, costs, budget,
                                                        outcome, params)
                           if f.property == prop]
    return caught


@pytest.mark.parametrize("prop, mutant", [
    ("Truthful", pay_t2_winners_their_bids),
    ("BudgetFeasible", pay_101_percent),
])
def test_each_xos_property_catches_its_mutant(monkeypatch, prop, mutant):
    assert not _xos_caught(prop)
    monkeypatch.setattr(verify, "xos_mechanism_main",
                        partial(mutant, verify.xos_mechanism_main))
    caught = _xos_caught(prop)
    print(f"xos {prop} {mutant.__name__}: caught {len(caught)} times")
    assert caught
    assert all(replay_failure(f.to_json()) for f in caught)
