"""The shared rational helpers."""

import re
from fractions import Fraction

import pytest

from budgetmech import (
    DeadlineMatroid,
    Instance,
    InputError,
    PartitionMatroid,
    UniformMatroid,
    XosParams,
    XosValuation,
    optimize_constant,
    partition_halves,
    xos_mechanism_main,
    xos_objective,
)
from budgetmech.rationals import as_rational, moved, mpq, rational_isqrt, same


def test_same_compares_by_identity_then_value():
    half = mpq(1, 2)
    assert same(half, half)
    assert same(half, mpq(2, 4))  # an equal value in a new object
    assert not same(half, mpq(1, 3))
    assert not same(half, None) and same(None, None)


def test_moved_lists_the_changed_ids_in_ids_order():
    base = {"a": mpq(1), "b": mpq(2), "c": mpq(3)}
    bids = {**base, "a": mpq(5), "c": mpq(7)}
    assert moved(bids, base, ["c", "b", "a"]) == ["c", "a"]
    assert moved(bids, base, ["a", "b", "c"]) == ["a", "c"]
    assert moved(bids, base, ["b"]) == []  # ids outside the list are not read
    assert moved(bids, base, []) == []


def test_an_equal_bid_in_a_new_object_has_not_moved():
    base = {"a": mpq(1, 3), "b": mpq(2)}
    copy = {e: mpq(b.numerator, b.denominator) for e, b in base.items()}
    assert all(copy[e] is not base[e] for e in base)
    assert moved(copy, base, base) == []
    assert moved({**copy, "b": mpq(3)}, base, base) == ["b"]


# every in-memory entry point that takes a caller's number, each called with
# ``bad`` in one numeric slot and exact values elsewhere
def _uniform():
    return UniformMatroid(["a", "b"], 1)


def _xos():
    return XosValuation(["a", "b"], [{"a": 3, "b": 2}])


ONE = {"a": mpq(1), "b": mpq(2)}
PARAMS = dict(alpha=218, beta=mpq(9, 2), gamma=4, seed=0)
ENTRY_POINTS = {
    "as_rational": lambda bad: as_rational(bad),
    "Instance weight": lambda bad: Instance(_uniform(), {**ONE, "a": bad}, ONE, ONE, 5),
    "Instance true cost": lambda bad: Instance(_uniform(), ONE, {**ONE, "b": bad}, ONE, 5),
    "Instance bid": lambda bad: Instance(_uniform(), ONE, ONE, {**ONE, "a": bad}, 5),
    "Instance budget": lambda bad: Instance(_uniform(), ONE, ONE, ONE, bad),
    "Instance.with_bid": lambda bad: Instance(_uniform(), ONE, ONE, ONE, 5).with_bid("a", bad),
    "XosValuation": lambda bad: XosValuation(["a", "b"], [{"a": 3, "b": bad}]),
    "XosParams alpha": lambda bad: XosParams(**{**PARAMS, "alpha": bad}),
    "XosParams beta": lambda bad: XosParams(**{**PARAMS, "beta": bad}),
    "XosParams gamma": lambda bad: XosParams(**{**PARAMS, "gamma": bad}),
    "xos_mechanism_main bid": lambda bad: xos_mechanism_main(
        _xos(), ONE, {**ONE, "b": bad}, 5, XosParams(**PARAMS)),
    "xos_mechanism_main true cost": lambda bad: xos_mechanism_main(
        _xos(), {**ONE, "a": bad}, ONE, 5, XosParams(**PARAMS)),
    "xos_mechanism_main budget": lambda bad: xos_mechanism_main(
        _xos(), ONE, ONE, bad, XosParams(**PARAMS)),
    "partition_halves": lambda bad: partition_halves(_xos(), {"a", "b"}, bad),
    "xos_objective": lambda bad: xos_objective(218, bad, 4),
    "optimize_constant": lambda bad: optimize_constant(bad),
    "rational_isqrt": lambda bad: rational_isqrt(bad),
}


@pytest.mark.parametrize("bad", [0.1, True], ids=["float", "bool"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_in_memory_inputs_reject_floats_and_booleans(entry, bad):
    """As the file boundary does: a float would silently break exactness
    (0.1 is not 1/10), and a bool is no number."""
    with pytest.raises(InputError, match=f"got {type(bad).__name__}"):
        ENTRY_POINTS[entry](bad)


# value checks of in-memory entry points, each with one call that fails it
# (``XosParams``'s beta check is reached from ``run --beta 0``, a case of
# ``tests/test_cli.py``'s ``ERROR_BRANCHES``)
VALUE_ERRORS = {
    "Matroid repeated id": (lambda: UniformMatroid(["a", "b", "a"], 1), InputError,
                            "duplicate element ids in ground set"),
    # a rank, capacity or deadline is an integer, never truncated to one
    "UniformMatroid rank float": (lambda: UniformMatroid(["a", "b"], 1.9), InputError,
                                  "uniform rank must be an integer, got 1.9"),
    "UniformMatroid rank bool": (lambda: UniformMatroid(["a", "b"], True), InputError,
                                 "uniform rank must be an integer, got True"),
    "UniformMatroid rank rational": (lambda: UniformMatroid(["a", "b"], Fraction(5, 2)),
                                     InputError,
                                     "uniform rank must be an integer, got Fraction(5, 2)"),
    "PartitionMatroid capacity float": (lambda: PartitionMatroid(["a", "b"], [({"a", "b"}, 1.5)]),
                                        InputError,
                                        "partition capacity must be an integer, got 1.5"),
    "DeadlineMatroid deadline float": (lambda: DeadlineMatroid(["a", "b"], {"a": 1.9, "b": 2}),
                                       InputError, "deadline of 'a' must be an integer, got 1.9"),
    "Instance structure": (lambda: Instance(_xos(), ONE, ONE, ONE, 5), InputError,
                           "structure must be a Matroid or an IntersectionSpec"),
    "XosValuation clause cover": (lambda: XosValuation(["a", "b"], [{"a": 3, "b": 2}, {"a": 1}]),
                                  InputError, "clause 1 must cover exactly the ground set"),
    "XosValuation.value unknown id": (lambda: _xos().value({"a", "zz"}), InputError,
                                      "unknown element ids: ['zz']"),
    "partition_halves alpha": (lambda: partition_halves(_xos(), {"a", "b"}, 1), InputError,
                               "alpha must exceed 1"),
    "optimize_constant gamma": (lambda: optimize_constant(mpq(99, 100)), InputError,
                                "gamma must be at least 1"),
    "rational_isqrt": (lambda: rational_isqrt(mpq(-1, 4)), ValueError,
                       "square root of a negative rational"),
    "Instance budget zero": (lambda: Instance(_uniform(), ONE, ONE, ONE, 0), InputError,
                             "budget must be positive"),
    "Instance loop": (lambda: Instance(UniformMatroid(["a", "b"], 0), ONE, ONE, ONE, 5),
                      InputError, "element 'a' is a loop: no independent set holds it"),
    "xos_mechanism_main bid zero": (lambda: xos_mechanism_main(
        _xos(), ONE, {**ONE, "b": 0}, 5, XosParams(**PARAMS)), InputError,
        "bid of 'b' must lie in (0, budget]"),
    # a seed is the whole coin tape: None would draw one from the OS
    "XosParams seed None": (lambda: XosParams(**{**PARAMS, "seed": None}), InputError,
                            "seed must be an integer, got None"),
    "XosParams seed string": (lambda: XosParams(**{**PARAMS, "seed": "1"}), InputError,
                              "seed must be an integer, got '1'"),
    "XosParams seed float": (lambda: XosParams(**{**PARAMS, "seed": 1.5}), InputError,
                             "seed must be an integer, got 1.5"),
    "XosParams seed bool": (lambda: XosParams(**{**PARAMS, "seed": True}), InputError,
                            "seed must be an integer, got True"),
    "xos_objective knob zero": (lambda: xos_objective(218, 0, 4), InputError,
                                "alpha, beta and gamma must be positive"),
    "xos_objective knob negative": (lambda: xos_objective(218, mpq(9, 2), -4), InputError,
                                    "alpha, beta and gamma must be positive"),
}


@pytest.mark.parametrize("case", VALUE_ERRORS)
def test_in_memory_entry_points_reject_values_out_of_their_domain(case):
    call, error, message = VALUE_ERRORS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
