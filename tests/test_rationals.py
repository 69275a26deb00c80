"""The shared rational helpers."""

from budgetmech.rationals import moved, mpq, same


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
