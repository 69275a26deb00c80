"""Exact rational arithmetic helpers.

All weights, costs, bids, budgets, rates and payments in this package are
exact rationals.  gmpy2.mpq is used when available (much faster), with
fractions.Fraction as a drop-in fallback.
"""

import math
from decimal import Context, Decimal
from fractions import Fraction
from math import lcm

from .errors import InputError, SchemaError

try:
    from gmpy2 import mpq
except ImportError:  # pragma: no cover
    mpq = Fraction

ZERO = mpq(0)


def as_rational(value):
    """``value`` as a rational; a rational is kept as it is.  A float or a
    bool raises InputError, as ``parse_rational`` rejects them in files: a
    float would silently break exactness."""
    if type(value) is mpq:
        return value
    if isinstance(value, (bool, float)):
        raise InputError(f"expected an exact rational, got {type(value).__name__}")
    return mpq(value)


def is_int(value):
    """Whether ``value`` is a JSON integer: an ``int`` that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def same(a, b):
    """Whether two rationals are equal, compared by identity first."""
    return a is b or a == b


def moved(bids, base, ids):
    """The ids, in ``ids`` order, whose bid in ``bids`` differs from the one
    in ``base``; bids are compared by identity first, then by value."""
    return [e for e in ids if (b := bids[e]) is not (b0 := base[e]) and b != b0]


def parse_rational(value, field="value"):
    """Parse an int, or a string like ``"7"`` or ``"50/9"``, into a rational.

    Raises SchemaError (a ValueError) naming ``field`` on malformed input.
    Floats are rejected on purpose: they would silently break exactness.
    """
    if is_int(value):
        return mpq(value)
    if isinstance(value, bool):
        raise SchemaError(field, "booleans are not rationals")
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                num, den = text.split("/")
                return mpq(int(num), int(den))
            return mpq(int(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(field, f"cannot parse rational {value!r}") from exc
    raise SchemaError(field, f"expected int or 'p/q' string, got {type(value).__name__}")


def format_rational(q):
    """Render a rational as ``"p/q"`` (or ``"p"`` when the denominator is 1)."""
    return str(as_rational(q))


_DISPLAY = Context(prec=12)


def to_decimal(q):
    """Display-only decimal rendering at 12 significant digits."""
    q = as_rational(q)
    return str(_DISPLAY.divide(Decimal(int(q.numerator)), Decimal(int(q.denominator))))


def scale_to_integers(values):
    """``(d, [v * d for v in values])``: the least common multiple ``d`` (≥ 1)
    of the denominators of the rationals ``values`` (a sequence) and the
    values as integers over it.  A positive scale keeps order and ties, so
    integer keys compare as the rationals do."""
    d = lcm(1, *(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


ISQRT_DIGITS = 24


def rational_isqrt(q):
    """Rational approximation of sqrt(q) to ``ISQRT_DIGITS`` decimal digits."""
    q = as_rational(q)
    if q < 0:
        raise ValueError("square root of a negative rational")
    scale = 10 ** ISQRT_DIGITS
    n = math.isqrt(int(q.numerator * scale * scale // q.denominator))
    return mpq(n, scale)
