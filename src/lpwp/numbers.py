"""Exact decimal arithmetic helpers.

Coefficients and limits are kept as rationals so that canonical equality is
exact; floats only appear at the solver boundary.
"""

import re
from fractions import Fraction

_DECIMAL_RE = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)")


def parse_number(token: str) -> Fraction:
    """Parse a plain decimal literal into an exact rational."""
    token = token.strip()
    if not _DECIMAL_RE.fullmatch(token):
        raise ValueError(f"not a decimal number: {token!r}")
    return Fraction(token)


def json_number(value) -> Fraction:
    """Exact rational of a JSON number or string; must terminate as a decimal."""
    number = Fraction(str(value))
    if decimal_places(number) is None:
        raise ValueError(f"{value!r} has no terminating decimal expansion")
    return number


def decimal_places(value: Fraction):
    """Digits after the point in the decimal expansion of ``value``.

    Returns None when the expansion does not terminate, i.e. when the
    reduced denominator has a prime factor other than 2 and 5.
    """
    d = value.denominator
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    return max(twos, fives) if d == 1 else None


def format_number(value: Fraction) -> str:
    """Render a rational as the exact decimal string it came from.

    Only rationals with a terminating decimal expansion are representable;
    anything else is a programming error upstream.
    """
    if value.denominator == 1:
        return str(value.numerator)
    places = decimal_places(value)
    if places is None:
        raise ValueError(f"{value} has no terminating decimal expansion")
    scaled = value * 10**places
    digits = str(abs(scaled.numerator)).rjust(places + 1, "0")
    sign = "-" if value < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"
