"""Exact decimal arithmetic helpers.

Coefficients and limits are kept as rationals so that canonical equality is
exact; floats only appear at the solver boundary.
"""

import re
from fractions import Fraction

# A sign, then digits with an optional point and fraction, or a point and at
# least one digit: "+4", "-0.50", "5.", ".5". The lookahead demands a digit,
# so "." and "" do not match.
_DECIMAL_RE = re.compile(r"([+-]?)(?=\.?\d)(\d*)(?:\.(\d*))?")


def _read_decimal(text: str):
    """Exact rational of a plain decimal literal, or None if ``text`` is not one."""
    match = _DECIMAL_RE.fullmatch(text)
    if match is None:
        return None
    sign, whole, fraction = match.groups()
    if not fraction:
        return Fraction(int(sign + (whole or "0")))
    return Fraction(int(sign + whole + fraction), 10 ** len(fraction))


def parse_number(token: str) -> Fraction:
    """Parse a plain decimal literal into an exact rational."""
    token = token.strip()
    number = _read_decimal(token)
    if number is None:
        raise ValueError(f"not a decimal number: {token!r}")
    return number


def json_number(value) -> Fraction:
    """Exact rational of a JSON number or string; must terminate as a decimal.

    Plain decimals are read directly; anything else (``1e-05``, ``"1/2"``)
    goes through ``Fraction(str(value))``.
    """
    text = str(value)
    number = _read_decimal(text)
    if number is None:
        number = Fraction(text)
        if decimal_places(number) is None:
            raise ValueError(f"{value!r} has no terminating decimal expansion")
    return number


class JsonNumbers(dict):
    """``json_number`` of each distinct text, read once: ``numbers[str(value)]``.

    Keys are texts, not values, because ``1``, ``1.0`` and ``True`` hash
    equal but ``True`` must still be rejected. A text that fails to read is
    not stored, so it raises again on every lookup. Make one per file or
    call; the stored Fractions are immutable and safe to share.
    """

    def __missing__(self, text):
        # json_number's plain-decimal fast path, without its call.
        number = _read_decimal(text)
        if number is None:
            number = json_number(text)
        self[text] = number
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
