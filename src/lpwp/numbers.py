"""Exact decimal arithmetic helpers.

Coefficients and limits are kept as rationals so that canonical equality is
exact; floats only appear at the solver boundary. Every number read (gold,
formulations, IR tokens, ``--tol``, strings given to ``exact``) follows one
ASCII grammar, and JSON float literals are read from their text:

    [+-]? (digits ["." [digits]] | "." digits) [("e" | "E") [+-]? digits]
"""

import json
import math
import re
import sys
from fractions import Fraction

# The least limit sys.set_int_max_str_digits accepts: a plain decimal this
# short is within any limit.
_SHORT = 640
# Python before 3.10.7 has no limit; its numbers are bound by today's default.
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 4300)
# The characters a message quotes from each end of a long number text.
_QUOTED_END = 20
_LOG2_5 = math.log2(5)
# The lookahead demands a mantissa digit, so "." and "" do not match.
_NUMBER_RE = re.compile(
    r"([+-]?)(?=\.?[0-9])([0-9]*)(?:\.([0-9]*))?(?:[eE]([+-]?[0-9]+))?"
)


class Literal(str):
    """The text of a JSON number literal with a point or an exponent."""


# Like json.loads, but a float literal decodes to its text, as a Literal.
decode_json = json.JSONDecoder(parse_float=Literal).decode


def _quoted(text: str) -> str:
    """``text`` quoted for a message: whole when short, else its head and
    tail and its length, so a message stays short whatever it quotes."""
    if len(text) <= 3 * _QUOTED_END:
        return repr(text)
    return (f"{text[:_QUOTED_END]!r}...{text[-_QUOTED_END:]!r} "
            f"({len(text)} characters)")


def parse_number(text: str) -> Fraction:
    """Exact rational of a number in the grammar above.

    A number is rejected before any power of ten is built when, written as
    a plain decimal (as ``format_number`` writes it), it would have more
    digits than ``sys.get_int_max_str_digits()`` lets ``int`` read back.
    """
    # A plain decimal, [+-]digits[.digits], is read with str methods alone;
    # the regex reads the rest. isdigit() admits non-ASCII digits, which
    # isascii() keeps out, and a text this short is within any digit limit.
    if len(text) <= _SHORT and text.isascii():
        whole, point, fraction = text.partition(".")
        digits = whole[1:] if whole[:1] in ("+", "-") else whole
        if digits.isdigit() and (fraction.isdigit() or not point):
            if not point:
                return Fraction(int(whole))
            return Fraction(int(whole + fraction), 10 ** len(fraction))
    match = _NUMBER_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"{_quoted(text)} is not a number")
    sign, whole, fraction, exponent = match.groups()
    fraction = fraction or ""
    digits = whole + fraction
    shift = int(exponent or 0) - len(fraction)
    limit = _max_str_digits()
    if limit and max(len(digits) + shift, 1) + max(-shift, 0) > limit:
        raise ValueError(f"{_quoted(text)} needs more than {limit} digits")
    if shift >= 0:
        return Fraction(int(sign + digits) * 10**shift)
    return Fraction(int(sign + digits), 10**-shift)


class JsonNumbers(dict):
    """The exact rational of each distinct JSON number, read once: ``numbers[value]``.

    A number is an int or a number text (a JSON string or a ``Literal``).
    Only texts are stored, so a bool or a float never finds an equal int
    read earlier; an int is converted on each lookup. Any other value raises
    ValueError, or TypeError if it is unhashable. A text that fails to read
    is not stored. Make one per file or call; the stored Fractions are
    immutable and safe to share. Only its own reads store: a write
    (``numbers[text] = value``, ``setdefault``, ``update``, ``|=``) raises
    TypeError, so every stored Fraction is what ``parse_number`` read from
    its text, and a build may trust it without a check. Reads stay dict's
    own C lookup: a solve load makes hundreds of thousands of them.

    ``shared`` is a memo of immutable values that readers fill, so that
    equal values read through one instance are one object: a string ``s``
    with ``setdefault(s, s)``, and a value built from the fields of a record
    under the tuple of those fields. It lives as long as the instance.
    """

    def __init__(self):
        super().__init__()
        self.shared = {}

    def __missing__(self, value):
        if type(value) is int:
            return Fraction(value)
        if type(value) is not str and type(value) is not Literal:
            raise ValueError(f"expected a number, got {value!r}")
        number = parse_number(value)
        dict.__setitem__(self, value, number)
        return number

    def _refuse_write(self, *args, **kwargs):
        raise TypeError("JsonNumbers stores only the numbers it reads")

    __setitem__ = setdefault = update = __ior__ = _refuse_write


def exact(value) -> Fraction:
    """The exact rational of a Python value: a string is read by the grammar
    above, an int, finite float or Fraction is taken as it is. A bool or a
    float that is not finite raises ValueError."""
    if isinstance(value, str):
        return parse_number(value)
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        return Fraction(value)
    except OverflowError:  # an infinity; a NaN raises ValueError itself
        raise ValueError(f"{value!r} is not a finite number") from None


def format_number(value: Fraction) -> str:
    """Render a rational as the exact decimal string it came from.

    Only rationals with a terminating decimal expansion are representable;
    anything else is a programming error upstream. As with ``str(int)``, a
    value whose digits exceed ``sys.get_int_max_str_digits()`` is refused.
    """
    n, d = value.numerator, value.denominator
    if d == 1:
        return str(n)
    # The expansion terminates when d is 2**twos * 5**fives; it then has
    # the larger of the two as places, and its last digit is not 0. 5**k
    # has floor(k * log2(5)) + 1 bits, so its bits / log2(5) lie in
    # (k, k + 0.44) and round to k: one power tells whether odd is 5**k.
    twos = (d & -d).bit_length() - 1
    odd = d >> twos
    fives = round(odd.bit_length() / _LOG2_5)
    if 5**fives != odd:
        raise ValueError(f"{value} has no terminating decimal expansion")
    # abs(n) * 10**places // d, without the division.
    if twos > fives:
        places = twos
        scaled = abs(n) * 5 ** (twos - fives)
    else:
        places = fives
        scaled = abs(n) << (fives - twos)
    # An int of fewer than 3 * _SHORT bits has fewer than _SHORT digits,
    # within any limit.
    limit = scaled.bit_length() >= 3 * _SHORT and _max_str_digits()
    if limit and scaled >= 10**limit:
        raise ValueError(f"the expansion of a value needs more than {limit} digits")
    digits = str(scaled).rjust(places + 1, "0")
    if n < 0:
        return f"-{digits[:-places]}.{digits[-places:]}"
    return f"{digits[:-places]}.{digits[-places:]}"
