import json
import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lpwp.numbers import (JsonNumbers, Literal, decode_json, exact, format_number,
                          parse_number)

from helpers import line_events

# The documented number grammar, checked independently of the reader: an
# ASCII regular expression, then Fraction(str), which accepts all of it.
GRAMMAR = r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?"


def reference_parse_number(text):
    if not re.fullmatch(GRAMMAR, text):
        raise ValueError(f"{text!r} is not a number")
    mantissa, _, exponent = text.lower().partition("e")
    digits = mantissa.lstrip("+-").replace(".", "")
    shift = int(exponent or 0) - len(mantissa.partition(".")[2])
    # Digits of the number written as a plain decimal, "0." included.
    if max(len(digits) + shift, 1) + max(-shift, 0) > sys.get_int_max_str_digits():
        raise ValueError(f"{text!r} needs more than the digit limit")
    return n.numerator if (n := Fraction(text)).denominator == 1 else n


def reference_json_number(value):
    """A decoded JSON value: an int that is not a bool, or a number text."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        return reference_parse_number(value)
    raise ValueError(f"expected a number, got {value!r}")


def outcome(reader, value):
    try:
        number = reader(value)
    except Exception as err:  # the exception class is part of the contract
        return type(err)
    return type(number), number


EDGE_STRINGS = ["-0", "-0.50", "007", "+4", ".5", "5.", " 3", "1_000", "1e3",
                "1/2", "1/3", "٣", "", ".", "-", "+.5", "-.5", "5.5.5",
                "1e-05", "nan", "inf", " -2.25 \n",
                # Around the plain-decimal reader: signs, points, non-ASCII
                # digits, and its length bound (_SHORT, 640 characters).
                "+-5", "-+5", "5-", "1.2.3", "+5", "007.50", "-0.0", "٣.5", "5.٣",
                "1.5e3", "-" + "9" * 636 + ".25", "-" + "9" * 637 + ".25"]
JSON_VALUES = [0, -7, 10**30, 0.5, -2.5, 1e-05, 1e16, True, None]


def decoded(value):
    """``value`` as the dataset reader sees it: written, then decoded."""
    return decode_json(json.dumps(value))


def reader_holding_all_but(value):
    """A shared reader that has already read every listed value but ``value``."""
    numbers = JsonNumbers()
    for other in EDGE_STRINGS + [decoded(v) for v in JSON_VALUES]:
        if other is not value:
            try:
                numbers[other]
            except ValueError:
                pass
    return numbers


def assert_same_as_reference(value):
    expected = outcome(reference_json_number, value)
    assert outcome(lambda v: JsonNumbers()[v], value) == expected
    numbers = reader_holding_all_but(value)
    # The first read may find an equal value; the second finds the stored
    # one, or fails again.
    assert outcome(lambda v: numbers[v], value) == expected
    assert outcome(lambda v: numbers[v], value) == expected
    if isinstance(value, str):
        assert outcome(parse_number, value) == outcome(reference_parse_number, value)


@pytest.mark.parametrize("value", EDGE_STRINGS)
def test_edge_strings_read_as_before(value):
    assert_same_as_reference(value)
    if outcome(reference_parse_number, value) is ValueError:
        # outcome compares only the class: pin the message as well.
        with pytest.raises(ValueError) as err:
            parse_number(value)
        assert str(err.value) == f"{value!r} is not a number"


@pytest.mark.parametrize("value", JSON_VALUES)
def test_json_values_read_as_before(value):
    assert_same_as_reference(decoded(value))


PLAIN = r"-?[0-9]+(\.[0-9]+)?"
PARSE_GRAMMAR = r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d{1,3})?"


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.from_regex(PLAIN, fullmatch=True),
    st.from_regex(PARSE_GRAMMAR, fullmatch=True),
    st.text(alphabet="0123456789+-.eE/_ ٣", max_size=8),
    st.floats().map(decoded),
    st.integers().map(decoded),
))
def test_decimal_reader_matches_reference(value):
    assert_same_as_reference(value)


def test_float_literals_decode_to_their_text():
    record = decode_json('{"a": 12345678901234567.5, "b": 1E5, "c": 2}')
    assert record == {"a": "12345678901234567.5", "b": "1E5", "c": 2}
    assert type(record["a"]) is Literal
    assert JsonNumbers()[record["a"]] == Fraction(24691357802469135, 2)


def test_reader_rejects_a_bool_or_float_after_an_equal_int():
    numbers = JsonNumbers()
    assert (numbers[1], numbers[2]) == (1, 2)
    for value in (True, 2.0, 0.5):
        with pytest.raises(ValueError):
            numbers[value]


LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize("text", [
    "1e5000", "1e999999999", "-1e-999999999", f"1e{LIMIT}", f"1e-{LIMIT}",
    "0." + "0" * 5000 + "1", "." + "1" * LIMIT, "1" * (LIMIT + 1),
])
def test_numbers_beyond_the_digit_limit_are_rejected(text):
    with pytest.raises(ValueError) as err:
        parse_number(text)
    # A number of thousands of digits is quoted by its ends, not in full.
    assert len(str(err.value)) < 200


@pytest.mark.parametrize("text", [
    f"1e{LIMIT - 1}", f"1e-{LIMIT - 1}", f"-9.9e{LIMIT - 2}", "." + "1" * (LIMIT - 1),
    "7" * LIMIT,
])
def test_numbers_at_the_digit_limit_read_and_write_back(text):
    number = parse_number(text)
    assert number == Fraction(text)
    assert parse_number(format_number(number)) == number


def reference_format_number(value):
    """``format_number`` as written before it used ``decimal``."""
    if value.denominator == 1:
        return str(value.numerator)
    d = value.denominator
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        raise ValueError(f"{value} has no terminating decimal expansion")
    places = max(twos, fives)
    scaled = value * 10**places
    digits = str(abs(scaled.numerator)).rjust(places + 1, "0")
    sign = "-" if value < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def format_outcome(format, value):
    try:
        return format(value)
    except ValueError:
        return ValueError


def assert_formats_as_reference(value):
    assert format_outcome(format_number, value) == format_outcome(
        reference_format_number, value
    )


@settings(max_examples=500, deadline=None)
@given(st.integers(-10**40, 10**40), st.integers(0, 80), st.integers(0, 80))
@example(7, 0, 1000)  # powers of 5 far past the drawn ones
@example(-7, 1001, 1000)
def test_format_number_matches_reference_on_terminating_values(numerator, twos, fives):
    value = Fraction(numerator, 2**twos * 5**fives)
    assert_formats_as_reference(value)
    assert parse_number(format_number(value)) == value


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**40, 10**40), st.integers(0, 30), st.integers(0, 30),
       st.sampled_from([3, 7, 9, 11, 13, 21, 3**20, 10**9 + 7]))
@example(1, 0, 0, 3)
@example(2, 0, 0, 7)
@example(1, 0, 6000, 3)
@example(1, 0, 0, 5**1000 + 2)  # as many bits as a power of 5
@example(1, 0, 0, 5**6000 + 2)
def test_format_number_refuses_non_terminating_values(numerator, twos, fives, odd):
    assume(math.gcd(numerator, odd) == 1)
    value = Fraction(numerator, 2**twos * 5**fives * odd)
    for format in (format_number, reference_format_number):
        with pytest.raises(ValueError) as err:
            format(value)
        assert str(err.value) == f"{value} has no terminating decimal expansion"


def _repdigit(count):
    """The int written as ``count`` sevens, built without reading a string."""
    return 7 * (10**count - 1) // 9


@pytest.mark.parametrize("digits", [LIMIT - 1, LIMIT, LIMIT + 1])
@pytest.mark.parametrize("places", [0, 1, 2, 600, "all", "beyond"])
@pytest.mark.parametrize("sign", [1, -1])
def test_format_number_at_the_digit_limit_matches_reference(digits, places, sign):
    places = {"all": digits, "beyond": digits + 5}.get(places, places)
    assert_formats_as_reference(Fraction(sign * _repdigit(digits), 10**places))


@pytest.mark.parametrize("value, written", [
    (Fraction(1, 2**5000), True),
    (Fraction(1, 2**14000), False),
    (Fraction(-3, 2**5000 * 5**20), True),
    (Fraction(1, 10**(2 * LIMIT)), True),  # many zeros, one digit
    (Fraction(10**LIMIT + 1, 10**LIMIT), False),
    (Fraction(10**LIMIT), False),
])
def test_format_number_around_the_digit_limit(value, written):
    assert_formats_as_reference(value)
    assert (format_outcome(format_number, value) is not ValueError) is written


def test_format_number_runs_the_same_lines_for_any_power_of_five():
    # No loop over the factors of the denominator: a loop's cost would grow
    # with the power, and each of its steps divides a big int.
    assert (line_events(format_number, Fraction(1, 5**600))
            == line_events(format_number, Fraction(1, 5)))


@pytest.mark.parametrize("value, number", [
    ("0.5", Fraction(1, 2)), ("-2.5e1", Fraction(-25)), (Literal("1E-2"), Fraction(1, 100)),
    (3, Fraction(3)), (0.1, Fraction(0.1)), (Fraction(7, 4), Fraction(7, 4)),
])
def test_exact_reads_strings_by_the_grammar_and_numbers_as_they_are(value, number):
    assert exact(value) == number
    assert type(exact(value)) is Fraction
