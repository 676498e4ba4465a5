import json
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpwp.numbers import JsonNumbers, Literal, decode_json, format_number, parse_number

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
    return Fraction(text)


def reference_json_number(value):
    """A decoded JSON value: an int that is not a bool, or a number text."""
    if type(value) is int:
        return Fraction(value)
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
                "1e-05", "nan", "inf", " -2.25 \n"]
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
    with pytest.raises(ValueError):
        parse_number(text)


@pytest.mark.parametrize("text", [
    f"1e{LIMIT - 1}", f"1e-{LIMIT - 1}", f"-9.9e{LIMIT - 2}", "." + "1" * (LIMIT - 1),
    "7" * LIMIT,
])
def test_numbers_at_the_digit_limit_read_and_write_back(text):
    number = parse_number(text)
    assert number == Fraction(text)
    assert parse_number(format_number(number)) == number
