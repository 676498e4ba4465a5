import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpwp.numbers import JsonNumbers, decimal_places, json_number, parse_number


# The readers before the shared decimal fast path, kept as the reference.
def reference_parse_number(token):
    token = token.strip()
    if not re.fullmatch(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)", token):
        raise ValueError(f"not a decimal number: {token!r}")
    return Fraction(token)


def reference_json_number(value):
    number = Fraction(str(value))
    if decimal_places(number) is None:
        raise ValueError(f"{value!r} has no terminating decimal expansion")
    return number


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


def reader_holding_all_but(value):
    """A shared reader that has already read every listed value but ``value``."""
    numbers = JsonNumbers()
    for other in EDGE_STRINGS + JSON_VALUES:
        if other is not value:
            try:
                numbers[str(other)]
            except ValueError:
                pass
    return numbers


def assert_same_as_reference(value):
    expected = outcome(reference_json_number, value)
    assert outcome(json_number, value) == expected
    numbers = reader_holding_all_but(value)
    # The first read may find a value with the same text; the second finds
    # the stored one, or fails again.
    assert outcome(lambda v: numbers[str(v)], value) == expected
    assert outcome(lambda v: numbers[str(v)], value) == expected
    if isinstance(value, str):
        assert outcome(parse_number, value) == outcome(reference_parse_number, value)


@pytest.mark.parametrize("value", EDGE_STRINGS)
def test_edge_strings_read_as_before(value):
    assert_same_as_reference(value)


@pytest.mark.parametrize("value", JSON_VALUES)
def test_json_values_read_as_before(value):
    assert_same_as_reference(value)


PLAIN = r"-?[0-9]+(\.[0-9]+)?"
PARSE_GRAMMAR = r"[+-]?(\d+(\.\d*)?|\.\d+)"


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.from_regex(PLAIN, fullmatch=True),
    st.from_regex(PARSE_GRAMMAR, fullmatch=True),
    st.text(alphabet="0123456789+-.e/_ ٣", max_size=8),
    st.floats(),
    st.integers(),
))
def test_decimal_reader_matches_reference(value):
    assert_same_as_reference(value)
