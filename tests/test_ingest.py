import dataclasses
import json
import operator
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from lpwp import ingest, ir
from lpwp.augment import _TAG_RE, augment_text, strip_tags
from lpwp.canonical import canonicalize
from lpwp.cli import main
from lpwp.errors import (
    MappingError,
    UnsupportedDeclarationError,
    ValidationError,
)
from lpwp.ingest import EntitySpan, OrderMapping, Problem
from lpwp.ir import serialize_declarations
from lpwp.numbers import JsonNumbers, decode_json, format_number, parse_number
from lpwp.solver import solve_lp

from helpers import (
    BERRY_GOLD_RECORDS,
    BERRY_MAPPING,
    BERRY_TEXT,
    MUTANT_VALUES,
    berry_problem,
    json_paths,
    random_problem,
    replace_at,
)


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert ingest.load_dataset(path) == []


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "d.jsonl"
    record = json.dumps(berry_record())
    path.write_text(f"\n{record}\n \t\n\n", encoding="utf-8")
    assert ingest.load_dataset(path) == [berry_problem()]


def test_load_save_round_trip(tmp_path):
    problem = berry_problem()
    path = tmp_path / "data.jsonl"
    ingest.save_dataset([problem], path)
    (loaded,) = ingest.load_dataset(path)
    assert loaded == problem


def test_round_trip_many_random_problems(tmp_path):
    rng = random.Random(20240811)
    problems = [random_problem(rng, f"p{i}") for i in range(1000)]
    path = tmp_path / "random.jsonl"
    ingest.save_dataset(problems, path)
    assert ingest.load_dataset(path) == problems
    # Bit-identical on a second save.
    second = tmp_path / "again.jsonl"
    ingest.save_dataset(ingest.load_dataset(path), second)
    assert path.read_bytes() == second.read_bytes()


def test_malformed_json_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    first = json.dumps(ingest.problem_to_record(berry_problem()))
    path.write_text(first + "\nnot json\n")
    with pytest.raises(ValidationError) as err:
        ingest.load_dataset(path)
    assert "line 2" in str(err.value)


def test_lines_end_at_newlines_only(tmp_path):
    # A lone "\r" is JSON whitespace; "\r\n" ends a line as "\n" does.
    path = tmp_path / "d.jsonl"
    record = json.dumps(berry_record(), separators=(",\r", ":\r"))
    path.write_bytes(f"{record}\r\nnot json\r\n".encode("utf-8"))
    with pytest.raises(ValidationError) as err:
        ingest.load_dataset(path)
    assert err.value.line == 2
    path.write_bytes(f"{record}\r\n".encode("utf-8"))
    assert ingest.load_dataset(path) == [berry_problem()]


def test_overlapping_spans_rejected(tmp_path):
    record = {
        "id": "p",
        "text": "abcdefghij",
        "spans": [
            {"start": 0, "end": 5, "label": "VAR"},
            {"start": 3, "end": 8, "label": "PARAM"},
        ],
        "order_mapping": {"abcde": 0},
    }
    write_jsonl(tmp_path / "d.jsonl", [record])
    with pytest.raises(ValidationError) as err:
        ingest.load_dataset(tmp_path / "d.jsonl")
    assert "(0, 5, VAR)" in str(err.value)
    assert "(3, 8, PARAM)" in str(err.value)


def test_span_out_of_bounds_rejected():
    with pytest.raises(ValidationError):
        Problem("p", "ab", [EntitySpan(0, 5, "VAR")], OrderMapping({"ab": 0}))


def test_unknown_label_rejected():
    with pytest.raises(ValidationError):
        Problem("p", "ab", [EntitySpan(0, 1, "BOGUS")], OrderMapping({}))


def test_non_bijective_order_mapping_rejected():
    with pytest.raises(ValidationError):
        OrderMapping({"x": 0, "y": 2})
    with pytest.raises(ValidationError):
        OrderMapping({"x": 1, "y": 1})


def test_order_mapping_keys_colliding_after_normalization_rejected():
    with pytest.raises(ValidationError) as err:
        OrderMapping({"Farm 1": 0, "farm  1": 1})
    assert err.value.field == "order_mapping"


def test_duplicate_ids_rejected(tmp_path):
    berry = ingest.problem_to_record(berry_problem())
    other = dict(berry, id="other")
    write_jsonl(tmp_path / "d.jsonl", [berry, other, berry])
    with pytest.raises(ValidationError) as err:
        ingest.load_dataset(tmp_path / "d.jsonl")
    assert err.value.line == 3
    assert "duplicate problem id 'berry'" in str(err.value)


def test_non_string_id_rejected(tmp_path):
    record = dict(ingest.problem_to_record(berry_problem()), id=["berry"])
    write_jsonl(tmp_path / "d.jsonl", [record])
    with pytest.raises(ValidationError) as err:
        ingest.load_dataset(tmp_path / "d.jsonl")
    assert err.value.line == 1


@pytest.mark.parametrize("build, field", [
    (lambda: Problem("p", "ab", [EntitySpan(True, 2, "VAR")], OrderMapping({})), "spans"),
    (lambda: Problem("p", "ab", [EntitySpan(0, 1.0, "VAR")], OrderMapping({})), "spans"),
    (lambda: Problem("p", "ab", [EntitySpan(0, 1, "VAR"), EntitySpan("1", 2, "VAR")],
                     OrderMapping({})), "spans"),
    (lambda: berry_problem().with_spans([EntitySpan(True, 2, "VAR")]), "spans"),
    (lambda: OrderMapping({"x": False}), "order_mapping"),
    (lambda: OrderMapping({"x": 0.0}), "order_mapping"),
    (lambda: OrderMapping({"x": "0"}), "order_mapping"),
    (lambda: OrderMapping({1: 0}), "order_mapping"),
    (lambda: OrderMapping({b"x": 0}), "order_mapping"),
    (lambda: Problem(7, "ab", [], OrderMapping({})), "id"),
    (lambda: Problem(None, "ab", [], OrderMapping({})), "id"),
    (lambda: Problem("p", b"ab", [], OrderMapping({})), "text"),
    (lambda: Problem("p\ud800", "ab", [], OrderMapping({})), "id"),
    (lambda: Problem("p", "a\udfffb", [], OrderMapping({})), "text"),
    (lambda: OrderMapping({"x\ud800": 0}), "order_mapping"),
], ids=["bool-start", "float-end", "str-start", "with-spans", "bool-index",
        "float-index", "str-index", "int-key", "bytes-key", "int-id", "null-id",
        "bytes-text", "surrogate-id", "surrogate-text", "surrogate-key"])
def test_what_save_or_load_cannot_carry_is_rejected_at_build(build, field):
    with pytest.raises(ValidationError) as err:
        build()
    assert err.value.field == field


def test_spans_sorted_after_construction():
    spans = [EntitySpan(5, 7, "PARAM"), EntitySpan(0, 2, "LIMIT")]
    problem = Problem("p", "ab cd ef gh", spans, OrderMapping({}))
    assert [s.start for s in problem.spans] == [0, 5]


def test_order_mapping_resolves_aliases():
    mapping = OrderMapping({"farm 1": 0, "farm 2": 1})
    assert mapping.resolve("Farm  1") == 0
    assert mapping.resolve("FARM 2") == 1
    with pytest.raises(MappingError):
        mapping.resolve("farm 3")


def test_gold_to_declarations_objvar():
    (decl,) = ingest.gold_to_declarations([BERRY_GOLD_RECORDS[0]])
    assert decl.kind == "objective"
    assert decl.direction_text == "minimize"
    assert decl.name == "amount of time"
    assert decl.terms == {"farm 2": 1, "farm 1": 1}


def test_gold_to_declarations_linear():
    (decl,) = ingest.gold_to_declarations([BERRY_GOLD_RECORDS[1]])
    assert decl.kind == "constraint"
    assert decl.operator == "GREATER_OR_EQUAL"
    assert decl.limit == 3000
    assert decl.terms == {"farm 2": 70, "farm 1": 50}


@pytest.mark.parametrize("slot", ["limit", "coefficient"])
def test_gold_number_without_terminating_decimal_rejected(tmp_path, slot):
    gold = dict(BERRY_GOLD_RECORDS[1])
    if slot == "limit":
        gold["limit"] = "1/3"
    else:
        gold["terms"] = {"farm 2": "2/7", "farm 1": "50"}
    with pytest.raises(ValidationError) as err:
        ingest.gold_to_declarations([BERRY_GOLD_RECORDS[0], gold])
    assert err.value.field == "gold[1]"
    record = ingest.problem_to_record(berry_problem())
    record["gold"] = [BERRY_GOLD_RECORDS[0], gold]
    write_jsonl(tmp_path / "d.jsonl", [record])
    with pytest.raises(ValidationError) as err:
        ingest.load_dataset(tmp_path / "d.jsonl")
    assert err.value.line == 1
    assert "is not a number" in str(err.value)


def test_gold_numbers_that_load_also_save(tmp_path):
    gold = dict(BERRY_GOLD_RECORDS[1], limit=1e-05,
                terms={"farm 2": "0.375", "farm 1": 0.5})
    record = ingest.problem_to_record(berry_problem())
    record["gold"] = [BERRY_GOLD_RECORDS[0], gold]
    write_jsonl(tmp_path / "d.jsonl", [record])
    (loaded,) = ingest.load_dataset(tmp_path / "d.jsonl")
    assert loaded.gold[1].limit == Fraction(1, 100000)
    assert loaded.gold[1].terms == {"farm 2": Fraction(3, 8), "farm 1": Fraction(1, 2)}
    ingest.save_dataset([loaded], tmp_path / "saved.jsonl")
    assert ingest.load_dataset(tmp_path / "saved.jsonl") == [loaded]


def test_gold_to_declarations_unknown_type():
    with pytest.raises(UnsupportedDeclarationError) as err:
        ingest.gold_to_declarations([{"type": "ratio"}])
    assert "ratio" in str(err.value)


def test_gold_to_declarations_missing_field():
    with pytest.raises(ValidationError):
        ingest.gold_to_declarations([{"type": "objvar", "direction": "minimize"}])


def test_load_keeps_error_class_and_field(tmp_path):
    record = ingest.problem_to_record(berry_problem())
    record["gold"] = [BERRY_GOLD_RECORDS[0], {"type": "ratio"}]
    write_jsonl(tmp_path / "d.jsonl", [record])
    with pytest.raises(UnsupportedDeclarationError) as err:
        ingest.load_dataset(tmp_path / "d.jsonl")
    assert (err.value.line, err.value.field) == (1, "gold[1]")
    assert str(err.value) == (
        "[line 1, field gold[1]] unsupported declaration type: 'ratio'"
    )


def test_load_rejects_gold_variable_missing_from_mapping(tmp_path):
    record = ingest.problem_to_record(berry_problem())
    record["gold"] = [dict(BERRY_GOLD_RECORDS[0], vars=["farm 9"])]
    write_jsonl(tmp_path / "d.jsonl", [record])
    with pytest.raises(ValidationError) as err:
        ingest.load_dataset(tmp_path / "d.jsonl")
    assert err.value.line == 1
    assert "farm 9" in str(err.value)


def test_gold_declaration_variables_must_resolve():
    with pytest.raises(MappingError):
        Problem(
            "p",
            "some text",
            [],
            OrderMapping({"x": 0}),
            gold=ingest.gold_to_declarations([
                {"type": "objvar", "direction": "minimize", "name": "n",
                 "vars": ["y"]},
            ]),
        )


OBJECTIVE_X = ir.objective("min", "n", {"x": Fraction(1)})


@pytest.mark.parametrize("gold, field", [
    ([ir.objective("reduce", "n", {"x": Fraction(1)})], "gold[0]"),
    ([OBJECTIVE_X, ir.constraint("at most", ir.LESS_OR_EQUAL, 1, {"x": 0})],
     "gold[1]"),
    ([ir.constraint("at most", ir.LESS_OR_EQUAL, 1, {"x": 1})], "gold"),
    ([OBJECTIVE_X, OBJECTIVE_X], "gold"),
    ([ir.objective("min", "n", {"x": Fraction(2)})], "gold[0]"),
    ([ir.objective("min", "", {"x": 1})], "gold[0]"),
    ([ir.objective("min", " \t", {"x": 1})], "gold[0]"),
    ([OBJECTIVE_X, ir.constraint("", ir.LESS_OR_EQUAL, 1, {"x": 1})], "gold[1]"),
    ([OBJECTIVE_X, ir.constraint(" ", ir.LESS_OR_EQUAL, 1, {"x": 1})], "gold[1]"),
    ([ir.objective("min", "a </OBJ_NAME> b", {"x": 1})], "gold[0]"),
    ([OBJECTIVE_X, ir.constraint("at [is] most", ir.LESS_OR_EQUAL, 1, {"x": 1})],
     "gold[1]"),
    ([OBJECTIVE_X, ir.constraint("at most", ir.LESS_OR_EQUAL, Fraction(1, 3),
                                 {"x": 1})], "gold[1]"),
    ([OBJECTIVE_X, ir.constraint("at most", ir.LESS_OR_EQUAL, 1,
                                 {"x": Fraction(1, 3)})], "gold[1]"),
    ([OBJECTIVE_X, ir.constraint("at most", ir.LESS_OR_EQUAL, Fraction(10**5000),
                                 {"x": 1})], "gold[1]"),
    ([OBJECTIVE_X, ir.constraint("at most", ir.LESS_OR_EQUAL, Fraction(1, 10**5000),
                                 {"x": 1})], "gold[1]"),
    ([ir.objective("min", "n\ud800", {"x": 1})], "gold[0]"),
    ([OBJECTIVE_X, ir.constraint("at\udc00most", ir.LESS_OR_EQUAL, 1, {"x": 1})],
     "gold[1]"),
    ([ir.objective("min", "n", {"x": 1, "x\ud800": 1})], "gold[0]"),
], ids=["direction_reduce", "zero_row", "no_objective", "two_objectives",
        "objective_coefficient", "empty_name", "blank_name", "empty_direction",
        "blank_direction", "name_token", "direction_token", "limit_one_third",
        "coefficient_one_third", "limit_too_many_digits", "limit_too_many_places",
        "name_surrogate", "direction_surrogate", "variable_surrogate"])
def test_problem_built_in_python_needs_gold_with_canonical_form(gold, field):
    with pytest.raises(ValidationError) as err:
        Problem("p", "x", [], OrderMapping({"x": 0}), gold=gold)
    assert err.value.field == field
    # A number of thousands of digits is quoted by its ends, not in full.
    assert len(str(err.value)) < 200


@pytest.mark.parametrize("limit", [Fraction(1, 3), Fraction(1, 10**5000)],
                         ids=["one_third", "too_many_places"])
def test_numbers_are_checked_in_a_problem_built_after_a_load(tmp_path, limit):
    """A load does not check again the numbers it read, but a problem built
    from the loaded one, with its names and mapping, checks its own."""
    write_jsonl(tmp_path / "d.jsonl", [berry_record()])
    (loaded,) = ingest.load_dataset(tmp_path / "d.jsonl")
    gold = [*loaded.gold]
    gold[1] = dataclasses.replace(gold[1], limit=limit)
    for build in (lambda: Problem(loaded.id, loaded.text, loaded.spans,
                                  loaded.order_mapping, gold),
                  lambda: dataclasses.replace(loaded, gold=gold)):
        with pytest.raises(ValidationError) as err:
            build()
        assert err.value.field == "gold[1]"


@settings(max_examples=300, deadline=None)
@given(numerator=st.integers(-10**9, 10**9), twos=st.integers(0, 4400),
       fives=st.integers(0, 1900), odd=st.sampled_from([1, 1, 3, 7, 9, 11]),
       as_limit=st.booleans())
# Numerator and denominator of 639 and of 640 bits in all: a number of
# fewer than 640 bits writes fewer than 640 digits, so a shortcut past the
# round trip for short numbers would have its edge here.
@example(numerator=2**637 + 1, twos=0, fives=0, odd=1, as_limit=True)
@example(numerator=2**638 + 1, twos=0, fives=0, odd=1, as_limit=False)
@example(numerator=1, twos=637, fives=0, odd=1, as_limit=True)
@example(numerator=-1, twos=638, fives=0, odd=1, as_limit=False)
@example(numerator=3, twos=0, fives=274, odd=1, as_limit=True)
@example(numerator=-7, twos=0, fives=274, odd=1, as_limit=False)
@example(numerator=2**636, twos=0, fives=0, odd=3, as_limit=True)
# Past the digit limit: 4,301 places, and a value of more than 4,300 digits.
@example(numerator=1, twos=4301, fives=0, odd=1, as_limit=True)
@example(numerator=10**4301, twos=0, fives=0, odd=1, as_limit=False)
def test_problem_accepts_a_gold_number_exactly_when_it_round_trips(
        numerator, twos, fives, odd, as_limit):
    """A problem built in Python accepts a limit or coefficient exactly when
    its plain decimal writes and reads back, and otherwise names the
    declaration with the writer's or reader's message."""
    value = Fraction(numerator, 2**twos * 5**fives * odd)
    try:
        parse_number(format_number(value))
    except ValueError as err:
        message = str(err)
    else:
        message = None
    limit, terms = (value, {"x": 1}) if as_limit else (1, {"x": 1, "y": value})
    gold = [OBJECTIVE_X, ir.constraint("at most", ir.LESS_OR_EQUAL, limit, terms)]
    if message is None:
        Problem("p", "x", [], OrderMapping({"x": 0, "y": 1}), gold=gold)
        return
    with pytest.raises(ValidationError) as err:
        Problem("p", "x", [], OrderMapping({"x": 0, "y": 1}), gold=gold)
    assert (err.value.field, err.value.message) == ("gold[1]", message)


def _row(limit=1, coefficient=1):
    """A constraint built directly, so its numbers do not pass exact()."""
    return ir.Declaration(ir.CONSTRAINT, "at most", {"x": coefficient},
                          operator=ir.LESS_OR_EQUAL, limit=limit)


@pytest.mark.parametrize("gold, field, got", [
    ([OBJECTIVE_X, _row(limit=0.5)], "gold[1]", "float"),
    ([OBJECTIVE_X, _row(limit="0.5")], "gold[1]", "str"),
    ([OBJECTIVE_X, _row(coefficient=0.5)], "gold[1]", "float"),
    ([OBJECTIVE_X, _row(coefficient="0.5")], "gold[1]", "str"),
    ([ir.Declaration(ir.OBJECTIVE, "min", {"x": 1.0}, name="n")], "gold[0]", "float"),
    ([OBJECTIVE_X, _row(limit=True)], "gold[1]", "bool"),
    ([ir.Declaration(ir.OBJECTIVE, "min", {"x": True}, name="n")], "gold[0]", "bool"),
], ids=["limit_float", "limit_str", "coefficient_float", "coefficient_str",
        "objective_float", "limit_bool", "objective_bool"])
def test_problem_built_in_python_takes_gold_numbers_as_int_or_fraction(
        gold, field, got):
    """A float, str or bool gold number is named as a ValidationError, not
    met later as an AttributeError in save or augment, nor built."""
    with pytest.raises(ValidationError) as err:
        Problem("p", "x", [], OrderMapping({"x": 0}), gold=gold)
    assert (err.value.field, err.value.message) == (
        field, f"expected an int or a Fraction, got {got}")


def test_a_string_that_fails_its_check_fails_on_every_build():
    """The check of each distinct string is memoized, but not its failure."""
    for _ in range(2):
        OrderMapping({"x": 0})
        with pytest.raises(ValidationError) as err:
            OrderMapping({"x": 0, "a </VAR> b": 1})
        assert str(err.value) == ("[field order_mapping] order mapping key "
                                  "'a </VAR> b' holds an IR token")
        with pytest.raises(ValidationError) as err:
            Problem("p", "x", [], OrderMapping({"x": 0}),
                    gold=[ir.objective("min", "a </VAR> b", {"x": 1})])
        assert str(err.value) == ("[field gold[0]] objective name 'a </VAR> b' "
                                  "holds an IR token")
    info = ingest._writable_name.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


@pytest.mark.parametrize("gold, field", [
    ([dict(BERRY_GOLD_RECORDS[0], name=""), *BERRY_GOLD_RECORDS[1:]], "gold[0]"),
    ([BERRY_GOLD_RECORDS[0], dict(BERRY_GOLD_RECORDS[1], direction=" "),
      *BERRY_GOLD_RECORDS[2:]], "gold[1]"),
    ([dict(BERRY_GOLD_RECORDS[0], name="a </OBJ_NAME> b"), *BERRY_GOLD_RECORDS[1:]],
     "gold[0]"),
    ([BERRY_GOLD_RECORDS[0], dict(BERRY_GOLD_RECORDS[1], direction="at [is] least"),
      *BERRY_GOLD_RECORDS[2:]], "gold[1]"),
], ids=["blank_name", "blank_direction", "name_token", "direction_token"])
def test_load_rejects_gold_that_the_ir_cannot_write_back(tmp_path, gold, field):
    write_jsonl(tmp_path / "d.jsonl", [berry_record(), berry_record(id="second", gold=gold)])
    with pytest.raises(ValidationError) as err:
        ingest.load_dataset(tmp_path / "d.jsonl")
    assert (err.value.line, err.value.field) == (2, field)


@pytest.mark.parametrize("mapping, gold, field", [
    ({" ": 0}, [ir.objective("min", "n", {" ": 1})], "order_mapping"),
    ({"x <PARAM> y": 0}, [ir.objective("min", "n", {"x <PARAM> y": 1})],
     "order_mapping"),
    ({"a <var> b": 0}, [ir.objective("min", "n", {"a <VAR> b": 1})], "gold[0]"),
], ids=["blank_key", "key_token", "spelling_token"])
def test_problem_rejects_variables_that_the_ir_cannot_carry(mapping, gold, field):
    with pytest.raises(ValidationError) as err:
        Problem("p", "x", [], OrderMapping(mapping), gold=gold)
    assert err.value.field == field


@pytest.mark.parametrize("changes, field", [
    ({"order_mapping": dict(BERRY_MAPPING, **{" ": 2})}, "order_mapping"),
    ({"order_mapping": dict(BERRY_MAPPING, **{"x <PARAM> y": 2})}, "order_mapping"),
    ({"order_mapping": dict(BERRY_MAPPING, **{"a <var> b": 2}),
      "gold": [dict(BERRY_GOLD_RECORDS[0], vars=["farm 1", "A <VAR> B"]),
               *BERRY_GOLD_RECORDS[1:]]}, "gold[0]"),
], ids=["blank_key", "key_token", "spelling_token"])
def test_load_rejects_variables_that_the_ir_cannot_carry(tmp_path, changes, field):
    write_jsonl(tmp_path / "d.jsonl", [berry_record(), berry_record(id="second", **changes)])
    with pytest.raises(ValidationError) as err:
        ingest.load_dataset(tmp_path / "d.jsonl")
    assert (err.value.line, err.value.field) == (2, field)


# Text that may hold IR tokens, whole or in part, blanks, padding and a lone
# surrogate. ``<var>`` is a token once upper-cased. Whole words are drawn
# often, so that more gold gets past its first check.
_IR_TEXT = st.one_of(
    st.sampled_from(["cost", "x", " at  most ", "a <var> b"]),
    st.lists(st.sampled_from(["x", "y", " ", "\t", "<VAR>", "<var>", "</OBJ_NAME>",
                              "[is]", "[TIMES", "<", "/", ">", "\ud800"]),
             max_size=4).map("".join),
)


# Integers, decimals, rationals with and without a terminating decimal, and
# numbers whose plain decimal has as many digits as the limit, or one more.
_LIMIT = sys.get_int_max_str_digits()
_GOLD_NUMBER = st.one_of(st.integers(-5, 5), st.decimals(-5, 5, places=2),
                         st.fractions(-5, 5, max_denominator=40),
                         st.sampled_from([Fraction(10**(_LIMIT - 1)),
                                          Fraction(10**_LIMIT),
                                          Fraction(-1, 10**(_LIMIT - 1)),
                                          Fraction(-1, 10**_LIMIT)]))


# Problem text: letters, blanks, tag characters, tag names, whole tags and a
# lone surrogate.
_PROBLEM_TEXT = st.lists(
    st.sampled_from(["a", "b", " ", "\t", "<", ">", "/", "[", "VAR", "LIMIT", "B",
                     "<VAR>", "</LIMIT>", "<B>", "\udfff"]),
    min_size=1, max_size=6).map("".join)


def _draw_spans(data, text):
    """Non-overlapping spans of ``text``, each between two drawn cut points."""
    cuts = sorted(data.draw(st.lists(st.integers(0, len(text)), min_size=1,
                                     max_size=5, unique=True)))
    return [EntitySpan(start, end, data.draw(st.sampled_from(ingest.LABELS)))
            for start, end in zip(cuts[::2], cuts[1::2])]


@seed(20261019)
@settings(max_examples=400, deadline=None)
@given(st.data())
def test_gold_that_builds_parses_back_from_its_ir(data):
    """Gold that builds saves and loads back equal, and ``lpwp augment``
    either rejects its row, naming why, or writes it as two fields: a source
    that strips back to the problem's text and spans, and an IR target of
    the gold's canonical form."""
    text = data.draw(_PROBLEM_TEXT)
    spans = _draw_spans(data, text)
    keys = data.draw(st.lists(_IR_TEXT, min_size=1, max_size=3, unique=True))

    def spellings():  # of some keys: as keyed, padded or upper-cased
        chosen = data.draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
        return [data.draw(st.sampled_from([k, f" {k}  ", k.upper()])) for k in chosen]

    gold = [ir.objective(data.draw(st.sampled_from(["min", " Maximise "])),
                         data.draw(_IR_TEXT), dict.fromkeys(spellings(), 1))]
    for _ in range(data.draw(st.integers(0, 2))):
        terms = {var: data.draw(_GOLD_NUMBER.filter(bool)) for var in spellings()}
        gold.append(ir.constraint(
            data.draw(_IR_TEXT), data.draw(st.sampled_from(ir.OPERATORS)),
            data.draw(_GOLD_NUMBER), terms))
    try:
        problem = Problem("p", text, spans,
                          OrderMapping({k: i for i, k in enumerate(keys)}), gold=gold)
    except ValidationError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.jsonl"
        ingest.save_dataset([problem], path)
        assert ingest.load_dataset(path) == [problem]
        result = CliRunner().invoke(main, ["augment", "--in", str(path)])
    source = augment_text(problem.text, problem.spans)
    target = serialize_declarations(problem.gold)
    split = [field for field, part in (("text", source), ("gold", target))
             if "\t" in part]
    tag = _TAG_RE.search(problem.text)
    if split:
        assert result.stderr == (f"error: [field {split[0]}] problem 'p': a tab "
                                 "or line break would split its row\n")
    elif tag:
        assert result.stderr == (f"error: [field text] problem 'p': tag-like run "
                                 f"{tag.group()!r} at position {tag.start()}\n")
    if split or tag:
        assert result.exit_code == 1
        return
    assert result.exit_code == 0
    assert result.output == f"{source}\t{target}\n"
    assert len(result.output[:-1].split("\t")) == 2
    assert strip_tags(source) == (problem.text, problem.spans)
    parsed, _ = ir.parse_declarations(target, "strict")
    mapping = problem.order_mapping
    assert canonicalize(parsed, mapping) == canonicalize(problem.gold, mapping)


def test_problem_built_in_python_serializes_saves_and_reloads(tmp_path):
    """ir.objective and ir.constraint read number strings and floats exactly."""
    gold = [
        ir.objective("min", "cost", {"x": 1, "y": "1"}),
        ir.constraint("at most", ir.LESS_OR_EQUAL, "0.5", {"x": "0.5", "y": 0.1}),
        ir.constraint("at least", ir.GREATER_OR_EQUAL, 2, {"x": 2}),
    ]
    problem = Problem("py", "x and y", [], OrderMapping({"x": 0, "y": 1}), gold=gold)
    target = serialize_declarations(gold)
    assert "<PARAM> 0.5 </PARAM>" in target
    assert ir.parse_declarations(target, "strict") == (gold, [])
    path = tmp_path / "py.jsonl"
    ingest.save_dataset([problem], path)
    assert ingest.load_dataset(path) == [problem]


def berry_record(**changes):
    return dict(ingest.problem_to_record(berry_problem()), **changes)


@pytest.mark.parametrize("changes, field", [
    ({"gold": 5}, "gold"),
    ({"gold": [BERRY_GOLD_RECORDS[0],
               dict(BERRY_GOLD_RECORDS[1], terms=[["farm 1", "50"]])]},
     "gold[1].terms"),
    ({"gold": [dict(BERRY_GOLD_RECORDS[0], vars=5)]}, "gold[0].vars"),
    ({"gold": [dict(BERRY_GOLD_RECORDS[0], vars=["farm 1", 2])]}, "gold[0].vars"),
    ({"spans": [[0, 5, "VAR"]]}, "spans"),
    ({"spans": 5}, "spans"),
    ({"order_mapping": {"farm 1": 0.0, "farm 2": 1}}, "order_mapping"),
    ({"order_mapping": {"farm 1": False, "farm 2": True}}, "order_mapping"),
    ({"order_mapping": [["farm 1", 0], ["farm 2", 1]]}, "order_mapping"),
], ids=["gold_not_list", "terms_list", "vars_int", "var_not_string",
        "span_list", "spans_int", "float_index", "bool_index", "mapping_list"])
def test_load_rejects_wrong_json_shapes(tmp_path, changes, field):
    write_jsonl(tmp_path / "d.jsonl",
                [berry_record(), berry_record(id="second", **changes)])
    with pytest.raises(ValidationError) as err:
        ingest.load_dataset(tmp_path / "d.jsonl")
    assert (err.value.line, err.value.field) == (2, field)


def lines_with_faults(n, faults):
    """``n`` valid record lines, with the lines in ``faults`` replaced."""
    lines = [json.dumps(berry_record(id=f"p{i}")) for i in range(n)]
    for i, line in faults.items():
        lines[i] = line
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("faults, line, field", [
    # Lines are read in order; the first fault in the file is reported.
    ({100: json.dumps(berry_record(id="a", spans=[{"start": "0", "end": 1,
                                                     "label": "VAR"}])),
      140: json.dumps(berry_record(id="b", order_mapping=[]))},
     101, "spans[0].start"),
    # A later line's fault in an earlier field does not come first.
    ({100: json.dumps(berry_record(id="a", gold=5)), 104: json.dumps(berry_record(id=5))},
     101, "gold"),
    ({3: json.dumps(berry_record(id="p1")), 5: json.dumps(berry_record(text=5))},
     4, None),
    ({5: json.dumps(berry_record(id="c", text=5)), 9: "{not json"}, 6, "text"),
    ({5: "[]", 7: json.dumps(berry_record(id="d", gold=[]))}, 6, None),
    ({3: json.dumps(berry_record(id="e", gold=5)),
      5: json.dumps(berry_record(id="f", text="x\ud800"))}, 4, "gold"),
    ({5: json.dumps(berry_record(id="g", text="x\ud800")), 9: "{not json"}, 6, "text"),
])
def test_first_fault_in_the_file_is_reported(tmp_path, faults, line, field):
    path = tmp_path / "d.jsonl"
    path.write_text(lines_with_faults(150, faults), encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        ingest.load_dataset(path)
    assert (err.value.line, err.value.field) == (line, field)


def test_shared_reader_rejects_true_after_reading_one(tmp_path):
    # 1 and True hash equal; the file's reader must still reject True.
    first = berry_record(gold=[BERRY_GOLD_RECORDS[0],
                               dict(BERRY_GOLD_RECORDS[1], limit=1)])
    second = berry_record(id="second", gold=[BERRY_GOLD_RECORDS[0],
                                             dict(BERRY_GOLD_RECORDS[1], limit=True)])
    write_jsonl(tmp_path / "d.jsonl", [first, second])
    with pytest.raises(ValidationError) as err:
        ingest.load_dataset(tmp_path / "d.jsonl")
    assert (err.value.line, err.value.field) == (2, "gold[1]")


def test_problems_sharing_numbers_round_trip(tmp_path):
    gold = [BERRY_GOLD_RECORDS[0],
            dict(BERRY_GOLD_RECORDS[1], limit="7", terms={"farm 1": "0.5", "farm 2": 7})]
    records = [berry_record(gold=gold), berry_record(id="second", gold=gold[::-1])]
    write_jsonl(tmp_path / "d.jsonl", records)
    loaded = ingest.load_dataset(tmp_path / "d.jsonl")
    for problem in loaded:
        (constraint,) = [d for d in problem.gold if d.kind == "constraint"]
        assert constraint.limit == 7
        assert constraint.terms == {"farm 1": Fraction(1, 2), "farm 2": 7}
    ingest.save_dataset(loaded, tmp_path / "saved.jsonl")
    assert ingest.load_dataset(tmp_path / "saved.jsonl") == loaded
    assert (tmp_path / "saved.jsonl").read_text().count('"0.5"') == 2


def test_shared_reader_load_equals_per_record_load(tmp_path):
    rng = random.Random(2026)
    problems = [random_problem(rng, f"p{i}") for i in range(300)]
    path = tmp_path / "random.jsonl"
    ingest.save_dataset(problems, path)
    loaded = ingest.load_dataset(path)
    with open(path, encoding="utf-8") as fh:
        one_by_one = [
            ingest.problem_from_record(json.loads(line), JsonNumbers(), line=i)
            for i, line in enumerate(fh, 1)
        ]
    assert loaded == one_by_one == problems
    for shared, alone in zip(loaded, one_by_one):
        a = canonicalize(shared.gold, shared.order_mapping)
        b = canonicalize(alone.gold, alone.order_mapping)
        assert a == b
        assert solve_lp(a) == solve_lp(b)


def test_other_spelling_of_gold_variable_loads(tmp_path):
    record = berry_record(gold=[
        dict(BERRY_GOLD_RECORDS[0], vars=[" Farm  1 ", "farm 2"]),
        dict(BERRY_GOLD_RECORDS[1], terms={" Farm  1 ": "50", "FARM 2": "70"}),
    ])
    write_jsonl(tmp_path / "d.jsonl", [record])
    (problem,) = ingest.load_dataset(tmp_path / "d.jsonl")
    form = canonicalize(problem.gold, problem.order_mapping)
    assert form.objective == [1, 1]
    assert form.constraints == [[-50, -70]]


OBJ, LIN = BERRY_GOLD_RECORDS[0], BERRY_GOLD_RECORDS[1]


def load_line(tmp_path, line):
    path = tmp_path / "d.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    return ingest.load_dataset(path)


@pytest.mark.parametrize("changes, field", [
    ({"spans": [{"start": "0", "end": 5, "label": "PARAM"}]}, "spans[0].start"),
    ({"spans": [{"start": 0.0, "end": 5, "label": "PARAM"}]}, "spans[0].start"),
    ({"spans": [{"start": False, "end": 5, "label": "PARAM"}]}, "spans[0].start"),
    ({"spans": [{"start": 0, "end": 5, "label": 5}]}, "spans[0].label"),
    ({"text": 5}, "text"),
    ({"gold": [dict(OBJ, direction=5), LIN]}, "gold[0].direction"),
    ({"gold": [dict(OBJ, name=7), LIN]}, "gold[0].name"),
    ({"gold": [OBJ, dict(LIN, direction=5)]}, "gold[1].direction"),
    ({"gold": [{"type": "objvar", "direction": "min", "vars": ["farm 1"]}]},
     "gold[0].name"),
], ids=["start_string", "start_float", "start_false", "label_int", "text_int",
        "objective_direction_int", "objective_name_int",
        "constraint_direction_int", "name_missing"])
def test_load_rejects_wrong_field_types(tmp_path, changes, field):
    with pytest.raises(ValidationError) as err:
        load_line(tmp_path, json.dumps(berry_record(**changes)))
    assert (err.value.line, err.value.field) == (1, field)


@pytest.mark.parametrize("changes, field", [
    ({"text": BERRY_TEXT + "\ud800"}, "text"),
    ({"id": "\udfff"}, "id"),
    ({"spans": [{"start": 0, "end": 5, "label": "VAR\udc00"}]}, "spans[0].label"),
    ({"gold": [dict(OBJ, name="cost\ud83d"), LIN]}, "gold[0].name"),
    ({"gold": [OBJ, dict(LIN, terms={"farm 1\ud800": "1"})]}, "gold[1].terms"),
    ({"order_mapping": {"farm 1": 0, "farm 2\ude00": 1}}, "order_mapping"),
    ({"note": ["\ud800"]}, "note[0]"),
], ids=["text", "id", "span_label", "objective_name", "terms_key",
        "mapping_key", "unknown_field"])
def test_load_rejects_a_lone_surrogate(tmp_path, changes, field):
    # json.dumps writes a lone surrogate as a \u escape.
    write_jsonl(tmp_path / "d.jsonl",
                [berry_record(), berry_record(**{"id": "second", **changes})])
    with pytest.raises(ValidationError) as err:
        ingest.load_dataset(tmp_path / "d.jsonl")
    assert (err.value.line, err.value.field) == (2, field)
    assert "surrogate" in err.value.message


def test_upper_case_lone_surrogate_escape_rejected(tmp_path):
    line = json.dumps(berry_record(text="x\udc0f")).replace("\\udc0f", "\\uDC0F")
    assert "\\uDC0F" in line
    with pytest.raises(ValidationError) as err:
        load_line(tmp_path, line)
    assert (err.value.line, err.value.field) == (1, "text")


def test_surrogate_pair_escape_loads_and_round_trips(tmp_path):
    text = BERRY_TEXT + " \U0001F600"
    line = json.dumps(berry_record(text=text))
    assert "\\ud83d\\ude00" in line
    (loaded,) = load_line(tmp_path, line)
    assert loaded.text == text
    ingest.save_dataset([loaded], tmp_path / "again.jsonl")
    assert ingest.load_dataset(tmp_path / "again.jsonl") == [loaded]


def test_gold_number_literals_load_exactly(tmp_path):
    gold = [OBJ, dict(LIN, limit="@limit@", terms={"farm 1": "@coeff@"})]
    line = (json.dumps(berry_record(gold=gold))
            .replace('"@limit@"', "12345678901234567.5")
            .replace('"@coeff@"', "0.30000000000000001"))
    (problem,) = load_line(tmp_path, line)
    assert problem.gold[1].limit == Fraction("12345678901234567.5")
    assert problem.gold[1].terms == {"farm 1": Fraction("0.30000000000000001")}
    form = canonicalize(problem.gold, problem.order_mapping).as_json_dict()
    assert form["limits"] == ["-12345678901234567.5"]
    ingest.save_dataset([problem], tmp_path / "saved.jsonl")
    assert ingest.load_dataset(tmp_path / "saved.jsonl") == [problem]


@pytest.mark.parametrize("literal", ["1e5000", '"1e5000"', '"1e999999999"',
                                     "-1e-999999999"])
def test_gold_numbers_beyond_the_digit_limit_rejected_at_load(tmp_path, literal):
    gold = [OBJ, dict(LIN, limit="@limit@")]
    line = json.dumps(berry_record(gold=gold)).replace('"@limit@"', literal)
    with pytest.raises(ValidationError) as err:
        load_line(tmp_path, line)
    assert (err.value.line, err.value.field) == (1, "gold[1]")
    assert "digits" in str(err.value)


@pytest.mark.parametrize("gold, field", [
    ([dict(OBJ, direction="reduce"), LIN], "gold[0]"),
    ([OBJ, dict(LIN, terms={"farm 1": "0", "farm 2": 0})], "gold[1]"),
    ([OBJ, dict(LIN, terms={"farm 1": 2, " Farm 1 ": "-2"})], "gold[1]"),
    ([OBJ, LIN, OBJ], "gold"),
    ([LIN], "gold"),
    ([OBJ, dict(LIN, operator="EQUALS")], "gold[1]"),
], ids=["direction_reduce", "zero_row", "spellings_cancel", "two_objectives",
        "no_objective", "equals_operator"])
def test_load_rejects_gold_without_canonical_form(tmp_path, gold, field):
    with pytest.raises(ValidationError) as err:
        load_line(tmp_path, json.dumps(berry_record(gold=gold)))
    assert (err.value.line, err.value.field) == (1, field)


def test_gold_variable_that_is_not_a_str_is_rejected():
    # JSON keys are strs: only a record or problem built in Python has one.
    record = berry_record(gold=[OBJ, dict(LIN, terms={1: "2", "farm 1": "3"})])
    with pytest.raises(ValidationError) as err:
        ingest.problem_from_record(record, JsonNumbers(), line=1)
    assert (err.value.line, err.value.field) == (1, "gold[1]")
    assert err.value.message == "variable 1 is not a str"
    with pytest.raises(ValidationError) as err:
        Problem("p", "x", [], OrderMapping({"x": 0}),
                gold=[ir.objective("min", "n", {"x": 1, 2: 1})])
    assert err.value.field == "gold[0]"


def test_shared_reader_refuses_writes(tmp_path):
    # A build trusts what the reader gives: a stored 1/3 under "0.5" would
    # build a problem whose save raises.
    numbers, third = JsonNumbers(), Fraction(1, 3)
    for write in (lambda: operator.setitem(numbers, "0.5", third),
                  lambda: numbers.setdefault("0.5", third),
                  lambda: numbers.update({"0.5": third}),
                  lambda: operator.ior(numbers, {"0.5": third})):
        with pytest.raises(TypeError):
            write()
    assert numbers == {}
    record = berry_record(gold=[OBJ, dict(LIN, limit="0.5")])
    problem = ingest.problem_from_record(record, numbers, line=1)
    assert problem.gold[1].limit == Fraction(1, 2)
    ingest.save_dataset([problem], tmp_path / "saved.jsonl")
    assert ingest.load_dataset(tmp_path / "saved.jsonl") == [problem]


def test_objective_direction_words_load_in_any_spelling(tmp_path):
    gold = [dict(OBJ, direction=" Maximise "), LIN]
    (problem,) = load_line(tmp_path, json.dumps(berry_record(gold=gold)))
    assert canonicalize(problem.gold, problem.order_mapping).objective == [-1, -1]


MUTATION_RECORDS = [ingest.problem_to_record(berry_problem())] + [
    ingest.problem_to_record(random_problem(random.Random(n), f"r{n}"))
    for n in range(3)
]


@seed(20261018)
@settings(max_examples=500, deadline=None)
@given(st.data())
def test_type_mutations_are_rejected_or_round_trip(data):
    """Replace one value, at any depth, with a value of any JSON type."""
    record = data.draw(st.sampled_from(MUTATION_RECORDS))
    path = data.draw(st.sampled_from(list(json_paths(record))))
    value = data.draw(st.one_of(
        st.sampled_from(MUTANT_VALUES), st.none(), st.booleans(), st.integers(),
        st.floats(), st.text(max_size=12),
        st.lists(st.integers(-2, 2), max_size=3),
        st.dictionaries(st.text(max_size=4), st.integers(-2, 2), max_size=2),
    ))
    line = json.dumps(replace_at(record, path, value))
    try:
        problem = ingest.problem_from_record(decode_json(line), JsonNumbers(), line=1)
    except ValidationError as err:
        assert err.line == 1 and err.field, (path, value, err)
        return
    if problem.gold is not None:
        canonicalize(problem.gold, problem.order_mapping)
    augment_text(problem.text, problem.spans)
    serialize_declarations(problem.gold or [])
    with tempfile.TemporaryDirectory() as tmp:
        saved = Path(tmp) / "saved.jsonl"
        ingest.save_dataset([problem], saved)
        assert ingest.load_dataset(saved) == [problem]


def changed_after_building(**fields):
    """A problem given ``fields`` past its frozen dataclass after it was
    built, which ``Problem`` itself would reject."""
    objective = ir.objective("min", "n", {"x": 1})
    problem = Problem("bad", "x", [], OrderMapping({"x": 0}), gold=[objective])
    for name, value in fields.items():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(problem, name, value)
        object.__setattr__(problem, name, value)
    return problem


@pytest.mark.parametrize("fields, error", [
    ({"text": "x\ud800"}, UnicodeEncodeError),
    ({"gold": [ir.objective("min", "n", {"x": 1}),
               ir.constraint("at most", "LESS_OR_EQUAL", Fraction(1, 3), {"x": 1})]},
     ValueError),
    ({"gold": [ir.objective("min", "n", {"x": 1}),
               ir.constraint("at most", "LESS_OR_EQUAL", 1, {"x": Fraction(1, 3)})]},
     ValueError),
], ids=["lone_surrogate", "limit_one_third", "coefficient_one_third"])
def test_failed_save_leaves_the_target_as_it_was(tmp_path, fields, error):
    """Only a problem changed past its frozen dataclass can fail to save."""
    problem = changed_after_building(**fields)
    target = tmp_path / "d.jsonl"
    target.write_bytes(b"earlier contents\n")
    with pytest.raises(error):
        ingest.save_dataset([berry_problem(), problem], target)
    assert target.read_bytes() == b"earlier contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["d.jsonl"]


# Text for ids, texts, keys, names and directions: non-ASCII letters, a
# character beyond the BMP (a surrogate pair in UTF-16), a line separator,
# and quotes and backslashes, which JSON escapes.
_JSON_TEXT = st.text(st.sampled_from(["a", "B", " ", "\t", '"', "\\", "\u00e9", "\u00df",
                                      "\u2028", "\U0001F600"]),
                     min_size=1, max_size=6)
_JSON_NAME = _JSON_TEXT.filter(str.strip)


@seed(20261020)
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_save_writes_each_problem_as_json_dumps_does(data):
    problems = []
    for pid in data.draw(st.lists(_JSON_TEXT, min_size=1, max_size=3, unique=True)):
        keys = data.draw(st.lists(_JSON_NAME, min_size=1, max_size=3,
                                  unique_by=ingest.normalize_name))
        gold = [ir.objective("min", data.draw(_JSON_NAME), dict.fromkeys(keys, 1)),
                ir.constraint(data.draw(_JSON_NAME), ir.LESS_OR_EQUAL,
                              data.draw(st.decimals(-5, 5, places=2)), {keys[-1]: 1})]
        problems.append(Problem(
            pid, data.draw(_JSON_TEXT), [EntitySpan(0, 1, "VAR")],
            OrderMapping({k: i for i, k in enumerate(keys)}),
            gold=data.draw(st.sampled_from([None, gold]))))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.jsonl"
        ingest.save_dataset(problems, path)
        assert path.read_bytes() == "".join(
            json.dumps(ingest.problem_to_record(p), ensure_ascii=False) + "\n"
            for p in problems).encode("utf-8")
        assert ingest.load_dataset(path) == problems


def test_save_writes_through_the_target_it_is_given(tmp_path):
    """A symlink stays a symlink, the file keeps its mode, a device works."""
    real = tmp_path / "real.jsonl"
    real.write_bytes(b"earlier contents\n")
    real.chmod(0o640)
    link = tmp_path / "link.jsonl"
    link.symlink_to(real)
    ingest.save_dataset([berry_problem()], link)
    assert link.is_symlink()
    assert real.stat().st_mode & 0o777 == 0o640
    assert ingest.load_dataset(real) == [berry_problem()]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl", "real.jsonl"]
    ingest.save_dataset([berry_problem()], os.devnull)
