import json
import random
from fractions import Fraction

import pytest

from lpwp import ingest
from lpwp.canonical import canonicalize
from lpwp.errors import (
    MappingError,
    UnsupportedDeclarationError,
    ValidationError,
)
from lpwp.ingest import EntitySpan, OrderMapping, Problem
from lpwp.numbers import JsonNumbers
from lpwp.solver import solve_lp

from helpers import BERRY_GOLD_RECORDS, berry_problem, random_problem


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert ingest.load_dataset(path) == []


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
    assert "no terminating decimal expansion" in str(err.value)


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
