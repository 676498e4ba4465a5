"""Whole numbers read as ints: the type each reader gives, and outputs that do
not depend on whether a value is held as an int or as a Fraction."""

import json
import math
import random
from fractions import Fraction

import pytest

from lpwp import ingest, ir
from lpwp.canonical import canonicalize
from lpwp.metrics import score_accuracy
from lpwp.numbers import decode_json, exact
from lpwp.solver import formulation_from_json_dict, solve_lp

from helpers import random_declaration, random_problem

# Each number text with the value it reads as.
WHOLE = {"7": 7, "-0": 0, "2.0": 2, "1e2": 100, "+3": 3, "007.00": 7}
NOT_WHOLE = {"007.50": Fraction(15, 2), ".5": Fraction(1, 2), "1e-2": Fraction(1, 100)}
# JSON values that are not strings: an integer and float literals.
JSON_WHOLE = {5: 5, 2.0: 2}
JSON_NOT_WHOLE = {0.25: Fraction(1, 4)}


def assert_reads_as(number, value):
    """``number`` is the int ``value`` when it is whole, never a bool, and
    otherwise a Fraction in lowest terms."""
    if isinstance(value, int):
        assert type(number) is int and number == value
    else:
        assert type(number) is Fraction
        assert (number.numerator, number.denominator) == (value.numerator,
                                                          value.denominator)
        assert math.gcd(number.numerator, number.denominator) == 1


def test_load_dataset_reads_whole_numbers_as_ints(tmp_path):
    expected = {**WHOLE, **NOT_WHOLE, **JSON_WHOLE, **JSON_NOT_WHOLE}
    gold = [{"type": "objvar", "direction": "minimize", "name": "cost",
             "vars": ["x", "y"]}]
    # Each number is a limit and a coefficient, beside a nonzero one.
    gold += [{"type": "linear", "direction": "at most", "operator": "LESS_OR_EQUAL",
              "limit": text, "terms": {"x": text, "y": "1"}} for text in expected]
    record = {"id": "p", "text": "x", "spans": [], "order_mapping": {"x": 0, "y": 1},
              "gold": gold}
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    (problem,) = ingest.load_dataset(path)
    objective, *constraints = problem.gold
    for term in objective.terms.values():
        assert_reads_as(term, 1)
    for decl, value in zip(constraints, expected.values(), strict=True):
        assert_reads_as(decl.limit, value)
        assert_reads_as(decl.terms["x"], value)
        assert_reads_as(decl.terms["y"], 1)


def test_parse_declarations_reads_whole_numbers_as_ints():
    expected = {**WHOLE, **NOT_WHOLE, "ONE": 1}
    text = "".join(
        "<DECLARATION><CONST_DIR> at most </CONST_DIR>"
        "<OPERATOR> LESS_OR_EQUAL </OPERATOR>"
        f"<LIMIT> {'1' if number == 'ONE' else number} </LIMIT> [is] "
        f"<VAR> x </VAR> [TIMES] <PARAM> {number} </PARAM>"
        "<VAR> y </VAR> [TIMES] <PARAM> ONE </PARAM></DECLARATION>"
        for number in expected
    )
    for mode in ("strict", "lenient"):
        decls, diagnostics = ir.parse_declarations(text, mode)
        assert diagnostics == []
        for decl, (number, value) in zip(decls, expected.items(), strict=True):
            assert_reads_as(decl.limit, 1 if number == "ONE" else value)
            assert_reads_as(decl.terms["x"], value)
            assert_reads_as(decl.terms["y"], 1)


def test_formulation_reader_reads_whole_numbers_as_ints():
    expected = {**WHOLE, **NOT_WHOLE, **JSON_WHOLE, **JSON_NOT_WHOLE}
    values = list(expected)
    data = {"n_vars": len(values), "objective": values, "constraints": [values],
            "limits": values}
    formulation = formulation_from_json_dict(decode_json(json.dumps(data)))
    for row in (formulation.objective, formulation.constraints[0], formulation.limits):
        for number, value in zip(row, expected.values(), strict=True):
            assert_reads_as(number, value)


@pytest.mark.parametrize("value", [*WHOLE, *NOT_WHOLE, 5, Fraction(4, 2)])
def test_exact_and_the_python_builders_give_fractions(value):
    assert type(exact(value)) is Fraction
    objective = ir.objective("minimize", "cost", {"x": value})
    constraint = ir.constraint("at most", ir.LESS_OR_EQUAL, value, {"x": value})
    assert type(objective.terms["x"]) is Fraction
    assert type(constraint.terms["x"]) is Fraction
    assert type(constraint.limit) is Fraction


def answer_bits(solution):
    """Status, x and objective, each float as its exact hex text."""
    x = None if solution.x is None else [v.hex() for v in solution.x]
    value = solution.objective_value
    return solution.status, x, None if value is None else value.hex()


def test_loaded_ints_give_the_outputs_of_python_built_fractions(tmp_path):
    """Each problem as built in Python (Fractions) and as loaded from its
    saved file (an int for each whole value), with predictions built in
    Python and read back from their IR: the same canonical form, solver
    answer and score at every tolerance."""
    rng = random.Random(2610)
    built = [random_problem(rng, f"p{i}") for i in range(300)]
    path = tmp_path / "random.jsonl"
    ingest.save_dataset(built, path)
    loaded = ingest.load_dataset(path)
    assert loaded == built
    held = {type(v) for problem in loaded for decl in problem.gold
            for v in (*decl.terms.values(), decl.limit) if v is not None}
    assert held == {int, Fraction}
    tolerances = ("1e-9", "0", "0.5", "2")
    for python, read in zip(built, loaded):
        mapping = python.order_mapping
        names = mapping.column_names()
        # The gold, with some limits moved by a half, which only a positive
        # tolerance matches, and some declarations of no gold.
        pred = [decl if decl.kind == ir.OBJECTIVE or rng.random() < 0.5 else
                ir.constraint(decl.direction_text, decl.operator,
                              decl.limit + Fraction(1, 2), decl.terms)
                for decl in python.gold]
        pred += [random_declaration(rng, names) for _ in range(3)]
        read_pred, _ = ir.parse_declarations(ir.serialize_declarations(pred))
        assert read_pred == pred

        forms = [canonicalize(p.gold, mapping) for p in (python, read)]
        assert forms[0].as_json_dict() == forms[1].as_json_dict()
        assert answer_bits(solve_lp(forms[0])) == answer_bits(solve_lp(forms[1]))
        for tol in tolerances:
            scores = [
                score_accuracy({p.id: p.gold}, {p.id: decls}, {p.id: mapping}, tol)
                .per_example
                for p, decls in ((python, pred), (read, read_pred))
            ]
            assert scores[0] == scores[1]
