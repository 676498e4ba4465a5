import random
from fractions import Fraction

import pytest

from lpwp import ir
from lpwp.errors import IrParseError
from lpwp.ir import parse_declarations, serialize_declarations

from helpers import random_declaration_list

FIG3_OBJECTIVE_IR = (
    "<DECLARATION><OBJ_DIR> minimize </OBJ_DIR>"
    "<OBJ_NAME> amount of time </OBJ_NAME> [is] "
    "<VAR> farm 2 </VAR> [TIMES] <PARAM> ONE </PARAM>"
    "<VAR> farm 1 </VAR> [TIMES] <PARAM> ONE </PARAM></DECLARATION>"
)


def fig3_objective():
    return ir.objective(
        "minimize", "amount of time",
        {"farm 2": Fraction(1), "farm 1": Fraction(1)},
    )


def test_serialize_objective_golden():
    assert serialize_declarations([fig3_objective()]) == FIG3_OBJECTIVE_IR


def test_serialize_constraint_golden():
    decl = ir.constraint(
        "at least", ir.GREATER_OR_EQUAL, 3000,
        {"farm 2": Fraction(70), "farm 1": Fraction(50)},
    )
    assert serialize_declarations([decl]) == (
        "<DECLARATION><CONST_DIR> at least </CONST_DIR>"
        "<OPERATOR> GREATER_OR_EQUAL </OPERATOR>"
        "<LIMIT> 3000 </LIMIT> [is] "
        "<VAR> farm 2 </VAR> [TIMES] <PARAM> 70 </PARAM>"
        "<VAR> farm 1 </VAR> [TIMES] <PARAM> 50 </PARAM></DECLARATION>"
    )


def test_serialize_empty_list():
    assert serialize_declarations([]) == ""


def test_parse_fig3_objective():
    decls, diagnostics = parse_declarations(FIG3_OBJECTIVE_IR, "strict")
    assert decls == [fig3_objective()]
    assert diagnostics == []


def test_parse_empty_string():
    assert parse_declarations("", "strict") == ([], [])
    assert parse_declarations("", "lenient") == ([], [])


def test_one_token_parses_to_exactly_one():
    decls, _ = parse_declarations(FIG3_OBJECTIVE_IR, "strict")
    assert all(c == Fraction(1) for c in decls[0].terms.values())


def test_numeric_tokens_are_exact():
    decl = ir.constraint(
        "at most", ir.LESS_OR_EQUAL, Fraction("123456789.012"),
        {"x": Fraction("0.000000000001")},
    )
    (parsed,), _ = parse_declarations(serialize_declarations([decl]), "strict")
    assert parsed.limit == Fraction("123456789.012")
    assert parsed.terms["x"] == Fraction(1, 10**12)


def test_parser_tolerates_whitespace_runs():
    spaced = (
        "<DECLARATION>  <OBJ_DIR>  minimize  </OBJ_DIR>\n"
        "<OBJ_NAME> amount of time </OBJ_NAME>\t[is]\n"
        "<VAR>farm 2</VAR> [TIMES] <PARAM>ONE</PARAM></DECLARATION>"
    )
    decls, diagnostics = parse_declarations(spaced, "strict")
    assert decls == [ir.objective("minimize", "amount of time",
                                  {"farm 2": Fraction(1)})]
    assert diagnostics == []


def test_strict_truncated_raises_with_position():
    with pytest.raises(IrParseError) as err:
        parse_declarations("<DECLARATION><OBJ_DIR> minimize </OBJ_DIR>", "strict")
    assert err.value.position >= 0


def test_lenient_truncated_reports_unterminated():
    decls, diagnostics = parse_declarations(
        "<DECLARATION><OBJ_DIR> minimize </OBJ_DIR>", "lenient"
    )
    assert decls == []
    assert len(diagnostics) == 1
    assert "unterminated declaration" in diagnostics[0]


def test_lenient_skips_bad_keeps_good():
    bad = "<DECLARATION><OBJ_DIR> minimize </OBJ_DIR></DECLARATION>"
    text = bad + FIG3_OBJECTIVE_IR
    decls, diagnostics = parse_declarations(text, "lenient")
    assert decls == [fig3_objective()]
    assert len(diagnostics) == 1


def test_lenient_never_raises_on_garbage():
    rng = random.Random(7)
    fragments = [
        "<DECLARATION>", "</DECLARATION>", "<VAR>", "</VAR>", "[is]",
        "[TIMES]", "<PARAM>", "</PARAM>", "ONE", "12.5", "text", " ",
        "<OBJ_DIR>", "</OBJ_DIR>", "<LIMIT>", "</LIMIT>", "<OPERATOR>",
    ]
    for _ in range(500):
        blob = "".join(rng.choices(fragments, k=rng.randint(0, 30)))
        parse_declarations(blob, "lenient")  # must terminate, never raise


def test_duplicate_var_coefficients_summed_with_diagnostic():
    text = (
        "<DECLARATION><CONST_DIR> at most </CONST_DIR>"
        "<OPERATOR> LESS_OR_EQUAL </OPERATOR><LIMIT> 5 </LIMIT> [is] "
        "<VAR> x </VAR> [TIMES] <PARAM> 2 </PARAM>"
        "<VAR> x </VAR> [TIMES] <PARAM> 3 </PARAM></DECLARATION>"
    )
    decls, diagnostics = parse_declarations(text, "lenient")
    assert decls[0].terms == {"x": Fraction(5)}
    assert any("duplicate" in d for d in diagnostics)


def test_equal_names_and_directions_of_one_parse_are_one_object():
    at_least = ir.constraint("at least", ir.GREATER_OR_EQUAL, 3,
                             {"farm 2": 70, "farm 1": 50})
    at_most = ir.constraint("at least", ir.LESS_OR_EQUAL, 9, {"farm 1": 1})
    objective = ir.objective("at least", "farm 1", {"farm 1": 1, "farm 2": 1})
    expected = [fig3_objective(), at_least, objective, at_most, at_least]
    decls, diagnostics = parse_declarations(serialize_declarations(expected), "strict")
    assert decls == expected and diagnostics == []
    names = {}
    for decl in decls:
        for name in [decl.direction_text, *decl.terms, decl.name]:
            if name is not None:
                assert names.setdefault(name, name) is name
    assert decls[1].operator is decls[4].operator is ir.GREATER_OR_EQUAL
    assert decls[3].operator is ir.LESS_OR_EQUAL


def test_strict_rejects_stray_text():
    with pytest.raises(IrParseError):
        parse_declarations("hello " + FIG3_OBJECTIVE_IR, "strict")
    with pytest.raises(IrParseError):
        parse_declarations(FIG3_OBJECTIVE_IR + " trailing", "strict")


def test_strict_rejects_bad_operator():
    text = (
        "<DECLARATION><CONST_DIR> at most </CONST_DIR>"
        "<OPERATOR> EQUALS </OPERATOR><LIMIT> 5 </LIMIT> [is] "
        "<VAR> x </VAR> [TIMES] <PARAM> 2 </PARAM></DECLARATION>"
    )
    with pytest.raises(IrParseError):
        parse_declarations(text, "strict")


def test_round_trip_property():
    rng = random.Random(20240812)
    for _ in range(1000):
        decls = random_declaration_list(rng)
        for mode in ("strict", "lenient"):
            parsed, diagnostics = parse_declarations(
                serialize_declarations(decls), mode
            )
            assert parsed == decls
            assert diagnostics == []


AT_MOST_X = (
    "<DECLARATION><CONST_DIR> at most </CONST_DIR>"
    "<OPERATOR> LESS_OR_EQUAL </OPERATOR><LIMIT> {limit} </LIMIT> [is] "
    "{terms}</DECLARATION>"
)


@pytest.mark.parametrize("text, at, message", [
    ("<DECLARATION><OBJ_DIR> </OBJ_DIR><OBJ_NAME> n </OBJ_NAME> [is] "
     "<VAR> x </VAR> [TIMES] <PARAM> 2 </PARAM></DECLARATION>",
     " </OBJ_DIR>", "empty <OBJ_DIR> content"),
    (AT_MOST_X.format(limit=5, terms=""), "</DECLARATION>",
     "declaration has no terms"),
    (AT_MOST_X.format(limit="ONE", terms="<VAR> x </VAR> [TIMES] <PARAM> 2 </PARAM>"),
     "<LIMIT>", "ONE is only valid as a coefficient"),
    (AT_MOST_X.format(limit="1/2", terms="<VAR> x </VAR> [TIMES] <PARAM> 2 </PARAM>"),
     "<LIMIT>", "bad numeric value '1/2'"),
    (AT_MOST_X.format(limit=5, terms="<VAR> x </VAR> [TIMES] <PARAM> 1/2 </PARAM>"),
     "<PARAM>", "bad numeric value '1/2'"),
], ids=["empty_direction", "no_terms", "one_as_limit", "bad_limit", "bad_param"])
def test_lenient_diagnostic_names_the_fault_and_its_position(text, at, message):
    decls, diagnostics = parse_declarations(text, "lenient")
    assert decls == []
    assert diagnostics == [f"char {text.index(at)}: {message}"]


def test_unknown_parse_mode_rejected():
    with pytest.raises(ValueError):
        parse_declarations(FIG3_OBJECTIVE_IR, "loose")


@pytest.mark.parametrize("number", ["1/3", " 3", "1_000"])
def test_declaration_helpers_reject_a_number_string_outside_the_grammar(number):
    with pytest.raises(ValueError):
        ir.objective("minimize", "cost", {"x": number})
    with pytest.raises(ValueError):
        ir.constraint("at most", ir.LESS_OR_EQUAL, number, {"x": 1})
    with pytest.raises(ValueError):
        ir.constraint("at most", ir.LESS_OR_EQUAL, 1, {"x": number})


@pytest.mark.parametrize("fields, message", [
    (dict(kind="bound", direction_text="at most", terms={"x": 1}),
     "unknown declaration kind"),
    (dict(kind=ir.OBJECTIVE, direction_text="minimize", terms={"x": 1},
          name="n", operator=ir.LESS_OR_EQUAL), "must not carry operator/limit"),
    (dict(kind=ir.OBJECTIVE, direction_text="minimize", terms={"x": 1},
          name="n", limit=Fraction(1)), "must not carry operator/limit"),
    (dict(kind=ir.OBJECTIVE, direction_text="minimize", terms={"x": 1}),
     "objective requires a name"),
    (dict(kind=ir.CONSTRAINT, direction_text="at most", terms={"x": 1},
          operator=ir.LESS_OR_EQUAL), "constraint requires a limit"),
    (dict(kind=ir.CONSTRAINT, direction_text="at most", terms={"x": 1},
          operator=ir.LESS_OR_EQUAL, limit=Fraction(1), name="n"),
     "constraint must not carry a name"),
], ids=["unknown_kind", "objective_operator", "objective_limit", "objective_no_name",
        "constraint_no_limit", "constraint_name"])
def test_declaration_rejects_a_wrong_shape(fields, message):
    with pytest.raises(ValueError, match=message):
        ir.Declaration(**fields)


def test_declaration_helpers_reject_a_bool_and_an_infinity():
    with pytest.raises(ValueError):
        ir.constraint("at most", ir.LESS_OR_EQUAL, float("inf"), {"x": 1})
    with pytest.raises(ValueError):
        ir.constraint("at most", ir.LESS_OR_EQUAL, 1, {"x": float("-inf")})
    with pytest.raises(ValueError):
        ir.objective("minimize", "cost", {"x": True})
