import random
from fractions import Fraction

import pytest

from lpwp import canonical, ir
from lpwp.canonical import canonicalize, declarations_equal
from lpwp.errors import MappingError, StructureError
from lpwp.ingest import OrderMapping

from helpers import berry_problem, random_declaration


def berry_canonical():
    problem = berry_problem()
    return canonicalize(problem.gold, problem.order_mapping)


def test_berry_canonical_panel():
    form = berry_canonical()
    assert form.n_vars == 2
    assert form.objective == [1, 1]
    assert form.constraints == [[-50, -70], [-300, -200]]
    assert form.limits == [-3000, -15000]


def test_maximize_inverts_objective():
    decl = ir.objective("maximize", "profit", {"x": Fraction(3)})
    form = canonicalize([decl], OrderMapping({"x": 0}))
    assert form.objective == [-3]


def test_le_constraint_not_inverted():
    decls = [
        ir.objective("minimize", "n", {"x": Fraction(1)}),
        ir.constraint("at most", ir.LESS_OR_EQUAL, 10, {"x": Fraction(2)}),
    ]
    form = canonicalize(decls, OrderMapping({"x": 0}))
    assert form.constraints == [[2]]
    assert form.limits == [10]


def test_missing_variables_get_zero():
    decls = [
        ir.objective("minimize", "n", {"x": Fraction(1)}),
        ir.constraint("at most", ir.LESS_OR_EQUAL, 4, {"y": Fraction(7)}),
    ]
    form = canonicalize(decls, OrderMapping({"x": 0, "y": 1}))
    assert form.objective == [1, 0]
    assert form.constraints == [[0, 7]]


def test_zero_or_multiple_objectives_rejected():
    mapping = OrderMapping({"x": 0})
    con = ir.constraint("at most", ir.LESS_OR_EQUAL, 1, {"x": Fraction(1)})
    obj = ir.objective("minimize", "n", {"x": Fraction(1)})
    with pytest.raises(StructureError):
        canonicalize([con], mapping)
    with pytest.raises(StructureError):
        canonicalize([obj, obj], mapping)


def test_unresolvable_variable_lists_known_keys():
    obj = ir.objective("minimize", "n", {"z": Fraction(1)})
    with pytest.raises(MappingError) as err:
        canonicalize([obj], OrderMapping({"x": 0, "y": 1}))
    assert "z" in str(err.value)
    assert "x" in str(err.value) and "y" in str(err.value)


def test_all_zero_constraint_row_rejected():
    decls = [
        ir.objective("minimize", "n", {"x": Fraction(1)}),
        ir.constraint("at most", ir.LESS_OR_EQUAL, 1, {"x": Fraction(0)}),
    ]
    with pytest.raises(StructureError):
        canonicalize(decls, OrderMapping({"x": 0}))


def test_spellings_of_one_column_add_up():
    mapping = OrderMapping({"farm 1": 0, "farm 2": 1})
    decl = ir.objective("minimize", "cost", {"farm 1": 2, " Farm  1 ": "0.5"})
    assert canonical.canonicalize_declaration(decl, mapping) == (
        ir.OBJECTIVE, [Fraction(5, 2), 0]
    )


@pytest.mark.parametrize("coeff", [3, -2, "0.25", "-1.5", 0.1, Fraction(7, 4)])
def test_coefficient_types_canonicalize_to_exact_fractions(coeff):
    decl = ir.objective("minimize", "cost", {"x": coeff})
    _, vector = canonical.canonicalize_declaration(decl, OrderMapping({"x": 0}))
    assert vector == [Fraction(coeff)]
    assert type(vector[0]) is Fraction


def test_spellings_that_cancel_leave_an_all_zero_row():
    decls = [
        ir.objective("minimize", "n", {"x": Fraction(1)}),
        ir.constraint("at most", ir.LESS_OR_EQUAL, 1, {"x": 2, " X ": "-2"}),
    ]
    with pytest.raises(StructureError):
        canonicalize(decls, OrderMapping({"x": 0}))


def test_ge_and_negated_le_are_canonically_equal():
    mapping = OrderMapping({"farm1": 0, "farm2": 1})
    ge = ir.constraint("at least", ir.GREATER_OR_EQUAL, 3000,
                       {"farm1": Fraction(50), "farm2": Fraction(70)})
    le = ir.constraint("at most", ir.LESS_OR_EQUAL, -3000,
                       {"farm1": Fraction(-50), "farm2": Fraction(-70)})
    assert declarations_equal(ge, le, mapping)


def test_term_order_is_immaterial():
    mapping = OrderMapping({"farm 1": 0, "farm 2": 1})
    a = ir.objective("minimize", "amount of time",
                     {"farm 2": Fraction(1), "farm 1": Fraction(1)})
    b = ir.objective("minimize", "amount of time",
                     {"farm 1": Fraction(1), "farm 2": Fraction(1)})
    assert declarations_equal(a, b, mapping)


def test_name_and_direction_text_excluded_from_equality():
    mapping = OrderMapping({"x": 0})
    a = ir.objective("minimize", "cost", {"x": Fraction(2)})
    b = ir.objective("Minimise", "expenditure", {"x": Fraction(2)})
    assert declarations_equal(a, b, mapping)


def test_limit_change_breaks_equality():
    problem = berry_problem()
    first = problem.gold[1]
    altered = ir.constraint(
        first.direction_text, first.operator, 3001, first.terms
    )
    assert not declarations_equal(first, altered, problem.order_mapping)


def _invert(decl):
    if decl.kind == ir.OBJECTIVE:
        direction = "maximize" if decl.direction_text == "minimize" else "minimize"
        return ir.Declaration(
            ir.OBJECTIVE, direction,
            {v: -c for v, c in decl.terms.items()}, name=decl.name,
        )
    flipped = (ir.LESS_OR_EQUAL if decl.operator == ir.GREATER_OR_EQUAL
               else ir.GREATER_OR_EQUAL)
    return ir.Declaration(
        ir.CONSTRAINT, decl.direction_text,
        {v: -c for v, c in decl.terms.items()},
        operator=flipped, limit=-decl.limit,
    )


def test_double_inversion_identity():
    rng = random.Random(11)
    var_names = ["a 0", "b 1", "c 2"]
    mapping = OrderMapping({name: i for i, name in enumerate(var_names)})
    for _ in range(200):
        decl = random_declaration(rng, var_names)
        if decl.direction_text not in ("minimize", "maximize") \
                and decl.kind == ir.OBJECTIVE:
            continue
        original = canonical.canonicalize_declaration(decl, mapping)
        twice = canonical.canonicalize_declaration(_invert(_invert(decl)), mapping)
        assert original == twice
        # Single inversion also leaves the canonical image unchanged.
        assert canonical.canonicalize_declaration(_invert(decl), mapping) == original


def test_constraint_permutation_equivariance():
    problem = berry_problem()
    obj, c1, c2 = problem.gold
    a = canonicalize([obj, c1, c2], problem.order_mapping)
    b = canonicalize([obj, c2, c1], problem.order_mapping)
    assert b.constraints == [a.constraints[1], a.constraints[0]]
    assert b.limits == [a.limits[1], a.limits[0]]


def test_equality_is_equivalence_at_zero_tolerance():
    rng = random.Random(13)
    var_names = ["a 0", "b 1"]
    mapping = OrderMapping({name: i for i, name in enumerate(var_names)})
    decls = [random_declaration(rng, var_names) for _ in range(30)]

    def eq(x, y):
        return declarations_equal(x, y, mapping, tol=0)

    for d in decls:
        assert eq(d, d)
    for a in decls:
        for b in decls:
            assert eq(a, b) == eq(b, a)
            for c in decls:
                if eq(a, b) and eq(b, c):
                    assert eq(a, c)


def test_render_algebraic_berry():
    problem = berry_problem()
    text = canonical.render_algebraic(problem.gold, problem.order_mapping)
    lines = text.splitlines()
    assert lines[0] == "min farm 1 + farm 2"
    assert lines[1] == "50 farm 1 + 70 farm 2 >= 3000"
    assert lines[2] == "300 farm 1 + 200 farm 2 >= 15000"


def test_render_algebraic_skips_a_zero_column():
    decl = ir.constraint("at most", ir.LESS_OR_EQUAL, 3, {"x": 1})
    assert canonical.render_algebraic([decl], OrderMapping({"x": 0, "y": 1})) == "x <= 3"


def test_negative_tolerance_rejected():
    decl = ir.constraint("at most", ir.LESS_OR_EQUAL, 3, {"x": 1})
    with pytest.raises(ValueError, match="tolerance must be non-negative"):
        declarations_equal(decl, decl, OrderMapping({"x": 0}), tol=-1)


@pytest.mark.parametrize("tol", [True, float("inf"), float("nan")])
def test_tolerance_that_is_a_bool_or_not_finite_rejected(tol):
    with pytest.raises(ValueError):
        canonical.check_tolerance(tol)
