import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpwp import solver
from lpwp.canonical import CanonicalFormulation, canonicalize
from lpwp.errors import SolverError, StructureError
from lpwp.solver import solve_lp

from helpers import berry_problem


def form(c, a, b):
    return CanonicalFormulation(
        n_vars=len(c),
        objective=[Fraction(str(v)) for v in c],
        constraints=[[Fraction(str(v)) for v in row] for row in a],
        limits=[Fraction(str(v)) for v in b],
    )


def vertex_oracle(c, a, b, tol=1e-7):
    """Minimum objective over all feasible intersections of n constraints."""
    c = np.asarray(c, dtype=float)
    n = c.size
    a = np.asarray(a, dtype=float).reshape(len(b), n)
    rows = np.vstack([a, -np.eye(n)])
    rhs = np.concatenate([np.asarray(b, dtype=float), np.zeros(n)])
    best = None
    for combo in itertools.combinations(range(rows.shape[0]), n):
        sub = rows[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-9:
            continue
        x = np.linalg.solve(sub, rhs[list(combo)])
        if np.all(rows @ x <= rhs + tol):
            value = float(c @ x)
            best = value if best is None else min(best, value)
    return best


def test_berry_lp():
    problem = berry_problem()
    formulation = canonicalize(problem.gold, problem.order_mapping)
    solution = solve_lp(formulation)
    assert solution.status == "optimal"
    assert solution.objective_value == pytest.approx(600 / 11, abs=1e-6)
    assert solution.x == pytest.approx([450 / 11, 150 / 11], abs=1e-6)


def test_no_constraints_nonneg_objective():
    solution = solve_lp(form([1], [], []))
    assert solution.status == "optimal"
    assert solution.x == pytest.approx([0.0])
    assert solution.objective_value == pytest.approx(0.0)


def test_no_constraints_unbounded():
    solution = solve_lp(form([-1], [], []))
    assert solution.status == "unbounded"


def test_infeasible():
    # x <= -1 with x >= 0
    solution = solve_lp(form([1], [[1]], [-1]))
    assert solution.status == "infeasible"


def test_unbounded_with_constraints():
    # minimize -x - y subject to x - y <= 1: y can grow without limit
    solution = solve_lp(form([-1, -1], [[1, -1]], [1]))
    assert solution.status == "unbounded"


def test_dimension_mismatch_rejected():
    with pytest.raises(StructureError):
        solve_lp(form([1, 2], [[1]], [1]))
    with pytest.raises(StructureError):
        solve_lp(form([1], [[1], [1]], [1]))
    with pytest.raises(StructureError, match="objective has 1 entries, expected 2"):
        solve_lp(CanonicalFormulation(n_vars=2, objective=[Fraction(1)],
                                      constraints=[], limits=[]))


def test_optimal_solution_is_feasible():
    problem = berry_problem()
    formulation = canonicalize(problem.gold, problem.order_mapping)
    solution = solve_lp(formulation)
    a = np.array([[float(v) for v in row] for row in formulation.constraints])
    b = np.array([float(v) for v in formulation.limits])
    x = np.array(solution.x)
    assert np.all(a @ x <= b + 1e-7)
    assert np.all(x >= -1e-7)


def test_ge_statement_matches_canonical_form():
    # Solving the sign-inverted canonical system equals solving the direct
    # >= system brought to canonical form by hand.
    direct = form([1, 1], [[-50, -70], [-300, -200]], [-3000, -15000])
    solution = solve_lp(direct)
    assert solution.objective_value == pytest.approx(600 / 11, abs=1e-6)


def random_instance(rng, n, m):
    """Feasible (x=0) and bounded (simplex-capped) random instance."""
    c = [round(rng.uniform(-5, 5), 3) for _ in range(n)]
    a = [[round(rng.uniform(-1, 1), 3) for _ in range(n)] for _ in range(m)]
    b = [round(rng.uniform(0, 5), 3) for _ in range(m)]
    a.append([1] * n)
    b.append(10)
    return c, a, b


def test_matches_vertex_enumeration_oracle():
    rng = random.Random(20240815)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(0, 5)
        c, a, b = random_instance(rng, n, m)
        solution = solve_lp(form(c, a, b))
        assert solution.status == "optimal"
        expected = vertex_oracle(c, a, b)
        assert expected is not None
        assert solution.objective_value == pytest.approx(expected, abs=1e-6)


def test_weak_duality_spot_check():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        c, a, b = random_instance(rng, n, m)
        solution = solve_lp(form(c, a, b))
        a_np = np.asarray(a, dtype=float)
        b_np = np.asarray(b, dtype=float)
        c_np = np.asarray(c, dtype=float)
        # Sample feasible points; the reported optimum must not beat them.
        for _ in range(100):
            x = np.array([rng.uniform(0, 10) for _ in range(n)])
            if np.all(a_np @ x <= b_np):
                assert solution.objective_value <= c_np @ x + 1e-6


def test_desk_scale_limit_enforced():
    n = 101
    with pytest.raises(StructureError):
        solve_lp(form([1] * n, [], []))


@pytest.mark.parametrize("eps", [-1.0, -1e-12, float("nan"), float("inf"), float("-inf")])
def test_eps_must_be_finite_and_non_negative(eps):
    problem = berry_problem()
    formulation = canonicalize(problem.gold, problem.order_mapping)
    with pytest.raises(ValueError, match="eps"):
        solve_lp(formulation, eps)


def test_zero_eps_is_accepted():
    problem = berry_problem()
    solution = solve_lp(canonicalize(problem.gold, problem.order_mapping), 0.0)
    assert solution.status == "optimal"
    assert solution.objective_value == pytest.approx(600 / 11, abs=1e-6)


# Row-by-row pivot and ratio test, kept as the reference for the vectorized
# ones: both must do the same float operations.
def reference_pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and tableau[i, col] != 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]
    basis[row] = col


def reference_run_simplex(tableau, basis, costs, eps):
    m = tableau.shape[0]
    while True:
        reduced = costs - costs[basis] @ tableau[:, :-1]
        reduced[basis] = 0.0
        candidates = np.nonzero(reduced < -eps)[0]
        if candidates.size == 0:
            return solver.OPTIMAL
        col = int(candidates[0])
        best_ratio = None
        row = -1
        for i in range(m):
            if tableau[i, col] > eps:
                ratio = tableau[i, -1] / tableau[i, col]
                if (
                    best_ratio is None
                    or ratio < best_ratio - eps
                    or (abs(ratio - best_ratio) <= eps and basis[i] < basis[row])
                ):
                    best_ratio = ratio
                    row = i
        if row < 0:
            return solver.UNBOUNDED
        reference_pivot(tableau, basis, row, col)


def test_pivot_matches_row_by_row_reference_bit_for_bit():
    # _pivot subtracts unmasked when the pivot column has no zero entry,
    # and masked otherwise; both branches are counted from the input.
    unmasked = masked = 0
    rng = np.random.default_rng(5)
    for _ in range(200):
        m, width = rng.integers(1, 8), rng.integers(2, 10)
        tableau = rng.integers(-3, 4, size=(m, width)).astype(float)
        tableau[rng.random((m, width)) < 0.2] = -0.0
        tableau *= rng.choice([1.0, 0.1, 1 / 3], size=(m, width))
        row = int(rng.integers(m))
        col = int(rng.integers(width - 1))
        tableau[row, col] = float(rng.choice([-3.0, 0.7, 2.0]))
        dense = bool(np.all(tableau[:, col] != 0.0))
        unmasked, masked = unmasked + dense, masked + (not dense)
        expected, got = tableau.copy(), tableau.copy()
        basis_expected, basis_got = list(range(m)), list(range(m))
        reference_pivot(expected, basis_expected, row, col)
        solver._pivot(got, basis_got, row, col)
        assert expected.tobytes() == got.tobytes()
        assert basis_expected == basis_got
    # Pivot columns with no zero entry, one in three holding a NaN factor,
    # whose pivot rows and other rows hold -0.0 and +-inf.
    special, held = [-0.0, np.inf, -np.inf], set()
    for k in range(300):
        m, width = rng.integers(2, 8), rng.integers(2, 10)
        tableau = rng.choice([-3.0, -1.0, 0.1, 1 / 3, 2.0], size=(m, width))
        where = rng.random((m, width)) < 0.3
        tableau[where] = rng.choice(special, size=int(where.sum()))
        row = int(rng.integers(m))
        col = int(rng.integers(width - 1))
        tableau[:, col] = rng.choice([-2.0, 0.3, 1 / 3, np.inf, -np.inf], size=m)
        if k % 3 == 0:
            tableau[(row + 1) % m, col] = np.nan
        tableau[row, col] = float(rng.choice([-3.0, 0.7, 2.0]))
        assert np.all(tableau[:, col] != 0.0)
        unmasked += 1
        for part, values in (("pivot row", tableau[row]),
                             ("other rows", np.delete(tableau, row, axis=0))):
            held.update((part, v.hex()) for v in values.ravel().tolist()
                        if v in special)
        expected, got = tableau.copy(), tableau.copy()
        basis_expected, basis_got = list(range(m)), list(range(m))
        with np.errstate(invalid="ignore"):  # inf - inf and inf * 0 are NaN
            reference_pivot(expected, basis_expected, row, col)
            solver._pivot(got, basis_got, row, col)
        assert expected.tobytes() == got.tobytes()
        assert basis_expected == basis_got
    assert held == {(part, v.hex()) for part in ("pivot row", "other rows")
                    for v in special}
    assert masked and unmasked


def test_simplex_matches_row_by_row_reference_bit_for_bit():
    # Small integer data and zero limits make ratio ties and degenerate
    # pivots common, so the sequential Bland tie-break decides many pivots.
    rng = random.Random(404)
    statuses = set()
    for _ in range(300):
        n, m = rng.randint(2, 8), rng.randint(2, 8)
        a = [[rng.choice([-2, -1, 0, 0, 1, 2, 0.5]) for _ in range(n)]
             for _ in range(m)]
        b = [rng.choice([0, 0, 1, 2, 3]) for _ in range(m)]
        tableau = np.hstack([np.array(a, dtype=float), np.eye(m),
                             np.array(b, dtype=float)[:, None]])
        costs = np.array([rng.randint(-3, 3) for _ in range(n)] + [0] * m,
                         dtype=float)
        expected, got = tableau.copy(), tableau.copy()
        basis_expected = [n + i for i in range(m)]
        basis_got = basis_expected[:]
        status = reference_run_simplex(expected, basis_expected, costs, 1e-7)
        assert solver._run_simplex(got, basis_got, costs, 1e-7) == status
        assert basis_got == basis_expected
        assert got.tobytes() == expected.tobytes()
        statuses.add(status)
    assert statuses == {solver.OPTIMAL, solver.UNBOUNDED}


def dense_program(rng, n, m):
    """Dense rows of +-1..20 that hold with some slack at a point of small
    integers, as the solve benchmark's rows do in canonical form; a tenth of
    the entries are zero, and a negative limit sends the row to phase 1."""
    point = [rng.randint(1, 9) for _ in range(n)]
    a, b = [], []
    for _ in range(m):
        row = [rng.choice((-1, 1)) * rng.randint(1, 20) * (rng.random() > 0.1)
               for _ in range(n)]
        a.append(row)
        b.append(sum(v * x for v, x in zip(row, point)) + rng.randint(0, 50))
    c = [rng.randint(-20, 20) for _ in range(n)]
    return c, a, b


def answer_bits(solution):
    """Status, x and objective, each float as its exact hex text."""
    x = None if solution.x is None else [v.hex() for v in solution.x]
    value = solution.objective_value
    return solution.status, x, None if value is None else value.hex()


def test_solve_lp_matches_row_by_row_reference_end_to_end(
        monkeypatch, leftover_pivots):
    """Phase 1, the leftover-artificial pivots and phase 2 together."""
    rng = random.Random(1011)
    programs = []
    for _ in range(200):  # small, sparse, often infeasible or degenerate
        n, m = rng.randint(1, 4), rng.randint(0, 6)
        a = [[rng.choice((-2, -1, 0, 0, 1, 2, 0.5)) for _ in range(n)]
             for _ in range(m)]
        b = [rng.choice((-2, -1, -1, 0, 0, 1)) for _ in range(m)]
        if m and rng.random() < 0.5:
            # An equality, as a row and its negation, often leaves an
            # artificial variable basic at level 0 after phase 1.
            i = rng.randrange(m)
            a.append([-v for v in a[i]])
            b.append(-b[i])
        programs.append(([rng.randint(-2, 3) for _ in range(n)], a, b))
    for _ in range(100):  # ratios a fraction of eps apart: chains of near ties
        n, m = rng.randint(2, 6), rng.randint(3, 8)
        programs.append((
            [rng.randint(-3, 2) for _ in range(n)],
            [[rng.choice((0, 1, 1, 2, 3, -1)) for _ in range(n)] for _ in range(m)],
            [rng.choice((0, 3e-8, 6e-8, 9e-8, 1.2e-7, 1.5e-7, 1)) for _ in range(m)],
        ))
    for size in range(5, 31):
        programs += [dense_program(rng, size, rng.randint(5, 30)),
                     dense_program(rng, rng.randint(5, 30), size)]
    programs.append(dense_program(rng, 30, 30))
    programs += [dense_program(rng, rng.randint(2, 12), rng.randint(2, 12))
                 for _ in range(60)]
    statuses, leftover, negated_zero = set(), 0, 0
    for c, a, b in programs:
        formulation = form(c, a, b)
        leftover_pivots[0] = 0
        got = answer_bits(solve_lp(formulation))
        leftover += leftover_pivots[0] > 0
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_run_simplex", reference_run_simplex)
            patch.setattr(solver, "_pivot", reference_pivot)
            assert got == answer_bits(solve_lp(formulation)), (c, a, b)
        statuses.add(got[0])
        # A negated row turns its zero entries into -0.0.
        negated_zero += any(limit < 0 and 0 in row for row, limit in zip(a, b))
    assert statuses == {solver.OPTIMAL, solver.INFEASIBLE, solver.UNBOUNDED}
    assert leftover >= 10 and negated_zero >= 100


def test_empty_program_is_optimal():
    solution = solve_lp(form([], [], []))
    assert solution.status == "optimal"
    assert solution.x == []
    assert solution.objective_value == 0.0


@settings(max_examples=300, deadline=None)
@given(st.fractions(), st.integers())
def test_float_of_entries_is_numerator_over_denominator(fraction, integer):
    # solve_lp reads entries with np.array(..., dtype=float); its docstring
    # promises numerator / denominator, which is also what float() gives.
    values = [fraction, integer, Fraction(integer, 3**40)]
    for v in values:
        assert (v.numerator / v.denominator).hex() == float(v).hex()
    read = np.array(values, dtype=float).tolist()
    assert [x.hex() for x in read] == [float(v).hex() for v in values]


@pytest.mark.parametrize("bad", ["1", 1.0, True])
@pytest.mark.parametrize("part", ["objective", "constraints", "limits"])
def test_entries_must_be_ints_or_fractions(part, bad):
    # numpy would read "1" and 1.0 as 1.0, and True as 1.0.
    parts = {"objective": [1], "constraints": [[1]], "limits": [1]}
    parts[part] = [[bad]] if part == "constraints" else [bad]
    formulation = CanonicalFormulation(n_vars=1, **parts)
    message = f"entries must be ints or Fractions, got {type(bad).__name__}"
    with pytest.raises(StructureError, match=message):
        solve_lp(formulation)


@pytest.mark.parametrize("limit", [
    2**53 + 1, 10**30 + 7, Fraction(1, 3), Fraction(10**40 + 1, 7),
])
def test_entry_is_read_as_numerator_over_denominator(limit):
    # minimize -x subject to x <= limit: x is the limit as read.
    solution = solve_lp(CanonicalFormulation(
        n_vars=1, objective=[-1], constraints=[[1]], limits=[limit]))
    assert solution.status == "optimal"
    assert [v.hex() for v in solution.x] == [
        (limit.numerator / limit.denominator).hex()]


@pytest.mark.parametrize("part", ["objective", "constraints", "limits"])
def test_int_too_large_for_a_float_raises_overflow(part):
    parts = {"objective": [1], "constraints": [[1]], "limits": [1]}
    parts[part] = [[10**400]] if part == "constraints" else [10**400]
    with pytest.raises(OverflowError):
        solve_lp(CanonicalFormulation(n_vars=1, **parts))


def test_simplex_past_its_pivot_ceiling_raises(monkeypatch):
    # minimize -x - y s.t. x + 2y <= 4, 3x + y <= 6 takes two pivots.
    formulation = form([-1, -1], [[1, 2], [3, 1]], [4, 6])
    monkeypatch.setattr(solver, "PIVOTS_PER_LINE", 1)
    assert solve_lp(formulation).status == "optimal"
    monkeypatch.setattr(solver, "PIVOTS_PER_LINE", 0)
    with pytest.raises(SolverError,
                       match="more than 0 pivots on a 2x5 tableau"):
        solve_lp(formulation)
    # The ceiling counts pivots: an optimal first basis and an unbounded
    # first column need none.
    assert solve_lp(form([1], [[1]], [1])).status == "optimal"
    assert solve_lp(form([-1], [[-1]], [1])).status == "unbounded"


def test_formulation_literals_are_read_exactly():
    from lpwp.numbers import decode_json

    data = decode_json('{"n_vars": 1, "objective": [0.30000000000000001], '
                       '"constraints": [[1E-3]], "limits": [12345678901234567.5]}')
    formulation = solver.formulation_from_json_dict(data)
    assert formulation.objective == [Fraction("0.30000000000000001")]
    assert formulation.constraints == [[Fraction(1, 1000)]]
    assert formulation.limits == [Fraction("12345678901234567.5")]


@pytest.mark.parametrize("data", [
    {"n_vars": 1, "objective": ["1/2"], "constraints": [], "limits": []},
    {"n_vars": 1, "objective": [[1]], "constraints": [], "limits": []},
    {"n_vars": 1, "objective": [1], "constraints": [[True]], "limits": [1]},
    # Python floats, as a plain json.loads gives them, even after an equal int.
    json.loads('{"n_vars": 1, "objective": [2, 2.0], "constraints": [], "limits": []}'),
    json.loads('{"n_vars": 1, "objective": [2.0], "constraints": [], "limits": []}'),
])
def test_formulation_numbers_outside_the_grammar_rejected(data):
    with pytest.raises(StructureError, match="formulation JSON"):
        solver.formulation_from_json_dict(data)


@pytest.fixture
def leftover_pivots(monkeypatch):
    """Counts pivots made outside a simplex run: those that take a leftover
    artificial variable out of the basis after phase 1."""
    count = [0]
    in_simplex = [False]
    run_simplex, pivot = solver._run_simplex, solver._pivot

    def counting_run_simplex(*args):
        in_simplex[0] = True
        try:
            return run_simplex(*args)
        finally:
            in_simplex[0] = False

    def counting_pivot(*args):
        count[0] += not in_simplex[0]
        return pivot(*args)

    monkeypatch.setattr(solver, "_run_simplex", counting_run_simplex)
    monkeypatch.setattr(solver, "_pivot", counting_pivot)
    return count


def test_leftover_artificial_pivoted_out_after_phase_one(leftover_pivots):
    # minimize -x s.t. -x <= -1, x <= 1: phase 1 ends with x = 1 and the
    # artificial of the first row still basic at level 0.
    solution = solve_lp(form([-1], [[-1], [1]], [-1, 1]))
    assert leftover_pivots[0] == 1
    assert solution.status == "optimal"
    assert solution.x == [1.0]
    assert solution.objective_value == -1.0


def test_programs_with_leftover_artificials_match_vertex_oracle(leftover_pivots):
    rng = random.Random(20261018)
    reached = 0
    for _ in range(4000):
        n, m = rng.randint(1, 4), rng.randint(1, 6)
        a = [[rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(n)] for _ in range(m)]
        b = [rng.choice((-2, -1, -1, 0, 0, 1)) for _ in range(m)]
        c = [rng.randint(-2, 3) for _ in range(n)]
        leftover_pivots[0] = 0
        solution = solve_lp(form(c, a, b))
        if not leftover_pivots[0]:
            continue
        reached += 1
        expected = vertex_oracle(c, a, b)
        assert expected is not None  # phase 1 found a feasible point
        if solution.status == "optimal":
            assert solution.objective_value == pytest.approx(expected, abs=1e-6)
    assert reached >= 20


def test_redundant_rows_dropped_after_phase_one_match_the_reference(monkeypatch):
    """At eps >= 1 phase 1 can end with an artificial variable basic in a
    row with no entry above eps to pivot on, and solve_lp drops that row.

    Below eps 1 this does not happen: a row basic in artificial i holds
    exactly -1.0 in slack column i, as the two columns stay exact negatives
    of each other through every pivot.
    """
    calls = []
    run_simplex = solver._run_simplex

    def checking_run_simplex(tableau, basis, *args):
        # Each run starts from a basis whose columns form the identity.
        assert np.array_equal(tableau[:, basis], np.eye(len(basis)))
        calls.append((tableau.shape, basis[:]))
        return run_simplex(tableau, basis, *args)

    monkeypatch.setattr(solver, "_run_simplex", checking_run_simplex)
    rng = random.Random(271)
    dropped = {}
    for eps in (1.0, 1.5, 3.0):
        dropped[eps] = 0
        for _ in range(300):
            n, m = rng.randint(1, 4), rng.randint(1, 6)
            a = [[rng.choice((-2, -1, 0, 0, 1, 2, 0.5)) for _ in range(n)]
                 for _ in range(m)]
            b = [rng.choice((-2, -1, -1, 0, 0, 1)) for _ in range(m)]
            formulation = form([rng.randint(-2, 3) for _ in range(n)], a, b)
            calls.clear()
            got = answer_bits(solve_lp(formulation, eps))
            (rows, width), basis = calls[-1]
            if rows < m:  # phase 2 runs without the dropped rows
                dropped[eps] += 1
                assert width == n + m + 1
                assert all(k < n + m for k in basis)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_run_simplex", reference_run_simplex)
                patch.setattr(solver, "_pivot", reference_pivot)
                assert got == answer_bits(solve_lp(formulation, eps)), (a, b)
    assert all(count >= 30 for count in dropped.values()), dropped
