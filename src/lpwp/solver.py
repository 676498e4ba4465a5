"""Two-phase dense simplex for desk-scale canonical programs.

Solves: minimize c'x subject to Ax <= b, x >= 0. Bland's rule is used for
pivot selection, so the method cannot cycle: the entering column is the
smallest index with a reduced cost below -eps, and the leaving row has the
smallest ratio, ties within eps going to the smaller basic index. Each pivot
is one rank-1 update, with the same float operations as a row-by-row
elimination. Its pivot row is +0.0, and x - 0.0 is x for every float
(-0.0, +-inf and NaN included), so when the pivot column has no zero entry
the whole tableau is updated unmasked and the pivot row keeps its bits.
Otherwise the update is masked: the rows with a zero pivot-column entry are
not written at all, so their -0.0 entries keep their sign. ``eps`` must be
finite and non-negative. Entries of the canonical program are exact
rationals: ints, as the readers give a whole value, or Fractions; any other
type raises StructureError. Instances are desk scale (n, m up to 100). Bland's
rule ends in exact arithmetic, but this simplex is float with eps ties, so
each run has a pivot ceiling proportional to its tableau, past which it
raises SolverError rather than loop.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .canonical import DEFAULT_EPS, CanonicalFormulation
from .errors import SolverError, StructureError, ValidationError
from .ingest import NUMBER, Record, read
from .numbers import JsonNumbers

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

MAX_SIZE = 100
# Pivots one simplex run may make per row and column of its tableau. The
# most measured on the seed-7 and seed-8 solve corpora is 1.93 (176 pivots
# on a tableau of 91 rows and columns).
PIVOTS_PER_LINE = 50


@dataclass
class LpSolution:
    status: str
    x: Optional[list] = None
    objective_value: Optional[float] = None

    def as_json_dict(self) -> dict:
        out = {"status": self.status}
        if self.status == OPTIMAL:
            out["x"] = self.x
            out["objective_value"] = self.objective_value
        return out


# The formulation JSON that ``lpwp solve`` reads.
FORMULATION = Record(CanonicalFormulation, {
    "n_vars": int, "objective": [NUMBER], "constraints": [[NUMBER]],
    "limits": [NUMBER],
})


def formulation_from_json_dict(data) -> CanonicalFormulation:
    try:
        formulation = read(data, FORMULATION, JsonNumbers())
    except ValidationError as err:
        where = f" {err.field}" if err.field else ""
        raise StructureError(f"formulation JSON{where}: {err.message}") from None
    if formulation.n_vars < 0:
        raise StructureError(
            f"formulation JSON n_vars must be non-negative, got {formulation.n_vars}"
        )
    return formulation


def _pivot(tableau, basis, row, col):
    pivot_row = tableau[row]
    pivot_row /= pivot_row[col]
    # One rank-1 update. Its pivot row is +0.0, and x - 0.0 is x for every
    # float (-0.0, +-inf and NaN included), so with no zero entry in the
    # pivot column every row is updated unmasked. Otherwise a row with a
    # zero entry is not written: a zero multiple would turn -0.0 - -0.0
    # into +0.0 and 0 * inf into NaN. A NaN entry is nonzero, so its row is
    # updated.
    column = tableau[:, col, None]
    update = column * pivot_row
    update[row] = 0.0
    if np.count_nonzero(column) == len(column):
        tableau -= update
    else:
        np.subtract(tableau, update, out=tableau, where=column != 0.0)
    basis[row] = col


def _run_simplex(tableau, basis, costs, eps):
    """Minimize over the tableau in place; returns 'optimal' or 'unbounded'."""
    if not costs.size:  # no columns: the empty basis is optimal
        return OPTIMAL
    # Views: pivots write the tableau in place, so these stay current.
    body, rhs = tableau[:, :-1], tableau[:, -1]
    basic = np.array(basis, dtype=np.intp)  # kept equal to basis
    basic_costs = costs[basic]  # kept equal to costs[basic]
    cost_list = costs.tolist()
    below = -eps
    ceiling = PIVOTS_PER_LINE * sum(tableau.shape)
    for _ in range(ceiling + 1):  # ceiling pivots, and the test after the last
        reduced = costs - basic_costs @ body
        reduced[basic] = 0.0
        negative = reduced < below
        col = negative.argmax()  # Bland: smallest eligible index
        if not negative[col]:
            return OPTIMAL
        col = int(col)
        # Ratios of Python floats: the same IEEE division numpy would do. The
        # tie-break is sequential: a ratio within eps of the running best
        # replaces it only if its basic variable has a smaller index. A
        # min-then-argmin over the ratios would not choose the same row.
        row = -1
        for i, a in enumerate(body[:, col].tolist()):
            if a > eps:
                ratio = rhs.item(i) / a
                if row < 0 or ratio < best_ratio - eps or (
                    abs(ratio - best_ratio) <= eps and basis[i] < basis[row]
                ):
                    best_ratio = ratio
                    row = i
        if row < 0:
            return UNBOUNDED
        _pivot(tableau, basis, row, col)
        basic[row] = col
        basic_costs[row] = cost_list[col]
    rows, columns = tableau.shape
    raise SolverError(f"simplex needed more than {ceiling} pivots on a "
                      f"{rows}x{columns} tableau")


def solve_lp(formulation: CanonicalFormulation, eps: float = DEFAULT_EPS) -> LpSolution:
    """Solve a canonical program; optimal solutions are vertex solutions.

    Entries of ``formulation`` must be ints or Fractions, not bools;
    anything else, such as a float or a str, raises ``StructureError``. Each
    entry is read as the float ``numerator / denominator``, which is what
    ``float()`` gives for both types; an int too large for a float raises
    ``OverflowError``.

    ``eps`` must be finite and non-negative: a negative one lets the simplex
    pivot forever, and NaN fails every comparison, so the first basis would
    be reported optimal.

    Each simplex run may make ``PIVOTS_PER_LINE`` times (rows + columns) of
    its tableau pivots, far above any count measured; past that it raises
    ``SolverError`` rather than loop.
    """
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and non-negative, got {eps!r}")
    n = formulation.n_vars
    m = len(formulation.constraints)
    if len(formulation.objective) != n:
        raise StructureError(
            f"objective has {len(formulation.objective)} entries, expected {n}"
        )
    if len(formulation.limits) != m:
        raise StructureError(
            f"{m} constraint rows but {len(formulation.limits)} limits"
        )
    types = set(map(type, formulation.objective))
    types.update(map(type, formulation.limits))
    for i, row in enumerate(formulation.constraints):
        if len(row) != n:
            raise StructureError(
                f"constraint row {i} has {len(row)} entries, expected {n}"
            )
        types.update(map(type, row))
    bad = sorted(t.__name__ for t in types
                 if t is bool or not issubclass(t, (int, Fraction)))
    if bad:
        raise StructureError(
            f"entries must be ints or Fractions, got {', '.join(bad)}"
        )
    if n > MAX_SIZE or m > MAX_SIZE:
        raise StructureError(f"instance exceeds desk scale ({MAX_SIZE})")

    c = np.array(formulation.objective, dtype=float)
    b = np.array(formulation.limits, dtype=float)

    # Ax + s = b with slacks s >= 0; rows with negative b are negated and get
    # an artificial variable to provide an initial basis. The tableau's
    # columns are x | slacks | artificials | b.
    negate = b < 0
    art_rows = np.flatnonzero(negate).tolist()
    n_art = len(art_rows)
    width = n + m + n_art + 1
    tableau = np.zeros((m, width))
    tableau[:, :n] = np.array(formulation.constraints, dtype=float).reshape(m, n)
    # The slack identity, written through a flat view of the new array.
    tableau.reshape(-1)[n:m * width:width + 1] = 1.0
    tableau[:, -1] = b
    basis = list(range(n, n + m))  # slack basis by default
    if n_art:
        tableau[negate, : n + m] *= -1.0
        tableau[negate, -1] *= -1.0
        for k, i in enumerate(art_rows, n + m):
            tableau[i, k] = 1.0
            basis[i] = k
        phase1_costs = np.zeros(n + m + n_art)
        phase1_costs[n + m:] = 1.0
        _run_simplex(tableau, basis, phase1_costs, eps)
        residual = float(phase1_costs[basis] @ tableau[:, -1])
        if residual > eps * max(1.0, np.abs(b).max()):
            return LpSolution(status=INFEASIBLE)
        # Pivot leftover artificials out of the basis where possible.
        for i in range(m):
            if basis[i] >= n + m:
                pivot_cols = np.flatnonzero(np.abs(tableau[i, : n + m]) > eps)
                if pivot_cols.size:
                    _pivot(tableau, basis, i, int(pivot_cols[0]))
        tableau = np.concatenate((tableau[:, : n + m], tableau[:, -1:]), axis=1)
        # Rows still basic in an artificial are redundant: drop them.
        if max(basis) >= n + m:
            keep = [i for i in range(m) if basis[i] < n + m]
            tableau = tableau[keep]
            basis = [basis[i] for i in keep]

    phase2_costs = np.concatenate([c, np.zeros(m)])
    status = _run_simplex(tableau, basis, phase2_costs, eps)
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED)
    x = np.zeros(n + m)
    x[basis] = tableau[:, -1]
    solution = x[:n]
    return LpSolution(
        status=OPTIMAL,
        x=solution.tolist(),
        objective_value=float(c @ solution),
    )
