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
rationals: ints, as the readers give a whole value, or Fractions. Instances
are desk scale (n, m up to 100).
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .canonical import DEFAULT_EPS, CanonicalFormulation
from .errors import StructureError, ValidationError
from .ingest import NUMBER, Record, read
from .numbers import JsonNumbers

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

MAX_SIZE = 100


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
    while True:
        reduced = costs - basic_costs @ body
        reduced[basic] = 0.0
        negative = reduced < -eps
        col = int(negative.argmax())  # Bland: smallest eligible index
        if not negative[col]:
            return OPTIMAL
        # Ratios of Python floats: the same IEEE division numpy would do. The
        # tie-break is sequential: a ratio within eps of the running best
        # replaces it only if its basic variable has a smaller index. A
        # min-then-argmin over the ratios would not choose the same row.
        row = -1
        for i, (a, b) in enumerate(zip(body[:, col].tolist(), rhs.tolist())):
            if a > eps:
                ratio = b / a
                if row < 0 or ratio < best_ratio - eps or (
                    abs(ratio - best_ratio) <= eps and basis[i] < basis[row]
                ):
                    best_ratio = ratio
                    row = i
        if row < 0:
            return UNBOUNDED
        _pivot(tableau, basis, row, col)
        basic[row] = col
        basic_costs[row] = costs[col]


def solve_lp(formulation: CanonicalFormulation, eps: float = DEFAULT_EPS) -> LpSolution:
    """Solve a canonical program; optimal solutions are vertex solutions.

    Entries of ``formulation`` must be ints or Fractions. Each is converted
    as ``numerator / denominator``, the float ``float()`` gives for either
    type. On the constraint entries of the seed-7 solve benchmark corpus
    (Python 3.11, 2-vCPU Xeon, min of 7) read as Fractions it took 0.096 s,
    against 0.23-0.28 s for ``map(float, row)``, ``float()`` and
    ``np.array(..., dtype=float)``; read as ints, as they now are, it takes
    0.034 s, against about 0.02 s for each of those.

    ``eps`` must be finite and non-negative: a negative one lets the simplex
    pivot forever, and NaN fails every comparison, so the first basis would
    be reported optimal.
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
    for i, row in enumerate(formulation.constraints):
        if len(row) != n:
            raise StructureError(
                f"constraint row {i} has {len(row)} entries, expected {n}"
            )
    if n > MAX_SIZE or m > MAX_SIZE:
        raise StructureError(f"instance exceeds desk scale ({MAX_SIZE})")

    c = np.array([v.numerator / v.denominator for v in formulation.objective])
    a = np.array([
        [v.numerator / v.denominator for v in row]
        for row in formulation.constraints
    ]).reshape(m, n)
    b = np.array([v.numerator / v.denominator for v in formulation.limits])

    # Ax + s = b with slacks s >= 0; rows with negative b are negated and get
    # an artificial variable to provide an initial basis. The tableau's
    # columns are x | slacks | artificials | b.
    negate = b < 0
    art_rows = np.flatnonzero(negate)
    n_art = art_rows.size
    tableau = np.zeros((m, n + m + n_art + 1))
    tableau[:, :n] = a
    tableau[range(m), range(n, n + m)] = 1.0
    tableau[:, -1] = b
    tableau[negate, : n + m] *= -1.0
    tableau[negate, -1] *= -1.0
    tableau[art_rows, range(n + m, n + m + n_art)] = 1.0
    basis = list(range(n, n + m))  # slack basis by default
    for k, i in enumerate(art_rows.tolist()):
        basis[i] = n + m + k

    if n_art:
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
        # Rows still basic in an artificial are redundant: drop them, and
        # the artificial columns, in one step.
        keep = [i for i in range(m) if basis[i] < n + m]
        tableau = tableau[np.ix_(keep, [*range(n + m), -1])]
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
