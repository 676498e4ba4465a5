"""Two-phase dense simplex for desk-scale canonical programs.

Solves: minimize c'x subject to Ax <= b, x >= 0. Bland's rule is used for
pivot selection, so the method cannot cycle. Instances are tiny (n, m up to
100); robustness is preferred over speed throughout.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .canonical import CanonicalFormulation
from .errors import StructureError
from .numbers import json_number

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

MAX_SIZE = 100
DEFAULT_EPS = 1e-7


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


def formulation_from_json_dict(data: dict) -> CanonicalFormulation:
    try:
        return CanonicalFormulation(
            n_vars=int(data["n_vars"]),
            objective=[json_number(v) for v in data["objective"]],
            constraints=[
                [json_number(v) for v in row]
                for row in data["constraints"]
            ],
            limits=[json_number(v) for v in data["limits"]],
        )
    except KeyError as missing:
        raise StructureError(f"formulation JSON missing field {missing}")


def _pivot(tableau, basis, row, col):
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and tableau[i, col] != 0.0:
            tableau[i] -= tableau[i, col] * tableau[row]
    basis[row] = col


def _run_simplex(tableau, basis, costs, eps):
    """Minimize over the tableau in place; returns 'optimal' or 'unbounded'."""
    m = tableau.shape[0]
    while True:
        reduced = costs - costs[basis] @ tableau[:, :-1]
        reduced[basis] = 0.0
        candidates = np.nonzero(reduced < -eps)[0]
        if candidates.size == 0:
            return OPTIMAL
        col = int(candidates[0])  # Bland: smallest eligible index
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
            return UNBOUNDED
        _pivot(tableau, basis, row, col)


def solve_lp(formulation: CanonicalFormulation, eps: float = DEFAULT_EPS) -> LpSolution:
    """Solve a canonical program; optimal solutions are vertex solutions."""
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

    c = np.array([float(v) for v in formulation.objective])
    a = np.array(
        [[float(v) for v in row] for row in formulation.constraints]
    ).reshape(m, n)
    b = np.array([float(v) for v in formulation.limits])

    # Ax + s = b with slacks s >= 0; rows with negative b are negated and get
    # an artificial variable to provide an initial basis.
    negate = b < 0
    body = np.hstack([a, np.eye(m)])
    rhs = b.copy()
    body[negate] *= -1.0
    rhs[negate] *= -1.0
    art_rows = np.nonzero(negate)[0]
    n_art = art_rows.size
    art_cols = np.zeros((m, n_art))
    for k, i in enumerate(art_rows):
        art_cols[i, k] = 1.0
    tableau = np.hstack([body, art_cols, rhs[:, None]])
    basis = [n + i for i in range(m)]  # slack basis by default
    for k, i in enumerate(art_rows):
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
                pivot_cols = np.nonzero(
                    np.abs(tableau[i, : n + m]) > eps
                )[0]
                if pivot_cols.size:
                    _pivot(tableau, basis, i, int(pivot_cols[0]))
        # Rows still basic in an artificial are redundant; drop them.
        keep = [i for i in range(m) if basis[i] < n + m]
        tableau = tableau[keep]
        basis = [basis[i] for i in keep]
    tableau = np.hstack([tableau[:, : n + m], tableau[:, -1:]])

    phase2_costs = np.concatenate([c, np.zeros(m)])
    status = _run_simplex(tableau, basis, phase2_costs, eps)
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED)
    x = np.zeros(n + m)
    for i, j in enumerate(basis):
        x[j] = tableau[i, -1]
    solution = x[:n]
    return LpSolution(
        status=OPTIMAL,
        x=[float(v) for v in solution],
        objective_value=float(c @ solution),
    )
