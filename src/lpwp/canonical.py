"""Canonical minimize / upper-bound form of a set of declarations.

The canonical program is: minimize c'x subject to Ax <= b, x >= 0.
Maximization objectives and >= constraints are brought into this form by
inverting the signs of their multipliers (and limit). All arithmetic is
exact: every number is read from its decimal text into a rational, and a
tolerance is compared exactly as well (``check_tolerance`` reads it with
``numbers.exact``, so a float is the rational it stores).
"""

from dataclasses import dataclass
from fractions import Fraction

from . import ir
from .errors import StructureError
from .ingest import OrderMapping, objective_sign
from .numbers import exact, format_number

DEFAULT_TOLERANCE = Fraction(1, 10**9)
# The simplex's pivot tolerance, kept here so that ``lpwp solve --help`` can
# show it without importing the solver and numpy.
DEFAULT_EPS = 1e-7


@dataclass
class CanonicalFormulation:
    n_vars: int
    objective: list  # c, length n; entries are ints or Fractions
    constraints: list  # A, m rows of length n
    limits: list  # b, length m

    def as_json_dict(self) -> dict:
        return {
            "n_vars": self.n_vars,
            "objective": [format_number(v) for v in self.objective],
            "constraints": [
                [format_number(v) for v in row] for row in self.constraints
            ],
            "limits": [format_number(v) for v in self.limits],
        }


# An int, as numpy and the matcher read one faster than a Fraction. An int 0
# coefficient is this object, so a later spelling of its variable replaces it
# rather than adds to it: the same value and type either way.
_ZERO = 0


def _terms_to_vector(terms, mapping: OrderMapping) -> list:
    vector = [_ZERO] * mapping.n_vars
    entries = mapping.entries
    for var, coeff in terms.items():
        column = entries.get(var)
        if column is None:  # another spelling of a key, or unknown
            column = mapping.resolve(var)
        # A column's first term is stored as is; later spellings of the
        # same variable add to it.
        vector[column] = coeff if vector[column] is _ZERO else vector[column] + coeff
    return vector


def canonical_parts(decl, mapping: OrderMapping):
    """``(kind, vector, sign)``, where ``sign`` times ``vector`` is the
    canonical form of ``canonicalize_declaration``.

    ``vector`` is ``c`` for an objective, or the row with its limit appended
    for a constraint; ``sign`` is -1 for a maximize objective or a ``>=``
    constraint, else 1.
    """
    vector = _terms_to_vector(decl.terms, mapping)
    if decl.kind == ir.OBJECTIVE:
        sign = objective_sign(decl.direction_text)
    else:
        if not any(vector):
            raise StructureError("constraint row has no nonzero entry")
        vector.append(decl.limit)
        sign = -1 if decl.operator == ir.GREATER_OR_EQUAL else 1
    return decl.kind, vector, sign


def canonicalize_declaration(decl, mapping: OrderMapping):
    """Canonicalize a single declaration.

    Returns ``(kind, vector)``: ``c`` for an objective, or the row with its
    limit appended for a constraint, sign-inverted for a maximize objective
    or a ``>=`` constraint.
    """
    kind, vector, sign = canonical_parts(decl, mapping)
    return kind, vector if sign == 1 else [-v for v in vector]


def canonicalize(decls, mapping: OrderMapping) -> CanonicalFormulation:
    """Build the canonical matrices from declarations plus an order mapping."""
    objectives = [d for d in decls if d.kind == ir.OBJECTIVE]
    if len(objectives) != 1:
        raise StructureError(
            f"expected exactly one objective, found {len(objectives)}"
        )
    forms = [canonicalize_declaration(decl, mapping) for decl in decls]
    rows = [v for kind, v in forms if kind == ir.CONSTRAINT]
    return CanonicalFormulation(
        n_vars=mapping.n_vars,
        objective=next(v for kind, v in forms if kind == ir.OBJECTIVE),
        constraints=[row[:-1] for row in rows],
        limits=[row[-1] for row in rows],
    )


def check_tolerance(tol) -> Fraction:
    """Return ``tol`` as an exact rational; it must be non-negative."""
    tol = exact(tol)
    if tol < 0:
        raise ValueError("tolerance must be non-negative")
    return tol


def declarations_equal(a, b, mapping: OrderMapping, tol=DEFAULT_TOLERANCE) -> bool:
    """Canonical equality: entry-wise within ``tol``, kinds matching.

    Objective name and direction wording do not participate.
    """
    if a.kind != b.kind:
        return False
    tol = check_tolerance(tol)
    _, va = canonicalize_declaration(a, mapping)
    _, vb = canonicalize_declaration(b, mapping)
    return all(abs(x - y) <= tol for x, y in zip(va, vb))


def render_algebraic(decls, mapping: OrderMapping) -> str:
    """Plain-text algebraic rendering (pre-canonical signs and operators)."""
    names = mapping.column_names()

    def linear_expr(terms):
        vector = _terms_to_vector(terms, mapping)
        pieces = []
        for name, coeff in zip(names, vector):
            if coeff == 0:
                continue
            prefix = "" if coeff == 1 else f"{format_number(coeff)} "
            pieces.append(f"{prefix}{name}")
        return " + ".join(pieces) if pieces else "0"

    lines = []
    for decl in decls:
        if decl.kind == ir.OBJECTIVE:
            word = "min" if objective_sign(decl.direction_text) == 1 else "max"
            lines.append(f"{word} {linear_expr(decl.terms)}")
        else:
            op = "<=" if decl.operator == ir.LESS_OR_EQUAL else ">="
            lines.append(
                f"{linear_expr(decl.terms)} {op} {format_number(decl.limit)}"
            )
    return "\n".join(lines)
