"""Toolkit for turning linear-programming word problems into formulations.

Covers the non-neural pipeline around a text-to-text model: named-entity
tag augmentation, the XML-style intermediate representation, canonical
minimize / upper-bound form, declaration-level accuracy and span micro-F1
scoring, seeded span-noise simulation, and a small dense LP solver.

The solver is the only part that uses numpy, so it is imported on first
use: ``lpwp.solve_lp``, ``lpwp.LpSolution`` and ``lpwp.solver`` load it
when first looked up, and ``import lpwp`` alone does not import numpy.
"""

from .augment import augment_text, strip_tags
from .canonical import (
    CanonicalFormulation,
    canonicalize,
    declarations_equal,
    render_algebraic,
)
from .ingest import (
    EntitySpan,
    OrderMapping,
    Problem,
    gold_to_declarations,
    load_dataset,
    save_dataset,
)
from .ir import Declaration, parse_declarations, serialize_declarations
from .metrics import F1Report, ScoreReport, micro_f1, score_accuracy
from .noise import NoiseConfig, NoiseReport, corrupt_spans

__all__ = [
    "CanonicalFormulation",
    "Declaration",
    "EntitySpan",
    "F1Report",
    "LpSolution",
    "NoiseConfig",
    "NoiseReport",
    "OrderMapping",
    "Problem",
    "ScoreReport",
    "augment_text",
    "canonicalize",
    "corrupt_spans",
    "declarations_equal",
    "gold_to_declarations",
    "load_dataset",
    "micro_f1",
    "parse_declarations",
    "render_algebraic",
    "save_dataset",
    "score_accuracy",
    "serialize_declarations",
    "solve_lp",
    "strip_tags",
]

_SOLVER_NAMES = ("LpSolution", "solve_lp", "solver")


def __getattr__(name):
    if name not in _SOLVER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import binds ``solver`` here; the other two are bound as well, so
    # that this runs once.
    from .solver import LpSolution, solve_lp

    globals().update(LpSolution=LpSolution, solve_lp=solve_lp)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_SOLVER_NAMES})
