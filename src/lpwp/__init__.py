"""Toolkit for turning linear-programming word problems into formulations.

Covers the non-neural pipeline around a text-to-text model: named-entity
tag augmentation, the XML-style intermediate representation, canonical
minimize / upper-bound form, declaration-level accuracy and span micro-F1
scoring, seeded span-noise simulation, and a small dense LP solver.
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
from .solver import LpSolution, solve_lp

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
