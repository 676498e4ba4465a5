"""Seeded corruption of entity spans, simulating an imperfect NER system.

A fraction ``p`` of all spans in the corpus is selected and hit with an
equal mix of three error kinds: drop, mislabel, and boundary shift. The
result never contains overlapping spans, and identical inputs plus config
always produce identical outputs.
"""

import random
from dataclasses import dataclass, replace

from .ingest import LABELS, EntitySpan
from .metrics import F1Report, micro_f1

SHIFT_RETRIES = 64


@dataclass(frozen=True)
class NoiseConfig:
    p: float
    seed: int
    shift_max: int = 3

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("corruption fraction p must be in [0, 1]")
        if self.shift_max < 1:
            raise ValueError("shift_max must be positive")


@dataclass
class NoiseReport(F1Report):
    """Span F1 of the noisy corpus against its input, and how many selected
    spans were dropped, mislabeled, shifted, or dropped for want of a shift."""

    n_drop: int
    n_mislabel: int
    n_shift: int
    n_shift_fallback: int


def _overlaps(a: EntitySpan, b: EntitySpan) -> bool:
    return a.start < b.end and b.start < a.end


def _try_shift(span, others, text_len, rng, shift_max):
    """Draw boundary shifts until one is legal; None if the budget runs out."""
    for _ in range(SHIFT_RETRIES):
        ds = rng.randint(-shift_max, shift_max)
        de = rng.randint(-shift_max, shift_max)
        start, end = span.start + ds, span.end + de
        if (start, end) == (span.start, span.end):
            continue
        if not (0 <= start < end <= text_len):
            continue
        moved = EntitySpan(start, end, span.label)
        if any(_overlaps(moved, o) for o in others):
            continue
        return moved
    return None


def corrupt_spans(problems, cfg: NoiseConfig):
    """Corrupt round(p * total_spans) spans; returns (noisy problems, NoiseReport).

    Selected spans are split into near-equal drop / mislabel / shift groups
    (remainder assigned in that fixed order). A shift that cannot be placed
    legally falls back to dropping the span.
    """
    rng = random.Random(cfg.seed)
    all_refs = [
        (pi, si)
        for pi, problem in enumerate(problems)
        for si in range(len(problem.spans))
    ]
    n_selected = int(cfg.p * len(all_refs) + 0.5)  # round half-up
    selected = rng.sample(all_refs, n_selected)
    base, rem = divmod(n_selected, 3)
    n_drop = base + (1 if rem >= 1 else 0)
    n_mislabel = base + (1 if rem >= 2 else 0)
    drops = set(selected[:n_drop])
    mislabels = selected[n_drop:n_drop + n_mislabel]
    shifts = selected[n_drop + n_mislabel:]

    # Working copy: per problem, span index -> current span (dropped = absent).
    current = [
        {si: span for si, span in enumerate(problem.spans)}
        for problem in problems
    ]
    for pi, si in drops:
        del current[pi][si]
    for pi, si in mislabels:
        span = current[pi][si]
        other_labels = [l for l in LABELS if l != span.label]
        current[pi][si] = replace(span, label=rng.choice(other_labels))
    fallbacks = 0
    for pi, si in shifts:
        span = current[pi][si]
        others = [s for i, s in current[pi].items() if i != si]
        moved = _try_shift(
            span, others, len(problems[pi].text), rng, cfg.shift_max
        )
        if moved is None:
            fallbacks += 1
            del current[pi][si]
        else:
            current[pi][si] = moved

    noisy = [
        problem.with_spans(spans.values())
        for problem, spans in zip(problems, current)
    ]
    # Keyed by position: problems may share an id.
    f1 = micro_f1(
        dict(enumerate(p.spans for p in problems)),
        dict(enumerate(p.spans for p in noisy)),
    )
    return noisy, NoiseReport(
        **vars(f1), n_drop=len(drops), n_mislabel=len(mislabels),
        n_shift=len(shifts) - fallbacks, n_shift_fallback=fallbacks,
    )
