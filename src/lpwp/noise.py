"""Seeded corruption of entity spans, simulating an imperfect NER system.

A fraction ``p`` of all spans in the corpus is selected and hit with an
equal mix of three error kinds: drop, mislabel, and boundary shift. The
result never contains overlapping spans, and identical inputs plus config
always produce identical outputs.

The work grows with the selected spans, not with the size of a problem:
spans are drawn by index, only problems with a selected span have their
spans checked again, a shift is tested only against the spans it could
reach, and the report's F1 is counted from the selected spans. That count
equals span micro-F1 of each input problem against its noisy copy.
"""

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter

from .ingest import LABELS, EntitySpan
from .metrics import F1Report

SHIFT_RETRIES = 64


@dataclass(frozen=True)
class NoiseConfig:
    p: float
    seed: int
    shift_max: int = 3

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("corruption fraction p must be in [0, 1]")
        if type(self.shift_max) is not int or self.shift_max < 1:
            raise ValueError("shift_max must be a positive int")


@dataclass
class NoiseReport(F1Report):
    """Span F1 of the noisy corpus against its input, and how many selected
    spans were dropped, mislabeled, shifted, or dropped for want of a shift."""

    n_drop: int
    n_mislabel: int
    n_shift: int
    n_shift_fallback: int


_START, _END = attrgetter("start"), attrgetter("end")


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
    # Span g of the corpus is span g - (ends[pi] - len(spans)) of the
    # problem pi whose running span count first exceeds g.
    ends = list(accumulate(len(problem.spans) for problem in problems))
    total = ends[-1] if ends else 0
    n_selected = int(cfg.p * total + 0.5)  # round half-up
    selected = []
    for g in rng.sample(range(total), n_selected):
        pi = bisect_right(ends, g)
        selected.append((pi, g - ends[pi] + len(problems[pi].spans)))
    base, rem = divmod(n_selected, 3)
    n_drop = base + (1 if rem >= 1 else 0)
    n_mislabel = base + (1 if rem >= 2 else 0)

    # Working copies of the touched problems' spans, by span index;
    # None where a span was dropped.
    touched = {}

    def spans_of(pi):
        if pi not in touched:
            touched[pi] = list(problems[pi].spans)
        return touched[pi]

    for pi, si in selected[:n_drop]:
        spans_of(pi)[si] = None
    for pi, si in selected[n_drop:n_drop + n_mislabel]:
        spans = spans_of(pi)
        span = spans[si]
        other_labels = [l for l in LABELS if l != span.label]
        spans[si] = EntitySpan(span.start, span.end, rng.choice(other_labels))
    fallbacks = landed = 0
    reach = 2 * cfg.shift_max
    for pi, si in selected[n_drop + n_mislabel:]:
        original, spans = problems[pi].spans, spans_of(pi)
        span = spans[si]
        # Each span moves at most once, by at most shift_max at each end,
        # so only spans whose original place lies within 2 * shift_max of
        # this one can meet it.
        lo = bisect_right(original, span.start - reach, key=_END)
        hi = bisect_left(original, span.end + reach, key=_START)
        others = [o for i, o in enumerate(spans[lo:hi], lo)
                  if o is not None and i != si]
        moved = _try_shift(
            span, others, len(problems[pi].text), rng, cfg.shift_max
        )
        if moved is None:
            fallbacks += 1
        else:
            # A shift can land on a span that was selected and moved away.
            i = bisect_left(original, moved.start, key=_START)
            landed += i < len(original) and original[i] == moved
        spans[si] = moved

    noisy = [
        problem.with_spans([s for s in touched[pi] if s is not None])
        if pi in touched else problem.with_checked_spans(list(problem.spans))
        for pi, problem in enumerate(problems)
    ]
    # A span that was not selected is in both corpora, and no corrupted
    # span can equal one, since it would overlap it.
    tp = total - n_selected + landed
    n_noisy = total - n_drop - fallbacks
    return noisy, NoiseReport.from_counts(
        tp, n_noisy - tp, total - tp, n_drop=n_drop, n_mislabel=n_mislabel,
        n_shift=n_selected - n_drop - n_mislabel - fallbacks,
        n_shift_fallback=fallbacks,
    )
