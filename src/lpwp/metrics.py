"""Declaration-level accuracy and span micro-F1.

Accuracy over a corpus of N examples:

    accuracy = 1 - (sum_i FP_i + FN_i) / (sum_i D_i)

where D_i counts ground-truth declarations, FP_i non-matched predictions and
FN_i unmatched ground-truth declarations. Matching is a maximum one-to-one
matching under canonical equality within a tolerance, found with
Hopcroft-Karp: at a positive tolerance that equality is not transitive, so
greedy matching could miss pairs. A predicted declaration with no canonical
form (an unknown variable, a direction neither min nor max, an all-zero
row) matches nothing and counts as one FP.

An example's canonical forms are compared as integers at one scale ``S``,
the least common multiple of all their entries' denominators; this is exact
at any rational tolerance ``tol``. When ``floor(tol * S)`` is 0, as at the
default 1e-9 unless a number has 9 or more decimal places, closeness is
equality, and a maximum matching pairs equal forms by count, with no
pairwise comparison. Otherwise each prediction is compared only with the
golds whose entry on one axis lies within that bound of its own, so the
work grows near-linearly in the example when few forms are close.
"""

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import lcm

from .canonical import (
    DEFAULT_TOLERANCE, canonical_parts, check_tolerance,
)
from .errors import MappingError, StructureError, ValidationError


@dataclass
class ExampleScore:
    id: str
    d: int   # ground-truth declaration count
    fp: int  # non-matched predicted declarations
    fn: int  # unmatched ground-truth declarations


@dataclass
class ScoreReport:
    per_example: list  # ExampleScore
    n_examples: int
    accuracy: float

    def as_json_dict(self) -> dict:
        return {
            "per_example": [
                {"id": e.id, "D": e.d, "FP": e.fp, "FN": e.fn}
                for e in self.per_example
            ],
            "n_examples": self.n_examples,
            "accuracy": self.accuracy,
        }


@dataclass
class F1Report:
    true_positives: int
    false_positives: int
    false_negatives: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int, **fields):
        """The report of these counts; ``fields`` fill a subclass's own."""
        precision = tp / (tp + fp) if tp + fp else (1.0 if fn == 0 else 0.0)
        recall = tp / (tp + fn) if tp + fn else (1.0 if fp == 0 else 0.0)
        f1 = 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 1.0
        return cls(tp, fp, fn, precision, recall, f1, **fields)

    def as_json_dict(self) -> dict:
        return asdict(self)


def _close(a, b, bound: int) -> bool:
    """Whether two scaled forms have one kind and entries within ``bound``."""
    (kind_a, va), (kind_b, vb) = a, b
    return kind_a == kind_b and all(abs(x - y) <= bound for x, y in zip(va, vb))


def _edges(pred_keys, gold_keys, bound: int) -> list:
    """For each prediction, the indices of the golds within ``bound``.

    Close forms differ by at most ``bound`` at every entry, so for each
    kind the golds are sorted by the entry that takes the most distinct
    values among them, and a prediction is compared only with the golds
    whose entry there lies within ``bound`` of its own.
    """
    by_kind = {}
    for j, (kind, vector) in enumerate(gold_keys):
        by_kind.setdefault(kind, []).append((vector, j))
    windows = {}  # kind -> (entry index, sorted entry values, gold indices)
    for kind, golds in by_kind.items():
        axis = max(range(len(golds[0][0])),
                   key=lambda a: len({vector[a] for vector, _ in golds}))
        golds.sort(key=lambda g: g[0][axis])
        windows[kind] = axis, [v[axis] for v, _ in golds], [j for _, j in golds]
    edges = []
    for key in pred_keys:
        if key is None or key[0] not in windows:
            edges.append(())
            continue
        axis, values, golds = windows[key[0]]
        lo = bisect_left(values, key[1][axis] - bound)
        hi = bisect_right(values, key[1][axis] + bound, lo)
        edges.append([j for j in golds[lo:hi] if _close(key, gold_keys[j], bound)])
    return edges


def _max_matching(edges, n_gold: int) -> int:
    """Size of a maximum matching of predictions to golds (Hopcroft-Karp).

    Each phase layers the predictions by breadth-first search from the
    unmatched ones, then augments along vertex-disjoint shortest paths,
    found by depth-first search on an explicit stack.
    """
    pred_gold = [None] * len(edges)  # prediction -> matched gold
    gold_pred = [None] * n_gold  # gold -> matched prediction
    size = 0
    while True:
        free = [i for i, g in enumerate(pred_gold) if g is None and edges[i]]
        layer = [None] * len(edges)
        for i in free:
            layer[i] = 0
        limit = None  # the layer whose predictions reach an unmatched gold
        queue = list(free)
        for i in queue:
            if limit is not None and layer[i] >= limit:
                break
            for j in edges[i]:
                k = gold_pred[j]
                if k is None:
                    limit = layer[i]
                elif layer[k] is None:
                    layer[k] = layer[i] + 1
                    queue.append(k)
        if limit is None:
            return size
        tried = [0] * len(edges)  # edges already followed in this phase
        for root in free:
            stack = [root]
            while stack:
                i = stack[-1]
                if tried[i] == len(edges[i]):
                    layer[i] = None  # a dead end for the rest of the phase
                    stack.pop()
                    continue
                j = edges[i][tried[i]]
                tried[i] += 1
                k = gold_pred[j]
                if k is None:
                    for p in stack:  # each takes the gold it was trying
                        g = edges[p][tried[p] - 1]
                        pred_gold[p], gold_pred[g] = g, p
                        layer[p] = None
                    size += 1
                    break
                if layer[i] < limit and layer[k] == layer[i] + 1:
                    stack.append(k)


def _match_count(pred, gold, mapping, tol: Fraction) -> int:
    """Size of a maximum one-to-one matching under canonical equality.

    Each declaration is canonicalized once. The example's forms are scaled
    to integers by ``S``, the least common multiple of their entries'
    denominators, and take their canonical sign as integers. Two entries
    are within ``tol`` exactly when their scaled difference, an integer, is
    at most ``floor(tol * S)``. When that bound is 1 or more, each
    prediction is compared only with the golds in a window of one entry
    (``_edges``), and the matching is sized with Hopcroft-Karp.
    """
    gold_forms = [canonical_parts(g, mapping) for g in gold]
    pred_forms = []
    for p in pred:
        try:
            pred_forms.append(canonical_parts(p, mapping))
        except (MappingError, StructureError):
            pred_forms.append(None)  # matches nothing
    scale = lcm(*{v.denominator for form in gold_forms + pred_forms if form
                  for v in form[1]})

    def scaled(form):
        if form is None:
            return None
        kind, vector, sign = form
        return kind, tuple([sign * v.numerator * (scale // v.denominator)
                            for v in vector])

    gold_keys = list(map(scaled, gold_forms))
    pred_keys = map(scaled, pred_forms)
    bound = tol.numerator * scale // tol.denominator
    if bound == 0:
        # Closeness is equality, which is transitive, so each form pairs
        # with as many equal forms as the other side holds. A prediction
        # without a form (None) pairs with nothing.
        return sum((Counter(gold_keys) & Counter(filter(None, pred_keys))).values())
    return _max_matching(_edges(pred_keys, gold_keys, bound), len(gold_keys))


def score_accuracy(gold, pred, mappings, tol=DEFAULT_TOLERANCE) -> ScoreReport:
    """Score per-example predicted declarations against gold.

    ``gold``, ``pred`` and ``mappings`` are keyed by example id; an id
    missing from ``pred`` counts as zero predicted declarations.
    """
    unknown = set(pred) - set(gold)
    if unknown:
        raise ValidationError(
            f"prediction ids not present in gold: {sorted(unknown)}"
        )
    unmapped = set(gold) - set(mappings)
    if unmapped:
        raise ValidationError(f"gold ids without an order mapping: {sorted(unmapped)}")
    tol = check_tolerance(tol)
    per_example = []
    total_d = total_errors = 0
    for example_id, gold_decls in gold.items():
        pred_decls = pred.get(example_id, [])
        matched = _match_count(
            pred_decls, gold_decls, mappings[example_id], tol
        )
        score = ExampleScore(
            id=example_id,
            d=len(gold_decls),
            fp=len(pred_decls) - matched,
            fn=len(gold_decls) - matched,
        )
        per_example.append(score)
        total_d += score.d
        total_errors += score.fp + score.fn
    if total_d == 0:
        if total_errors:
            raise ValidationError(
                "accuracy undefined: corpus has no gold declarations but "
                "predictions are non-empty"
            )
        accuracy = 1.0
    else:
        accuracy = 1.0 - total_errors / total_d
    return ScoreReport(per_example, len(per_example), accuracy)


def micro_f1(reference, hypothesis) -> F1Report:
    """Micro-averaged span F1 with exact (start, end, label) matching.

    Both arguments map example ids to span lists; duplicated spans match
    with multiplicity.
    """
    if set(reference) != set(hypothesis):
        raise ValidationError(
            "reference and hypothesis example ids differ: "
            f"{sorted(set(reference) ^ set(hypothesis), key=repr)}"
        )
    tp = fp = fn = 0
    for example_id, ref_spans in reference.items():
        ref_counts = Counter((s.start, s.end, s.label) for s in ref_spans)
        hyp_counts = Counter(
            (s.start, s.end, s.label) for s in hypothesis[example_id]
        )
        common = sum((ref_counts & hyp_counts).values())
        tp += common
        fp += sum(hyp_counts.values()) - common
        fn += sum(ref_counts.values()) - common
    return F1Report.from_counts(tp, fp, fn)
