"""Declaration-level accuracy and span micro-F1.

Accuracy over a corpus of N examples:

    accuracy = 1 - (sum_i FP_i + FN_i) / (sum_i D_i)

where D_i counts ground-truth declarations, FP_i non-matched predictions and
FN_i unmatched ground-truth declarations. Matching is a maximum one-to-one
matching under canonical equality within a tolerance, found with augmenting
paths: at a positive tolerance that equality is not transitive, so greedy
matching could miss pairs. A predicted declaration with no canonical form
(an unknown variable, a direction neither min nor max, an all-zero row)
matches nothing and counts as one FP.

An example's canonical forms are compared as integers at one scale ``S``,
the least common multiple of all their entries' denominators; this is exact
at any rational tolerance ``tol``. When ``floor(tol * S)`` is 0, as at the
default 1e-9 unless a number has 9 or more decimal places, closeness is
equality, and a maximum matching pairs equal forms by count, with no
pairwise comparison.
"""

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

    def as_json_dict(self) -> dict:
        return asdict(self)


def _close(a, b, bound: int) -> bool:
    """Whether two scaled forms have one kind and entries within ``bound``."""
    (kind_a, va), (kind_b, vb) = a, b
    return kind_a == kind_b and all(abs(x - y) <= bound for x, y in zip(va, vb))


def _match_count(pred, gold, mapping, tol: Fraction) -> int:
    """Size of a maximum one-to-one matching under canonical equality.

    Each declaration is canonicalized once. The example's forms are scaled
    to integers by ``S``, the least common multiple of their entries'
    denominators, and take their canonical sign as integers. Two entries
    are within ``tol`` exactly when their scaled difference, an integer, is
    at most ``floor(tol * S)``. When that bound is 1 or more, the matching
    is grown one prediction at a time along augmenting paths (Kuhn's
    algorithm).
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
    edges = [
        [j for j, g in enumerate(gold_keys) if _close(key, g, bound)]
        if key else ()
        for key in pred_keys
    ]
    owner = [None] * len(gold)  # gold index -> matched prediction index

    def augment(i, visited):
        for j in edges[i]:
            if j not in visited:
                visited.add(j)
                if owner[j] is None or augment(owner[j], visited):
                    owner[j] = i
                    return True
        return False

    return sum(augment(i, set()) for i in range(len(pred)))


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
    precision = tp / (tp + fp) if tp + fp else (1.0 if fn == 0 else 0.0)
    recall = tp / (tp + fn) if tp + fn else (1.0 if fp == 0 else 0.0)
    f1 = 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 1.0
    return F1Report(tp, fp, fn, precision, recall, f1)
