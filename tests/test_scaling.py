"""Scaling gates that do not read the clock: for an input 4 times as large,
a path runs at most 4.5 times as many lines of ``lpwp``. A quadratic path
runs about 16 times as many."""

import random
from fractions import Fraction

from lpwp import ingest, ir
from lpwp.augment import augment_text
from lpwp.canonical import canonicalize
from lpwp.ingest import LABELS, EntitySpan, OrderMapping, Problem
from lpwp.metrics import score_accuracy
from lpwp.noise import NoiseConfig, corrupt_spans

from helpers import line_events, matching_chain, random_declaration, random_problem

GROWTH = 4.5


def assert_linear(call, small, large):
    """``call(*large)`` runs at most GROWTH times the lines of ``call(*small)``.

    ``call(*small)`` runs once first, to fill the process-wide memos, so the
    counts do not depend on which tests ran before.
    """
    call(*small)
    counts = [line_events(call, *args) for args in (small, large)]
    assert counts[1] <= GROWTH * counts[0], (*counts, counts[1] / counts[0])


def test_load_dataset_scales_linearly(tmp_path):
    rng = random.Random(3)
    problems = [random_problem(rng, f"p{i}") for i in range(800)]
    paths = []
    for n in (200, 800):
        paths.append(tmp_path / f"{n}.jsonl")
        ingest.save_dataset(problems[:n], paths[-1])
    assert_linear(ingest.load_dataset, (paths[0],), (paths[1],))


def test_save_dataset_scales_linearly(tmp_path):
    rng = random.Random(4)
    problems = [random_problem(rng, f"p{i}") for i in range(800)]
    assert_linear(ingest.save_dataset, (problems[:200], tmp_path / "200.jsonl"),
                  (problems, tmp_path / "800.jsonl"))


def _faulty_line(n):
    """``n`` well-formed declarations, each after one with a bad number and
    a stray token: a line that lenient parsing recovers from 2 * n times."""
    good = ir.serialize_declarations([ir.constraint(
        "at most", ir.LESS_OR_EQUAL, Fraction(7, 2), {"x": 1, "y": Fraction(-3)})])
    bad = good.replace("<LIMIT> 3.5 </LIMIT>", "<LIMIT> 3.5x </LIMIT>")
    return (bad + "[TIMES]" + good) * n


def test_lenient_parse_scales_linearly():
    lines = []
    for n in (100, 400):
        lines.append(_faulty_line(n))
        decls, diagnostics = ir.parse_declarations(lines[-1], "lenient")
        assert (len(decls), len(diagnostics)) == (n, 2 * n)
    assert_linear(ir.parse_declarations, (lines[0], "lenient"), (lines[1], "lenient"))


def _spanned_problem(k):
    """A problem of ``k`` words, each an entity span."""
    rng = random.Random(k)
    text = " ".join(f"w{i}" for i in range(k))
    spans, start = [], 0
    for word in text.split(" "):
        spans.append(EntitySpan(start, start + len(word), rng.choice(LABELS)))
        start += len(word) + 1
    return Problem("p", text, spans, OrderMapping({}))


def test_augment_text_scales_linearly():
    small, large = _spanned_problem(500), _spanned_problem(2000)
    assert_linear(augment_text, (small.text, small.spans), (large.text, large.spans))


def test_corrupt_spans_scales_linearly():
    config = NoiseConfig(p=0.5, seed=1)
    assert_linear(corrupt_spans, ([_spanned_problem(500)], config),
                  ([_spanned_problem(2000)], config))


_VARIABLES = [f"v{i}" for i in range(6)]


def _declarations(k):
    """``k`` random declarations over the same six variables."""
    rng = random.Random(5)
    return [random_declaration(rng, _VARIABLES) for _ in range(k)]


def test_serialize_declarations_scales_linearly():
    assert_linear(ir.serialize_declarations, (_declarations(250),),
                  (_declarations(1000),))


def test_strict_parse_scales_linearly():
    small, large = (ir.serialize_declarations(_declarations(k)) for k in (250, 1000))
    assert_linear(ir.parse_declarations, (small, "strict"), (large, "strict"))


def test_canonicalize_scales_linearly():
    mapping = OrderMapping({name: i for i, name in enumerate(_VARIABLES)})
    objective = ir.objective("minimize", "cost", dict.fromkeys(_VARIABLES, 1))

    def program(k):
        constraints = [d for d in _declarations(3 * k) if d.kind == ir.CONSTRAINT]
        return [objective, *constraints[:k]]

    assert_linear(canonicalize, (program(250), mapping), (program(1000), mapping))


def _chain_scores(n, tol):
    """Arguments of score_accuracy on one example, ``matching_chain(n)``."""
    gold, pred = matching_chain(n)
    return {"chain": gold}, {"chain": pred}, {"chain": OrderMapping({"x": 0})}, tol


def test_score_accuracy_scales_linearly_at_bound_zero():
    assert_linear(score_accuracy, _chain_scores(250, 1e-9), _chain_scores(1000, 1e-9))


def test_score_accuracy_scales_linearly_at_a_positive_bound():
    small, large = _chain_scores(250, Fraction(1, 2)), _chain_scores(1000, Fraction(1, 2))
    assert score_accuracy(*large).per_example[0].fn == 0  # a perfect matching
    assert_linear(score_accuracy, small, large)
