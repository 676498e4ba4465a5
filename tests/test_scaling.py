"""Scaling gates that do not read the clock: for an input 4 times as large,
a path runs at most 4.5 times as many lines of ``lpwp``. A quadratic path
runs about 16 times as many."""

import random
from fractions import Fraction

from lpwp import ingest, ir

from helpers import line_events, random_problem

GROWTH = 4.5


def assert_linear(small, large):
    assert large <= GROWTH * small, (small, large, large / small)


def test_load_dataset_scales_linearly(tmp_path):
    rng = random.Random(3)
    problems = [random_problem(rng, f"p{i}") for i in range(800)]
    paths = []
    for n in (200, 800):
        paths.append(tmp_path / f"{n}.jsonl")
        ingest.save_dataset(problems[:n], paths[-1])
    # Fill the process-wide memos first, so the counts do not depend on
    # which tests ran before.
    ingest.load_dataset(paths[0])
    assert_linear(*(line_events(ingest.load_dataset, path) for path in paths))


def _faulty_line(n):
    """``n`` well-formed declarations, each after one with a bad number and
    a stray token: a line that lenient parsing recovers from 2 * n times."""
    good = ir.serialize_declarations([ir.constraint(
        "at most", ir.LESS_OR_EQUAL, Fraction(7, 2), {"x": 1, "y": Fraction(-3)})])
    bad = good.replace("<LIMIT> 3.5 </LIMIT>", "<LIMIT> 3.5x </LIMIT>")
    return (bad + "[TIMES]" + good) * n


def test_lenient_parse_scales_linearly():
    counts = []
    for n in (100, 400):
        line = _faulty_line(n)
        decls, diagnostics = ir.parse_declarations(line, "lenient")
        assert (len(decls), len(diagnostics)) == (n, 2 * n)
        counts.append(line_events(ir.parse_declarations, line, "lenient"))
    assert_linear(*counts)
