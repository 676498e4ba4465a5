import hashlib
import logging
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpwp import noise
from lpwp.ingest import (LABELS, EntitySpan, OrderMapping, Problem, load_dataset,
                         save_dataset)
from lpwp.metrics import F1Report, micro_f1
from lpwp.noise import NoiseConfig, corrupt_spans

from helpers import berry_problem, random_problem


def make_corpus(n_problems, spans_per_problem, labels=None):
    """Problems with evenly spaced spans, leaving room for boundary shifts."""
    labels = labels or ["LIMIT", "PARAM", "CONST_DIR", "OBJ_DIR", "OBJ_NAME"]
    problems = []
    for i in range(n_problems):
        text = "x" * (10 * spans_per_problem + 10)
        spans = [
            EntitySpan(10 * j + 3, 10 * j + 7, labels[j % len(labels)])
            for j in range(spans_per_problem)
        ]
        problems.append(Problem(f"p{i}", text, spans, OrderMapping({})))
    return problems


def test_p_zero_is_identity():
    problems = [berry_problem()]
    noisy, report = corrupt_spans(problems, NoiseConfig(p=0.0, seed=1))
    assert noisy == problems
    assert report.f1 == 1.0


def test_p_one_three_spans_equal_mix():
    (problem,) = make_corpus(1, 3)
    noisy, _ = corrupt_spans([problem], NoiseConfig(p=1.0, seed=5))
    original = set(problem.spans)
    result = noisy[0].spans
    dropped = len(problem.spans) - len(result)
    mislabeled = sum(
        1 for s in result
        if any(o.start == s.start and o.end == s.end and o.label != s.label
               for o in original)
    )
    shifted = sum(
        1 for s in result
        if not any(o.start == s.start and o.end == s.end for o in original)
    )
    assert (dropped, mislabeled, shifted) == (1, 1, 1)


def test_seeded_determinism():
    problems = make_corpus(20, 8)
    cfg = NoiseConfig(p=0.4, seed=20240814)
    first = corrupt_spans(problems, cfg)
    second = corrupt_spans(problems, cfg)
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_different_seeds_differ():
    problems = make_corpus(20, 8)
    a, _ = corrupt_spans(problems, NoiseConfig(p=0.4, seed=1))
    b, _ = corrupt_spans(problems, NoiseConfig(p=0.4, seed=2))
    assert a != b


def test_selection_count_rounds_half_up():
    problems = make_corpus(1, 3)
    noisy, report = corrupt_spans(problems, NoiseConfig(p=0.5, seed=3))
    # round(0.5 * 3) = 2 corrupted spans
    corrupted = report.false_negatives
    assert corrupted == 2


def test_untouched_spans_identical_and_text_unmodified():
    problems = make_corpus(10, 10)
    noisy, _ = corrupt_spans(problems, NoiseConfig(p=0.3, seed=9))
    for before, after in zip(problems, noisy):
        assert after.text == before.text
        originals = set(before.spans)
        touched = sum(1 for s in after.spans if s not in originals)
        untouched = sum(1 for s in after.spans if s in originals)
        assert untouched + touched == len(after.spans)
        # Untouched spans are literally the original objects' values.
        for s in after.spans:
            if s in originals:
                assert s in before.spans


def test_output_spans_valid_and_non_overlapping():
    problems = make_corpus(30, 12)
    noisy, _ = corrupt_spans(problems, NoiseConfig(p=0.8, seed=77))
    for problem in noisy:
        for a, b in zip(problem.spans, problem.spans[1:]):
            assert a.end <= b.start
        for s in problem.spans:
            assert 0 <= s.start < s.end <= len(problem.text)
        # Rebuilding checks the ingest invariants again.
        Problem(problem.id, problem.text, problem.spans, problem.order_mapping,
                problem.gold)


def test_gold_and_mapping_preserved():
    problems = [berry_problem()]
    noisy, _ = corrupt_spans(problems, NoiseConfig(p=0.5, seed=4))
    assert noisy[0].gold == problems[0].gold
    assert noisy[0].order_mapping == problems[0].order_mapping


def expected_f1(p):
    precision = (1 - p) / (1 - p / 3)
    recall = 1 - p
    return 2 * precision * recall / (precision + recall)


@pytest.mark.parametrize("p,lo,hi", [(0.2, 0.80, 0.86), (0.5, 0.52, 0.62)])
def test_f1_tracks_closed_form(p, lo, hi):
    problems = make_corpus(500, 24)  # 12,000 spans
    _, report = corrupt_spans(problems, NoiseConfig(p=p, seed=1234))
    assert lo <= report.f1 <= hi
    assert math.isclose(report.f1, expected_f1(p), abs_tol=0.02)


def test_impossible_shift_falls_back_to_drop():
    # Single-character text: the only in-bounds span is the original one,
    # so the span in the shift group has no legal move and must be dropped.
    problems = [
        Problem(f"p{i}", "a", [EntitySpan(0, 1, "PARAM")], OrderMapping({}))
        for i in range(3)
    ]
    noisy, _ = corrupt_spans(problems, NoiseConfig(p=1.0, seed=0, shift_max=1))
    total = sum(len(p.spans) for p in noisy)
    assert total == 1  # only the mislabeled span survives


def test_noisy_problems_equal_a_full_rebuild(tmp_path):
    # Noisy problems are checked on their spans only; building each one
    # with Problem(...), which checks everything, must give the same
    # problems and file. Single-character problems add shifts that fall
    # back to a drop.
    rng = random.Random(20261018)
    problems = [random_problem(rng, f"p{i}") for i in range(300)]
    for i in range(0, 300, 50):
        problems.insert(i, Problem(f"a{i}", "a", [EntitySpan(0, 1, "PARAM")],
                                   OrderMapping({})))
    noisy, report = corrupt_spans(problems, NoiseConfig(p=0.6, seed=7))
    rebuilt = [Problem(p.id, p.text, p.spans, p.order_mapping, p.gold)
               for p in noisy]
    assert report.n_shift_fallback > 0
    n_spans = sum(len(p.spans) for p in problems)
    assert (report.n_drop + report.n_mislabel + report.n_shift
            + report.n_shift_fallback) == round(0.6 * n_spans)
    assert noisy == rebuilt
    save_dataset(noisy, tmp_path / "noisy.jsonl")
    save_dataset(rebuilt, tmp_path / "rebuilt.jsonl")
    assert (tmp_path / "noisy.jsonl").read_bytes() == (tmp_path / "rebuilt.jsonl").read_bytes()


def test_shifted_span_can_land_on_a_dropped_one():
    # The shift moves (6, 8) onto the dropped (3, 5), so the noisy corpus
    # keeps one more true positive than the spans that were not selected.
    spans = [EntitySpan(0, 2, "PARAM"), EntitySpan(3, 5, "PARAM"),
             EntitySpan(6, 8, "PARAM")]
    problem = Problem("p", "aa bb cc dd", spans, OrderMapping({}))
    noisy, report = corrupt_spans([problem], NoiseConfig(p=1.0, seed=36))
    assert noisy[0].spans == [EntitySpan(0, 2, "OBJ_DIR"), EntitySpan(3, 5, "PARAM")]
    assert (report.true_positives, report.false_positives,
            report.false_negatives) == (1, 1, 2)
    assert (report.n_drop, report.n_mislabel, report.n_shift,
            report.n_shift_fallback) == (1, 1, 1, 0)


def test_shift_that_would_overlap_a_neighbour_is_never_placed():
    # Six adjacent one-character spans: the span in the shift group keeps a
    # neighbour (or the text's edge) on each side, so every move of at most
    # one character is out of bounds or overlaps, and it falls back to a drop.
    spans = [EntitySpan(i, i + 1, "PARAM") for i in range(6)]
    problem = Problem("p", "abcdef", spans, OrderMapping({}))
    noisy, report = corrupt_spans([problem],
                                  NoiseConfig(p=0.5, seed=0, shift_max=1))
    assert noisy[0].spans == [EntitySpan(1, 2, "PARAM"), EntitySpan(2, 3, "PARAM"),
                              EntitySpan(4, 5, "PARAM"), EntitySpan(5, 6, "OBJ_DIR")]
    assert (report.n_drop, report.n_mislabel, report.n_shift,
            report.n_shift_fallback) == (1, 1, 0, 1)


@pytest.mark.parametrize("p", [0.0, 0.5])
def test_f1_counts_every_problem_when_ids_repeat(p):
    problem = berry_problem()
    noisy, report = corrupt_spans([problem, problem], NoiseConfig(p=p, seed=1))
    total = 2 * len(problem.spans)
    assert report.true_positives + report.false_negatives == total
    if p == 0.0:
        assert report.true_positives == total


def test_building_loading_and_corrupting_log_nothing(caplog, tmp_path):
    # A VAR span that names no variable is an annotation, not a fault, and
    # a shift that falls back to a drop is counted in the report.
    problems = [
        Problem("v", "apples or pears", [EntitySpan(0, 6, "VAR"),
                                         EntitySpan(10, 15, "VAR")],
                OrderMapping({"x": 0})),
        *(Problem(f"a{i}", "a", [EntitySpan(0, 1, "PARAM")], OrderMapping({}))
          for i in range(3)),
    ]
    with caplog.at_level(logging.DEBUG, logger="lpwp"):
        save_dataset(problems, tmp_path / "in.jsonl")
        loaded = load_dataset(tmp_path / "in.jsonl")
        _, report = corrupt_spans(loaded, NoiseConfig(p=1.0, seed=0, shift_max=1))
    assert caplog.records == []
    assert loaded == problems
    assert report.n_shift_fallback > 0


@st.composite
def packed_problems(draw):
    """A problem whose spans are 1-4 characters long, 0-2 apart, so many
    touch or sit one character from the next."""
    spans, pos = [], draw(st.integers(0, 2))
    for gap, length, label in draw(st.lists(st.tuples(
            st.integers(0, 2), st.integers(1, 4), st.sampled_from(LABELS)),
            max_size=12)):
        spans.append(EntitySpan(pos, pos + length, label))
        pos += length + gap
    return Problem("p", "x" * (pos + draw(st.integers(0, 2))), spans,
                   OrderMapping({}))


@settings(max_examples=300, deadline=None)
@given(problems=st.lists(packed_problems(), min_size=1, max_size=4),
       order=st.lists(st.integers(0, 3), max_size=8),
       p=st.floats(0, 1), seed=st.integers(0, 2**32), shift_max=st.integers(1, 7))
def test_report_equals_micro_f1_of_the_noisy_corpus(problems, order, p, seed, shift_max):
    # The same problem object may appear more than once in the corpus.
    corpus = [problems[i % len(problems)] for i in order]
    noisy, report = corrupt_spans(corpus, NoiseConfig(p=p, seed=seed,
                                                      shift_max=shift_max))
    f1 = micro_f1(dict(enumerate(q.spans for q in corpus)),
                  dict(enumerate(q.spans for q in noisy)))
    assert F1Report(**{k: getattr(report, k) for k in vars(f1)}) == f1
    n_spans = sum(len(q.spans) for q in corpus)
    assert (report.n_drop + report.n_mislabel + report.n_shift
            + report.n_shift_fallback) == int(p * n_spans + 0.5)


def test_noisy_file_is_pinned(tmp_path):
    # Any change in the order of the random draws changes this file.
    rng = random.Random(20261019)
    problems = [random_problem(rng, f"p{i}") for i in range(200)]
    adjacent = Problem("adj", "abcdefgh",
                       [EntitySpan(i, i + 1, "PARAM") for i in range(8)],
                       OrderMapping({}))
    problems += [adjacent, problems[0], adjacent,
                 Problem("a", "a", [EntitySpan(0, 1, "PARAM")], OrderMapping({}))]
    noisy, report = corrupt_spans(problems, NoiseConfig(p=0.6, seed=17, shift_max=2))
    save_dataset(noisy, tmp_path / "noisy.jsonl")
    assert hashlib.sha256((tmp_path / "noisy.jsonl").read_bytes()).hexdigest() == (
        "739bb65e45d4f5984e58e7ec903824a7531a71d103e920df4adbcce7857949ef")
    assert (report.true_positives, report.false_positives, report.false_negatives,
            report.n_drop, report.n_mislabel, report.n_shift,
            report.n_shift_fallback) == (445, 442, 667, 223, 222, 220, 2)


def test_overlap_tests_grow_with_the_shift_draws(monkeypatch):
    # A candidate place is tested only against the spans it could reach,
    # not against every span of the problem.
    counts = {"overlaps": 0, "draws": 0}
    overlaps = noise._overlaps

    def counting_overlaps(a, b):
        counts["overlaps"] += 1
        return overlaps(a, b)

    class CountingRandom(random.Random):
        def randint(self, a, b):
            counts["draws"] += 1
            return super().randint(a, b)

    monkeypatch.setattr(noise, "_overlaps", counting_overlaps)
    monkeypatch.setattr(noise.random, "Random", CountingRandom)
    (problem,) = make_corpus(1, 20000)
    _, report = corrupt_spans([problem], NoiseConfig(p=1.0, seed=3))
    assert report.n_shift > 6000
    assert counts["overlaps"] <= 4 * counts["draws"]


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        NoiseConfig(p=1.5, seed=0)
    with pytest.raises(ValueError):
        NoiseConfig(p=0.2, seed=0, shift_max=0)
    for shift_max in (2.5, True):
        with pytest.raises(ValueError):
            NoiseConfig(p=1.0, seed=1, shift_max=shift_max)
