import random
from fractions import Fraction

import pytest

from lpwp import ir, metrics
from lpwp.canonical import declarations_equal
from lpwp.errors import ValidationError
from lpwp.ingest import EntitySpan, OrderMapping
from lpwp.metrics import micro_f1, score_accuracy

from helpers import berry_problem, matching_chain, random_declaration


def oracle_max_matching(pred, gold, mapping, tol=Fraction(1, 10**9)):
    """Enumerate all injective pred->gold assignments; return the max size."""
    best = 0

    def recurse(i, used, matched):
        nonlocal best
        best = max(best, matched)
        if i == len(pred):
            return
        recurse(i + 1, used, matched)
        for j in range(len(gold)):
            if j not in used and declarations_equal(pred[i], gold[j], mapping, tol):
                recurse(i + 1, used | {j}, matched + 1)

    recurse(0, frozenset(), 0)
    return best


def test_identical_predictions_score_one():
    problem = berry_problem()
    report = score_accuracy(
        {"berry": problem.gold}, {"berry": list(problem.gold)},
        {"berry": problem.order_mapping},
    )
    assert report.accuracy == 1.0
    assert report.per_example[0].fp == 0
    assert report.per_example[0].fn == 0


def test_berry_hand_count():
    problem = berry_problem()
    obj, c1, c2 = problem.gold
    wrong = ir.constraint(c2.direction_text, c2.operator, 99, c2.terms)
    report = score_accuracy(
        {"berry": [obj, c1, c2]}, {"berry": [obj, c1, wrong]},
        {"berry": problem.order_mapping},
    )
    example = report.per_example[0]
    assert (example.d, example.fp, example.fn) == (3, 1, 1)
    assert report.accuracy == pytest.approx(1 - 2 / 3)


@pytest.mark.parametrize("tol", [0, Fraction(1, 10**9)])
def test_equal_forms_match_with_multiplicity(tol):
    problem = berry_problem()
    obj, c1, _ = problem.gold
    report = score_accuracy(
        {"berry": [obj, c1, c1]}, {"berry": [c1, obj, c1, c1]},
        {"berry": problem.order_mapping}, tol,
    )
    example = report.per_example[0]
    assert (example.d, example.fp, example.fn) == (3, 1, 0)


def test_accuracy_can_be_negative():
    mapping = OrderMapping({"x": 0})
    gold = [
        ir.constraint("at most", ir.LESS_OR_EQUAL, k, {"x": Fraction(1)})
        for k in (1, 2)
    ]
    pred = [
        ir.constraint("at most", ir.LESS_OR_EQUAL, 100 + k, {"x": Fraction(1)})
        for k in range(5)
    ]
    report = score_accuracy({"e": gold}, {"e": pred}, {"e": mapping})
    assert report.accuracy == pytest.approx(1 - (5 + 2) / 2)


def test_unknown_prediction_id_rejected():
    mapping = OrderMapping({"x": 0})
    with pytest.raises(ValidationError):
        score_accuracy({"a": []}, {"b": []}, {"a": mapping, "b": mapping})


def test_gold_id_without_mapping_rejected():
    gold = berry_problem().gold
    with pytest.raises(ValidationError) as err:
        score_accuracy({"berry": gold, "apple": gold}, {}, {})
    assert "['apple', 'berry']" in str(err.value)


def test_corpus_without_gold_declarations():
    problem = berry_problem()
    gold, mappings = {"berry": []}, {"berry": problem.order_mapping}
    assert score_accuracy(gold, {}, mappings).accuracy == 1.0
    with pytest.raises(ValidationError):
        score_accuracy(gold, {"berry": problem.gold}, mappings)


def test_missing_prediction_counts_as_empty():
    problem = berry_problem()
    report = score_accuracy(
        {"berry": problem.gold}, {}, {"berry": problem.order_mapping}
    )
    assert report.per_example[0].fn == 3
    assert report.accuracy == 0.0


def test_matching_is_maximum_when_tolerance_is_not_transitive():
    # Greedy pairs 0.5 with 1 and leaves 1.4 and 0 apart; 0.5-0, 1.4-1 is
    # a perfect matching.
    mapping = OrderMapping({"x": 0})

    def side(*limits):
        return [
            ir.constraint("at most", ir.LESS_OR_EQUAL, Fraction(k),
                          {"x": Fraction(1)})
            for k in limits
        ]

    report = score_accuracy(
        {"e": side(1, 0)}, {"e": side("0.5", "1.4")}, {"e": mapping},
        tol=Fraction("0.51"),
    )
    example = report.per_example[0]
    assert (example.fp, example.fn) == (0, 0)


def test_long_augmenting_path_does_not_overflow_the_stack():
    gold, pred = matching_chain(2000)
    report = score_accuracy({"e": gold}, {"e": pred},
                            {"e": OrderMapping({"x": 0})}, Fraction(1, 2))
    example = report.per_example[0]
    assert (example.d, example.fp, example.fn) == (2001, 0, 0)


def test_close_calls_grow_linearly_on_the_chain(monkeypatch):
    # Each prediction is compared only with the golds in its window, two
    # on the chain, not with all n + 1 of them.
    calls = 0
    close = metrics._close

    def counting_close(*args):
        nonlocal calls
        calls += 1
        return close(*args)

    monkeypatch.setattr(metrics, "_close", counting_close)
    n = 500  # short enough for the path to fit the stack without the window
    gold, pred = matching_chain(n)
    score_accuracy({"e": gold}, {"e": pred}, {"e": OrderMapping({"x": 0})},
                   Fraction(1, 2))
    assert calls <= 3 * (n + 1)


@pytest.mark.parametrize("bad", [
    ir.constraint("at most", ir.LESS_OR_EQUAL, 1, {"zz": Fraction(1)}),
    ir.objective("reduce", "cost", {"x": Fraction(1)}),
    ir.constraint("at most", ir.LESS_OR_EQUAL, 1, {"x": Fraction(0)}),
], ids=["unknown_variable", "direction_reduce", "all_zero_row"])
def test_prediction_without_canonical_form_counts_as_one_fp(bad):
    mapping = OrderMapping({"x": 0})
    obj = ir.objective("minimize", "cost", {"x": Fraction(1)})
    con = ir.constraint("at least", ir.GREATER_OR_EQUAL, 2, {"x": Fraction(1)})
    report = score_accuracy(
        {"e": [obj, con]}, {"e": [bad, obj, con]}, {"e": mapping}
    )
    example = report.per_example[0]
    assert (example.d, example.fp, example.fn) == (2, 1, 0)


def random_side(rng, var_names, mapping, max_len=6, min_len=0,
                coefficient=lambda rng: Fraction(rng.randint(1, 3)),
                limit=lambda rng: Fraction(rng.randint(1, 4))):
    # Small coefficient pool so that equal declarations actually occur.
    def decl():
        d = random_declaration(rng, var_names)
        terms = {v: coefficient(rng) for v in d.terms}
        if d.kind == ir.OBJECTIVE:
            return ir.Declaration(ir.OBJECTIVE, d.direction_text, terms,
                                  name=d.name)
        return ir.Declaration(ir.CONSTRAINT, d.direction_text, terms,
                              operator=d.operator, limit=limit(rng))

    return [decl() for _ in range(rng.randint(min_len, max_len))]


# At tol=1 the 1..3 coefficient pool makes within-tol equality non-transitive.
@pytest.mark.parametrize("tol", [Fraction(1, 10**9), 1])
def test_oracle_equivalence_on_random_instances(tol):
    rng = random.Random(20240813)
    var_names = ["a 0", "b 1"]
    mapping = OrderMapping({name: i for i, name in enumerate(var_names)})
    for _ in range(500):
        gold = random_side(rng, var_names, mapping, min_len=1)
        pred = random_side(rng, var_names, mapping)
        report = score_accuracy({"e": gold}, {"e": pred}, {"e": mapping}, tol)
        example = report.per_example[0]
        matched = oracle_max_matching(pred, gold, mapping, tol)
        assert example.fp == len(pred) - matched
        assert example.fn == len(gold) - matched


def test_permutation_invariance():
    rng = random.Random(99)
    var_names = ["a 0", "b 1"]
    mapping = OrderMapping({name: i for i, name in enumerate(var_names)})
    gold = {f"e{i}": random_side(rng, var_names, mapping) for i in range(5)}
    pred = {f"e{i}": random_side(rng, var_names, mapping) for i in range(5)}
    mappings = {k: mapping for k in gold}
    base = score_accuracy(gold, pred, mappings)
    shuffled_pred = {
        k: random.Random(k).sample(v, len(v)) for k, v in pred.items()
    }
    reordered = score_accuracy(
        dict(reversed(list(gold.items()))), shuffled_pred, mappings
    )
    assert reordered.accuracy == base.accuracy
    assert {e.id: (e.d, e.fp, e.fn) for e in reordered.per_example} == \
           {e.id: (e.d, e.fp, e.fn) for e in base.per_example}


def spans(*triples):
    return [EntitySpan(s, e, label) for s, e, label in triples]


def test_micro_f1_identical():
    ref = {"a": spans((0, 3, "VAR"), (5, 8, "PARAM"))}
    report = micro_f1(ref, {"a": list(ref["a"])})
    assert report.f1 == 1.0


def test_micro_f1_hand_count():
    ref = {"a": spans((0, 1, "VAR"), (2, 3, "PARAM"),
                      (4, 5, "LIMIT"), (6, 7, "OBJ_DIR"))}
    hyp = {"a": spans((0, 1, "VAR"), (2, 3, "PARAM"),
                      (4, 5, "LIMIT"), (6, 7, "OBJ_NAME"))}
    report = micro_f1(ref, hyp)
    assert (report.true_positives, report.false_positives,
            report.false_negatives) == (3, 1, 1)
    assert report.precision == pytest.approx(0.75)
    assert report.recall == pytest.approx(0.75)
    assert report.f1 == pytest.approx(0.75)


def test_micro_f1_empty_hypothesis():
    ref = {"a": spans((0, 1, "VAR"))}
    report = micro_f1(ref, {"a": []})
    assert report.f1 == 0.0


def test_micro_f1_both_empty():
    report = micro_f1({"a": []}, {"a": []})
    assert report.f1 == 1.0
    assert report.precision == 1.0
    assert report.recall == 1.0


def test_micro_f1_mismatched_ids_rejected():
    with pytest.raises(ValidationError):
        micro_f1({"a": []}, {"b": []})


def test_micro_f1_swap_symmetry():
    rng = random.Random(5)
    ref, hyp = {}, {}
    for i in range(10):
        ref[f"e{i}"] = spans(*[
            (10 * j, 10 * j + rng.randint(1, 5), rng.choice(["VAR", "PARAM"]))
            for j in range(rng.randint(0, 6))
        ])
        hyp[f"e{i}"] = spans(*[
            (10 * j, 10 * j + rng.randint(1, 5), rng.choice(["VAR", "PARAM"]))
            for j in range(rng.randint(0, 6))
        ])
    forward = micro_f1(ref, hyp)
    backward = micro_f1(hyp, ref)
    assert forward.precision == backward.recall
    assert forward.recall == backward.precision
    assert forward.f1 == backward.f1


def test_micro_f1_duplicates_match_with_multiplicity():
    ref = {"a": spans((0, 1, "VAR"), (0, 1, "VAR"))}
    hyp = {"a": spans((0, 1, "VAR"), (0, 1, "VAR"), (0, 1, "VAR"))}
    report = micro_f1(ref, hyp)
    assert (report.true_positives, report.false_positives,
            report.false_negatives) == (2, 1, 0)


# Mixed decimal denominators: the example's scale runs from 1 to 10**10,
# 2 and 2.0000000001 are within 1e-9 only, and 0.5, 0.625, 0.75 chain at
# 0.125 but 0.5 and 0.75 do not meet, so closeness is not transitive.
MIXED_POOL = [Fraction(v) for v in (
    "0.5", "0.625", "0.75", "1.25", "3", "0.001", "2", "2.0000000001",
)]


def mixed_number(rng):
    return rng.choice(MIXED_POOL)


@pytest.mark.parametrize("tol", [
    0, Fraction(1, 10**9), 1e-9, Fraction(1, 3), Fraction("0.125"), 1,
], ids=["0", "1/10**9", "float_1e-9", "1/3", "0.125", "1"])
def test_oracle_equivalence_on_mixed_denominators(tol):
    rng = random.Random(20261018)
    var_names = ["a 0", "b 1"]
    mapping = OrderMapping({name: i for i, name in enumerate(var_names)})
    for _ in range(300):
        gold, pred = (
            random_side(rng, var_names, mapping, max_len=5, min_len=min_len,
                        coefficient=mixed_number, limit=mixed_number)
            for min_len in (1, 0)
        )
        report = score_accuracy({"e": gold}, {"e": pred}, {"e": mapping}, tol)
        example = report.per_example[0]
        matched = oracle_max_matching(pred, gold, mapping, tol)
        assert example.fp == len(pred) - matched
        assert example.fn == len(gold) - matched


@pytest.mark.parametrize("tol, pred_limit, matches", [
    (Fraction("0.125"), "1.125", True),
    (Fraction("0.125"), "0.875", True),
    (Fraction("0.125"), "1.1250000001", False),
    (Fraction("0.125"), "0.8749999999", False),
    (Fraction(1, 3), "1.333", True),
    (Fraction(1, 3), "0.667", True),
    (Fraction(1, 3), "1.334", False),
    (Fraction(1, 3), "0.666", False),
    # In floats 0.29 * 100 is 28.999999999999996.
    (Fraction("0.29"), "1.29", True),
    (Fraction("0.29"), "1.2900000001", False),
])
def test_tolerance_boundary_is_exact(tol, pred_limit, matches):
    mapping = OrderMapping({"x": 0})

    def row(limit):
        return ir.constraint("at most", ir.LESS_OR_EQUAL, Fraction(limit),
                             {"x": Fraction(1)})

    gold, pred = row(1), row(pred_limit)
    report = score_accuracy({"e": [gold]}, {"e": [pred]}, {"e": mapping}, tol)
    example = report.per_example[0]
    assert (example.fp, example.fn) == ((0, 0) if matches else (1, 1))
    assert declarations_equal(pred, gold, mapping, tol) is matches


def test_micro_f1_mismatched_ids_of_mixed_types_rejected():
    with pytest.raises(ValidationError, match=r"differ: \['a', 1\]"):
        micro_f1({"a": []}, {1: []})
