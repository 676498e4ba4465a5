import dataclasses
import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from lpwp import ingest, ir, solver
from lpwp.cli import main

from helpers import (MUTANT_VALUES, berry_problem, json_paths, matching_chain,
                     replace_at)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def berry_dataset(tmp_path):
    path = tmp_path / "berry.jsonl"
    ingest.save_dataset([berry_problem()], path)
    return path


def test_augment_emits_tsv(runner, berry_dataset):
    result = runner.invoke(main, ["augment", "--in", str(berry_dataset)])
    assert result.exit_code == 0
    source, target = result.output.rstrip("\n").split("\t")
    assert source.startswith(
        "A berry picker must pick <CONST_DIR> at least </CONST_DIR> "
        "<LIMIT> 3000 </LIMIT> strawberries and <LIMIT> 15000 </LIMIT> "
        "raspberries."
    )
    assert target.startswith("<DECLARATION><OBJ_DIR> minimize </OBJ_DIR>")
    assert target.endswith("</DECLARATION>")


def test_augment_writes_file(runner, berry_dataset, tmp_path):
    out = tmp_path / "train.tsv"
    result = runner.invoke(
        main, ["augment", "--in", str(berry_dataset), "--out", str(out)]
    )
    assert result.exit_code == 0
    assert out.read_text().count("\t") == 1


@pytest.mark.parametrize("text, name, field", [
    ("x\ty", "n", "text"),
    ("x\ny", "n", "text"),
    ("x\ry", "n", "text"),
    ("x", "total\tcost", "gold"),
], ids=["tab_in_text", "newline_in_text", "return_in_text", "tab_in_gold_name"])
def test_augment_rejects_a_row_that_would_split(runner, tmp_path, text, name, field):
    path = tmp_path / "d.jsonl"
    split = ingest.Problem("split", text, [], ingest.OrderMapping({"x": 0}),
                           gold=[ir.objective("min", name, {"x": 1})])
    ingest.save_dataset([berry_problem(), split], path)
    out = tmp_path / "train.tsv"
    result = runner.invoke(main, ["augment", "--in", str(path), "--out", str(out)])
    assert result.exit_code == 1
    assert result.stderr == (f"error: [field {field}] problem 'split': a tab or "
                             "line break would split its row\n")
    assert not out.exists()


@pytest.mark.parametrize("text, spans, run, position", [
    ("buy <VAR> x", [ingest.EntitySpan(10, 11, "VAR")], "<VAR>", 4),
    ("a <B> b", [], "<B>", 2),
    ("x </LIMIT>", [ingest.EntitySpan(0, 1, "VAR")], "</LIMIT>", 2),
], ids=["label_tag", "unknown_tag", "closing_tag"])
def test_augment_rejects_text_that_holds_a_tag_like_run(runner, tmp_path, text, spans,
                                                        run, position):
    path = tmp_path / "d.jsonl"
    tagged = ingest.Problem("tag", text, spans, ingest.OrderMapping({"x": 0}),
                            gold=[ir.objective("min", "n", {"x": 1})])
    ingest.save_dataset([berry_problem(), tagged], path)
    out = tmp_path / "train.tsv"
    result = runner.invoke(main, ["augment", "--in", str(path), "--out", str(out)])
    assert result.exit_code == 1
    assert result.stderr == (f"error: [field text] problem 'tag': tag-like run "
                             f"{run!r} at position {position}\n")
    assert not out.exists()


def test_score_perfect_predictions(runner, berry_dataset, tmp_path):
    from lpwp import ir

    preds = tmp_path / "preds.txt"
    preds.write_text(ir.serialize_declarations(berry_problem().gold) + "\n")
    result = runner.invoke(main, [
        "score", "--gold", str(berry_dataset), "--pred", str(preds),
    ])
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert report["accuracy"] == 1.0


def test_score_lenient_on_garbage(runner, berry_dataset, tmp_path):
    preds = tmp_path / "preds.txt"
    preds.write_text("total garbage output\n")
    result = runner.invoke(main, [
        "score", "--gold", str(berry_dataset), "--pred", str(preds),
    ])
    assert result.exit_code == 0
    report = json.loads(result.stdout)
    assert report["accuracy"] == 0.0
    assert report["per_example"][0]["FN"] == 3


def test_score_at_a_positive_tolerance_survives_a_long_augmenting_path(runner, tmp_path):
    gold, pred = matching_chain(2000)
    objective = ir.objective("minimize", "cost", {"x": 1})
    path = tmp_path / "chain.jsonl"
    ingest.save_dataset([ingest.Problem("chain", "x", [], ingest.OrderMapping({"x": 0}),
                                        gold=[objective, *gold])], path)
    preds = tmp_path / "chain.ir"
    preds.write_text(ir.serialize_declarations([objective, *pred]) + "\n")
    result = runner.invoke(main, ["score", "--gold", str(path), "--pred", str(preds),
                                  "--tol", "0.5"])
    assert result.exit_code == 0, result.output
    (example,) = json.loads(result.stdout)["per_example"]
    assert (example["D"], example["FP"], example["FN"]) == (2002, 0, 0)
    assert result.stderr == ""


def test_score_line_count_mismatch(runner, berry_dataset, tmp_path):
    preds = tmp_path / "preds.txt"
    preds.write_text("\n\n")
    result = runner.invoke(main, [
        "score", "--gold", str(berry_dataset), "--pred", str(preds),
    ])
    assert result.exit_code == 1


def test_score_splits_lines_only_at_newlines(runner, berry_dataset, tmp_path):
    # U+2028 breaks a line for str.splitlines, but not for a text file.
    preds = tmp_path / "preds.txt"
    preds.write_text(ir.serialize_declarations(berry_problem().gold)
                     + "stray\u2028text\n", encoding="utf-8")
    result = runner.invoke(main, ["parse-ir", "--in", str(preds)])
    assert len(json.loads(result.stdout)) == 1
    result = runner.invoke(main, ["score", "--gold", str(berry_dataset),
                                  "--pred", str(preds)])
    assert result.exit_code == 0, result.output
    (example,) = json.loads(result.stdout)["per_example"]
    assert (example["D"], example["FP"], example["FN"]) == (3, 0, 0)
    (diagnostic,) = result.stderr.splitlines()
    assert diagnostic.startswith("berry: ") and "stray text" in diagnostic


def test_a_lone_carriage_return_does_not_split_a_prediction(runner, berry_dataset,
                                                             tmp_path):
    objective, *constraints = berry_problem().gold
    line = ir.serialize_declarations([objective]).replace(
        objective.name + " ", objective.name + "\r")
    line += ir.serialize_declarations(constraints)
    preds = tmp_path / "preds.txt"
    preds.write_bytes((line + "\n").encode("utf-8"))
    result = runner.invoke(main, ["parse-ir", "--in", str(preds)])
    assert result.exit_code == 0, result.output
    (entry,) = json.loads(result.stdout)
    assert entry == {"declarations": [ir.declaration_to_json_dict(d)
                                      for d in berry_problem().gold],
                     "diagnostics": []}
    result = runner.invoke(main, ["score", "--gold", str(berry_dataset),
                                  "--pred", str(preds)])
    assert result.exit_code == 0, result.output
    (example,) = json.loads(result.stdout)["per_example"]
    assert (example["D"], example["FP"], example["FN"]) == (3, 0, 0)
    assert result.stderr == ""


@pytest.fixture
def dataset_without_gold(tmp_path):
    path = tmp_path / "ng.jsonl"
    ingest.save_dataset([ingest.Problem("ng", "x", [], ingest.OrderMapping({"x": 0}))],
                        path)
    return path


@pytest.mark.parametrize("command", ["canonicalize", "score"])
def test_problem_without_gold_exits_one(runner, dataset_without_gold, tmp_path, command):
    args = [command, "--in", str(dataset_without_gold)]
    if command == "score":
        preds = tmp_path / "preds.txt"
        preds.write_text("\n")
        args = [command, "--gold", str(dataset_without_gold), "--pred", str(preds)]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.stderr == "error: problem ng has no gold declarations\n"


def test_score_rejects_a_negative_tolerance(runner, berry_dataset, tmp_path):
    preds = tmp_path / "preds.txt"
    preds.write_text("\n")
    result = runner.invoke(main, ["score", "--gold", str(berry_dataset),
                                  "--pred", str(preds), "--tol", "-1"])
    assert result.exit_code == 1
    assert result.stderr == "error: tolerance must be non-negative\n"


def test_canonicalize(runner, berry_dataset):
    result = runner.invoke(
        main, ["canonicalize", "--in", str(berry_dataset), "--algebraic"]
    )
    assert result.exit_code == 0
    (entry,) = json.loads(result.stdout)
    assert entry["objective"] == ["1", "1"]
    assert entry["constraints"] == [["-50", "-70"], ["-300", "-200"]]
    assert entry["limits"] == ["-3000", "-15000"]
    assert entry["algebraic"].splitlines()[0] == "min farm 1 + farm 2"


def test_parse_ir(runner, tmp_path):
    from lpwp import ir

    path = tmp_path / "irs.txt"
    path.write_text(
        ir.serialize_declarations(berry_problem().gold) + "\n" + "junk\n"
    )
    result = runner.invoke(main, ["parse-ir", "--in", str(path)])
    assert result.exit_code == 0
    first, second = json.loads(result.stdout)
    assert len(first["declarations"]) == 3
    assert first["diagnostics"] == []
    assert second["declarations"] == []


def test_noise_deterministic_output(runner, berry_dataset, tmp_path):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / f"noisy_{name}.jsonl"
        report = tmp_path / f"report_{name}.json"
        result = runner.invoke(main, [
            "noise", "--p", "0.2", "--seed", "7",
            "--in", str(berry_dataset), "--out", str(out),
            "--report", str(report),
        ])
        assert result.exit_code == 0
        outputs.append((out.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1]
    assert set(json.loads(outputs[0][1])) == {
        "true_positives", "false_positives", "false_negatives", "precision",
        "recall", "f1", "n_drop", "n_mislabel", "n_shift", "n_shift_fallback",
    }


def test_noise_does_not_mutate_input(runner, berry_dataset, tmp_path):
    before = berry_dataset.read_bytes()
    runner.invoke(main, [
        "noise", "--p", "0.5", "--seed", "1",
        "--in", str(berry_dataset), "--out", str(tmp_path / "n.jsonl"),
    ])
    assert berry_dataset.read_bytes() == before


def test_ner_f1(runner, berry_dataset, tmp_path):
    result = runner.invoke(main, [
        "ner-f1", "--ref", str(berry_dataset), "--hyp", str(berry_dataset),
    ])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["f1"] == 1.0


def test_solve(runner, tmp_path):
    payload = {
        "n_vars": 2,
        "objective": ["1", "1"],
        "constraints": [["-50", "-70"], ["-300", "-200"]],
        "limits": ["-3000", "-15000"],
    }
    path = tmp_path / "form.json"
    path.write_text(json.dumps(payload))
    result = runner.invoke(main, ["solve", "--in", str(path)])
    assert result.exit_code == 0
    solution = json.loads(result.stdout)
    assert solution["status"] == "optimal"
    assert abs(solution["objective_value"] - 600 / 11) < 1e-6


def test_solve_accepts_number_literals(runner, tmp_path):
    payload = {
        "n_vars": 1,
        "objective": [1e-05],
        "constraints": [[-1]],
        "limits": [-2.5],
    }
    path = tmp_path / "form.json"
    path.write_text(json.dumps(payload))
    result = runner.invoke(main, ["solve", "--in", str(path)])
    assert result.exit_code == 0, result.output
    solution = json.loads(result.stdout)
    assert solution["status"] == "optimal"
    assert solution["x"] == [2.5]


@pytest.mark.parametrize("payload", [
    [1, 2],
    {"n_vars": 1, "objective": 5, "constraints": [], "limits": []},
    {"n_vars": 1, "objective": [1], "constraints": {"0": [1]}, "limits": [1]},
    {"n_vars": 1, "objective": [1], "constraints": [5], "limits": [1]},
    {"n_vars": 1, "objective": [1], "constraints": [[1]], "limits": 1},
])
def test_solve_rejects_malformed_formulation_json(runner, tmp_path, payload):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(payload))
    result = runner.invoke(main, ["solve", "--in", str(path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert "error: formulation JSON" in result.output


@pytest.mark.parametrize("eps", ["-1", "nan"])
def test_solve_rejects_bad_eps(runner, tmp_path, eps):
    payload = {
        "n_vars": 2,
        "objective": ["1", "1"],
        "constraints": [["-50", "-70"], ["-300", "-200"]],
        "limits": ["-3000", "-15000"],
    }
    path = tmp_path / "form.json"
    path.write_text(json.dumps(payload))
    result = runner.invoke(main, ["solve", "--in", str(path), "--eps", eps])
    assert result.exit_code == 1
    assert "error: eps must be finite and non-negative" in result.output


def test_solve_past_the_pivot_ceiling_exits_one(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(solver, "PIVOTS_PER_LINE", 0)
    path = tmp_path / "form.json"
    path.write_text(json.dumps({
        "n_vars": 2, "objective": ["-1", "-1"],
        "constraints": [["1", "2"], ["3", "1"]], "limits": ["4", "6"],
    }))
    result = runner.invoke(main, ["solve", "--in", str(path)])
    assert result.exit_code == 1
    assert "error: simplex needed more than 0 pivots on a 2x5 tableau" in result.output


def test_validation_error_exits_one(runner, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    result = runner.invoke(main, ["canonicalize", "--in", str(bad)])
    assert result.exit_code == 1


def test_usage_error_exits_two(runner):
    result = runner.invoke(main, ["no-such-command"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["score", "--bogus-flag", "x"])
    assert result.exit_code == 2


def test_cli_matches_library(runner, berry_dataset):
    from lpwp import augment as augment_mod
    from lpwp import ir

    problem = berry_problem()
    expected = (
        augment_mod.augment_text(problem.text, problem.spans)
        + "\t"
        + ir.serialize_declarations(problem.gold)
    )
    result = runner.invoke(main, ["augment", "--in", str(berry_dataset)])
    assert result.output.rstrip("\n") == expected


@pytest.mark.parametrize("n_vars", [None, 1.9, -1, True, "1"])
def test_solve_rejects_n_vars_that_is_not_a_count(runner, tmp_path, n_vars):
    payload = {"n_vars": n_vars, "objective": [1], "constraints": [[1]],
               "limits": [1]}
    path = tmp_path / "form.json"
    path.write_text(json.dumps(payload))
    result = runner.invoke(main, ["solve", "--in", str(path)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert "error: formulation JSON n_vars" in result.output


def test_score_tolerance_is_read_exactly(runner, berry_dataset, tmp_path):
    # Gold limit 3000 against a predicted 3000.3: within a tolerance of
    # exactly 0.3, but not of the float nearest to it.
    gold = berry_problem().gold
    first = gold[1]
    moved = ir.constraint(first.direction_text, first.operator, Fraction("3000.3"),
                          first.terms)
    preds = tmp_path / "preds.txt"
    preds.write_text(ir.serialize_declarations([gold[0], moved, gold[2]]) + "\n")
    args = ["score", "--gold", str(berry_dataset), "--pred", str(preds)]
    result = runner.invoke(main, args + ["--tol", "0.3"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["accuracy"] == 1.0
    result = runner.invoke(main, args + ["--tol", "0.2999"])
    assert json.loads(result.stdout)["accuracy"] == 1 - 2 / 3


@pytest.mark.parametrize("tol, errors", [("0.25", 0), ("0.2499999999", 1)])
def test_score_tolerance_boundary(runner, berry_dataset, tmp_path, tol, errors):
    # Gold limit 3000 against a predicted 3000.25: a difference of exactly
    # the tolerance matches, one a hair above it does not.
    gold = berry_problem().gold
    first = gold[1]
    moved = ir.constraint(first.direction_text, first.operator,
                          Fraction("3000.25"), first.terms)
    preds = tmp_path / "preds.txt"
    preds.write_text(ir.serialize_declarations([gold[0], moved, gold[2]]) + "\n")
    result = runner.invoke(main, ["score", "--gold", str(berry_dataset),
                                  "--pred", str(preds), "--tol", tol])
    assert result.exit_code == 0, result.output
    (example,) = json.loads(result.stdout)["per_example"]
    assert (example["D"], example["FP"], example["FN"]) == (3, errors, errors)


@pytest.mark.parametrize("tol", ["abc", "1/3", " 3"])
def test_score_rejects_a_tolerance_that_is_not_a_number(runner, berry_dataset, tol):
    result = runner.invoke(main, ["score", "--gold", str(berry_dataset),
                                  "--pred", str(berry_dataset), "--tol", tol])
    assert result.exit_code == 2


def berry_line(**changes):
    return json.dumps(dict(ingest.problem_to_record(berry_problem()), **changes))


def invoke_on_line(runner, tmp_path, command, line):
    path = tmp_path / "d.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    return runner.invoke(main, [command, "--in", str(path)])


@pytest.mark.parametrize("command", ["canonicalize", "augment"])
@pytest.mark.parametrize("changes", [
    {"spans": [{"start": "0", "end": 5, "label": "PARAM"}]},
    {"spans": [{"start": 0.0, "end": 5, "label": "PARAM"}]},
    {"text": 5},
    {"gold": [dict(ingest.declarations_to_gold(berry_problem().gold)[0],
                   direction=5)]},
    {"gold": [dict(ingest.declarations_to_gold(berry_problem().gold)[0], name=7)]},
], ids=["start_string", "start_float", "text_int", "direction_int", "name_int"])
def test_wrong_field_types_exit_one_without_traceback(runner, tmp_path, command,
                                                       changes):
    result = invoke_on_line(runner, tmp_path, command, berry_line(**changes))
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.output.startswith("error: [line 1, field ")


def test_noise_rejects_a_lone_surrogate_without_writing(runner, tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(berry_line(text="x\ud800", spans=[]) + "\n", encoding="utf-8")
    out = tmp_path / "noisy.jsonl"
    result = runner.invoke(main, ["noise", "--p", "0.5", "--seed", "1",
                                  "--in", str(path), "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.output.startswith("error: [line 1, field text]")
    assert not out.exists()


def test_canonicalize_keeps_every_digit_of_a_literal(runner, tmp_path):
    line = berry_line().replace('"limit": "3000"', '"limit": 12345678901234567.5')
    result = invoke_on_line(runner, tmp_path, "canonicalize", line)
    assert result.exit_code == 0, result.output
    (entry,) = json.loads(result.stdout)
    assert entry["limits"][0] == "-12345678901234567.5"


def test_cli_sample_of_type_mutations_never_shows_a_traceback(runner, tmp_path):
    record = ingest.problem_to_record(berry_problem())
    paths = list(json_paths(record))
    for k, path in enumerate(paths[::3]):
        value = MUTANT_VALUES[k % len(MUTANT_VALUES)]
        line = json.dumps(replace_at(record, path, value))
        for command in ("canonicalize", "augment"):
            result = invoke_on_line(runner, tmp_path, command, line)
            assert result.exit_code in (0, 1), (path, value, result.output)
            assert result.exception is None or isinstance(
                result.exception, SystemExit), (path, value, result.exception)


# One prediction line per problem: a duplicate variable and stray tokens,
# then an unterminated declaration and stray tail text. The outputs and
# diagnostics below are pinned byte for byte.
def _faulty_prediction_lines():
    objective, first, second = (ir.serialize_declarations([g])
                                for g in berry_problem().gold)
    return [
        objective.replace("</DECLARATION>", "<VAR> farm 2 </VAR> [TIMES] "
                          "<PARAM> 0 </PARAM></DECLARATION>")
        + " </LIMIT> [is] " + first + second,
        second + " <DECLARATION><CONST_DIR> at least </CONST_DIR>"
        "<OPERATOR> GREATER_OR_EQUAL and more",
    ]


FAULTY_PREDICTION_DIAGNOSTICS = [
    [
        "char 181: duplicate variable 'farm 2', coefficients summed",
        "char 242: stray token '</LIMIT>'",
        "char 251: stray token '[is]'",
    ],
    [
        "char 306: unterminated declaration (unterminated <OPERATOR>)",
        "char 280: stray text 'GREATER_OR_EQUAL and more'",
    ],
]


@pytest.fixture
def faulty_predictions(tmp_path):
    preds = tmp_path / "preds.txt"
    preds.write_text("\n".join(_faulty_prediction_lines()) + "\n", encoding="utf-8")
    return preds


def test_score_output_and_diagnostics_are_pinned(runner, tmp_path, faulty_predictions):
    gold = tmp_path / "gold.jsonl"
    problem = berry_problem()
    ingest.save_dataset([problem, dataclasses.replace(problem, id="berry 2")], gold)
    result = runner.invoke(main, ["score", "--gold", str(gold),
                                  "--pred", str(faulty_predictions)])
    assert result.exit_code == 0
    assert result.stdout == json.dumps({
        "accuracy": 0.6666666666666667,
        "n_examples": 2,
        "per_example": [
            {"D": 3, "FN": 0, "FP": 0, "id": "berry"},
            {"D": 3, "FN": 2, "FP": 0, "id": "berry 2"},
        ],
    }, indent=2) + "\n"
    assert result.stderr == "".join(
        f"{pid}: {diagnostic}\n"
        for pid, diagnostics in zip(["berry", "berry 2"], FAULTY_PREDICTION_DIAGNOSTICS)
        for diagnostic in diagnostics
    )


def test_parse_ir_output_and_diagnostics_are_pinned(runner, faulty_predictions):
    objective, first, second = (ir.declaration_to_json_dict(g)
                                for g in berry_problem().gold)
    result = runner.invoke(main, ["parse-ir", "--in", str(faulty_predictions)])
    assert result.exit_code == 0
    assert result.stdout == json.dumps([
        {"declarations": [objective, first, second],
         "diagnostics": FAULTY_PREDICTION_DIAGNOSTICS[0]},
        {"declarations": [second], "diagnostics": FAULTY_PREDICTION_DIAGNOSTICS[1]},
    ], indent=2, sort_keys=True) + "\n"
    assert result.stderr == ""
    result = runner.invoke(main, ["parse-ir", "--mode", "strict",
                                  "--in", str(faulty_predictions)])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"error: {FAULTY_PREDICTION_DIAGNOSTICS[0][1]}\n"



def test_crlf_files_read_as_lf_files(runner, tmp_path, faulty_predictions):
    # The second prediction line ends inside a declaration, so its
    # diagnostic's position would move if the "\r" stayed on the line.
    gold = tmp_path / "gold.jsonl"
    problem = berry_problem()
    ingest.save_dataset([problem, dataclasses.replace(problem, id="berry 2")], gold)
    lf = {"gold": gold, "pred": faulty_predictions}
    crlf = {name: tmp_path / f"crlf-{path.name}" for name, path in lf.items()}
    for name, path in lf.items():
        crlf[name].write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))

    def run(paths):
        gold, pred = str(paths["gold"]), str(paths["pred"])
        return [(r.exit_code, r.stdout, r.stderr) for r in (
            runner.invoke(main, ["parse-ir", "--in", pred]),
            runner.invoke(main, ["parse-ir", "--mode", "strict", "--in", pred]),
            runner.invoke(main, ["score", "--gold", gold, "--pred", pred]),
        )]
    assert run(crlf) == run(lf)
