"""Command-line entry point.

Every subcommand is a thin adapter over the library API: structured output
(JSON, or TSV for ``augment``) goes to stdout, diagnostics to stderr.
Exit codes: 0 success, 1 validation error, 2 usage error.
"""

import functools
import json
import re
import sys

import click

from . import augment as augment_mod
from . import canonical, ingest, ir, metrics, noise
from .errors import ToolkitError, ValidationError
from .numbers import decode_json, parse_number


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _toolkit_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ToolkitError, OSError, ValueError) as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(1)

    return wrapper


# Characters that would end a TSV field or row early.
_ROW_BREAK_RE = re.compile(r"[\t\n\r]")


def _read_lines(path):
    """The lines of a UTF-8 text file, without their "\n" or "\r\n" ends.

    A lone "\r" is text, not a line break, so that model output holding
    one stays on its line.
    """
    with open(path, encoding="utf-8", newline="\n") as fh:
        return [line[:-2] if line.endswith("\r\n") else line.removesuffix("\n")
                for line in fh]


def _write_output(text, output_path):
    if output_path is None:
        click.echo(text)
    else:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


@click.group()
def main():
    """Toolkit for converting LP word problems to mathematical formulations."""


@main.command("augment")
@click.option("--in", "input_path", required=True, type=click.Path(exists=True))
@click.option("--out", "output_path", default=None, type=click.Path())
@_toolkit_errors
def augment_cmd(input_path, output_path):
    """Emit seq2seq training rows: augmented text TAB target IR string."""
    problems = ingest.load_dataset(input_path)
    rows = []
    for problem in problems:
        source = augment_mod.augment_text(problem.text, problem.spans)
        target = ir.serialize_declarations(problem.gold or [])
        for field, part in (("text", source), ("gold", target)):
            if _ROW_BREAK_RE.search(part):
                raise ValidationError(
                    f"problem {problem.id!r}: a tab or line break would split "
                    "its row", field=field)
        # strip_tags would read such a run as a tag, so the row could not
        # be stripped back to its text and spans.
        tag = "<" in problem.text and augment_mod._TAG_RE.search(problem.text)
        if tag:
            raise ValidationError(
                f"problem {problem.id!r}: tag-like run {tag.group()!r} at "
                f"position {tag.start()}", field="text")
        rows.append(f"{source}\t{target}")
    _write_output("\n".join(rows), output_path)


@main.command("parse-ir")
@click.option("--in", "input_path", required=True, type=click.Path(exists=True))
@click.option("--mode", type=click.Choice(["strict", "lenient"]),
              default="lenient", show_default=True)
@_toolkit_errors
def parse_ir_cmd(input_path, mode):
    """Parse a file of IR strings (one per line) into declaration JSON.

    Lines end at "\n" or "\r\n" only; a lone "\r" is part of its line.
    """
    results = []
    for line in _read_lines(input_path):
        decls, diagnostics = ir.parse_declarations(line, mode)
        results.append({
            "declarations": [ir.declaration_to_json_dict(d) for d in decls],
            "diagnostics": diagnostics,
        })
    click.echo(_dump_json(results))


@main.command("canonicalize")
@click.option("--in", "input_path", required=True, type=click.Path(exists=True))
@click.option("--algebraic", is_flag=True,
              help="Also render the algebraic form as plain text.")
@_toolkit_errors
def canonicalize_cmd(input_path, algebraic):
    """Print c, A, b for every problem's gold declarations as JSON."""
    results = []
    for problem in ingest.load_dataset(input_path):
        if problem.gold is None:
            raise ToolkitError(f"problem {problem.id} has no gold declarations")
        formulation = canonical.canonicalize(problem.gold, problem.order_mapping)
        entry = {"id": problem.id, **formulation.as_json_dict()}
        if algebraic:
            entry["algebraic"] = canonical.render_algebraic(
                problem.gold, problem.order_mapping
            )
        results.append(entry)
    click.echo(_dump_json(results))


@main.command("score")
@click.option("--gold", "gold_path", required=True, type=click.Path(exists=True))
@click.option("--pred", "pred_path", required=True, type=click.Path(exists=True))
@click.option("--tol", type=parse_number, default="1e-9", show_default=True,
              metavar="NUMBER")
@_toolkit_errors
def score_cmd(gold_path, pred_path, tol):
    """Score a line-aligned predictions file against a gold dataset.

    The predictions file holds one IR string per line, aligned by line
    number with the dataset; unparseable declarations are dropped with a
    stderr diagnostic and count as absent. Lines end at "\n" or "\r\n"
    only; a lone "\r" is part of its line.
    """
    problems = ingest.load_dataset(gold_path)
    lines = _read_lines(pred_path)
    if len(lines) != len(problems):
        raise ToolkitError(
            f"{len(lines)} prediction lines for {len(problems)} problems"
        )
    gold, pred, mappings = {}, {}, {}
    for problem, line in zip(problems, lines):
        if problem.gold is None:
            raise ToolkitError(f"problem {problem.id} has no gold declarations")
        decls, diagnostics = ir.parse_declarations(line, "lenient")
        for diag in diagnostics:
            click.echo(f"{problem.id}: {diag}", err=True)
        gold[problem.id] = problem.gold
        pred[problem.id] = decls
        mappings[problem.id] = problem.order_mapping
    report = metrics.score_accuracy(gold, pred, mappings, tol)
    click.echo(_dump_json(report.as_json_dict()))


@main.command("noise")
@click.option("--p", required=True, type=float)
@click.option("--seed", required=True, type=int)
@click.option("--shift-max", type=int, default=3, show_default=True)
@click.option("--in", "input_path", required=True, type=click.Path(exists=True))
@click.option("--out", "output_path", required=True, type=click.Path())
@click.option("--report", "report_path", default=None, type=click.Path())
@_toolkit_errors
def noise_cmd(p, seed, shift_max, input_path, output_path, report_path):
    """Write a deterministically corrupted copy of a dataset."""
    problems = ingest.load_dataset(input_path)
    cfg = noise.NoiseConfig(p=p, seed=seed, shift_max=shift_max)
    noisy, report = noise.corrupt_spans(problems, cfg)
    ingest.save_dataset(noisy, output_path)
    report_json = _dump_json(report.as_json_dict())
    if report_path is not None:
        _write_output(report_json, report_path)
    else:
        click.echo(report_json)


@main.command("ner-f1")
@click.option("--ref", "ref_path", required=True, type=click.Path(exists=True))
@click.option("--hyp", "hyp_path", required=True, type=click.Path(exists=True))
@_toolkit_errors
def ner_f1_cmd(ref_path, hyp_path):
    """Micro-averaged span F1 between two datasets' entity spans."""
    reference = {p.id: p.spans for p in ingest.load_dataset(ref_path)}
    hypothesis = {p.id: p.spans for p in ingest.load_dataset(hyp_path)}
    report = metrics.micro_f1(reference, hypothesis)
    click.echo(_dump_json(report.as_json_dict()))


@main.command("solve")
@click.option("--in", "input_path", required=True, type=click.Path(exists=True))
@click.option("--eps", type=float, default=canonical.DEFAULT_EPS, show_default=True)
@_toolkit_errors
def solve_cmd(input_path, eps):
    """Solve a canonical formulation JSON and print the solution JSON."""
    from . import solver  # imports numpy, which no other command needs

    with open(input_path, encoding="utf-8") as fh:
        data = decode_json(fh.read())
    formulation = solver.formulation_from_json_dict(data)
    solution = solver.solve_lp(formulation, eps)
    click.echo(_dump_json(solution.as_json_dict()))


if __name__ == "__main__":
    main()
