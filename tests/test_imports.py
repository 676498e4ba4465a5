"""Only the solver imports numpy.

Each check runs in a fresh interpreter, as the test process has numpy
loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from lpwp import ingest, ir

from helpers import berry_problem

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports lpwp from ``SRC``;
    return its stdout lines."""
    result = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), check=False)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


@pytest.mark.parametrize("module", ["lpwp", "lpwp.cli"])
def test_import_leaves_numpy_unloaded(module):
    code = f"import sys, {module}; print('numpy' in sys.modules)"
    assert run_python(code) == ["False"]


@pytest.fixture
def inputs(tmp_path):
    problem = berry_problem()
    ingest.save_dataset([problem], tmp_path / "d.jsonl")
    (tmp_path / "d.ir").write_text(ir.serialize_declarations(problem.gold) + "\n")
    (tmp_path / "f.json").write_text(
        '{"n_vars": 1, "objective": ["-1"], "constraints": [["1"]], "limits": ["4"]}')
    return tmp_path


# Each command on a one-problem input in the directory ``{d}``, and whether
# it needs numpy.
COMMANDS = {
    "augment": ("--in {d}/d.jsonl", False),
    "parse-ir": ("--in {d}/d.ir", False),
    "canonicalize": ("--in {d}/d.jsonl --algebraic", False),
    "score": ("--gold {d}/d.jsonl --pred {d}/d.ir", False),
    "noise": ("--p 0.5 --seed 1 --in {d}/d.jsonl --out {d}/n.jsonl", False),
    "ner-f1": ("--ref {d}/d.jsonl --hyp {d}/d.jsonl", False),
    "solve": ("--in {d}/f.json", True),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_only_solve_imports_numpy(inputs, command):
    args, needs_numpy = COMMANDS[command]
    code = ("import sys\n"
            "from lpwp.cli import main\n"
            "main(sys.argv[1:], standalone_mode=False)\n"
            "print('numpy' in sys.modules)")
    lines = run_python(code, command, *[a.format(d=inputs) for a in args.split()])
    assert lines[-1] == str(needs_numpy)


# Ways to reach the solver's names first: each must find the solver's own
# objects, whichever comes first.
FIRST_LOOKUPS = {
    "attribute": "solve_lp, LpSolution = lpwp.solve_lp, lpwp.LpSolution",
    "from_import": "from lpwp import solve_lp, LpSolution, solver",
    "star_import": "from lpwp import *",
}


@pytest.mark.parametrize("lookup", FIRST_LOOKUPS)
def test_solver_names_resolve_to_the_solver_module(lookup):
    code = (
        "import sys, lpwp\n"
        f"{FIRST_LOOKUPS[lookup]}\n"
        "solver = sys.modules['lpwp.solver']\n"
        "assert solve_lp is lpwp.solve_lp is solver.solve_lp\n"
        "assert LpSolution is lpwp.LpSolution is solver.LpSolution\n"
        "assert lpwp.solver is solver\n"
        "print('ok')")
    assert run_python(code) == ["ok"]


def test_dir_lists_the_solver_names_before_they_load():
    code = ("import sys, lpwp\n"
            "print(sorted({'LpSolution', 'solve_lp', 'solver'} & set(dir(lpwp))))\n"
            "print('numpy' in sys.modules)")
    assert run_python(code) == ["['LpSolution', 'solve_lp', 'solver']", "False"]


def test_an_unknown_name_still_raises_attribute_error():
    code = ("import sys, lpwp\n"
            "try:\n"
            "    lpwp.no_such_name\n"
            "except AttributeError as err:\n"
            "    print(err)\n"
            "print('numpy' in sys.modules)")
    assert run_python(code) == ["module 'lpwp' has no attribute 'no_such_name'",
                                "False"]
