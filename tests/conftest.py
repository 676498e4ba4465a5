"""Fixtures that apply to every test."""

import pytest

from lpwp import solver

# Pivots allowed in one simplex run: 20 times the most that any count below
# reaches in the tests (117 pivots in one run, 500 direct ``_pivot`` calls
# in one test). A run that cycles fails on it within seconds instead of
# hanging the suite.
PIVOT_CAP = 10_000


@pytest.fixture(autouse=True)
def capped_pivots(monkeypatch):
    """Fails a test whose simplex run makes more than ``PIVOT_CAP`` pivots.

    The count starts at 0 with each test and each ``solver._run_simplex``
    call; the pivots that follow a run, such as those that take a leftover
    artificial variable out of the basis, count toward that run, and a
    test's direct ``solver._pivot`` calls count toward the test.
    """
    count = [0]
    run_simplex, pivot = solver._run_simplex, solver._pivot

    def capped_run_simplex(*args):
        count[0] = 0
        return run_simplex(*args)

    def capped_pivot(*args):
        count[0] += 1
        if count[0] > PIVOT_CAP:
            raise AssertionError(f"more than {PIVOT_CAP} pivots in one simplex run")
        return pivot(*args)

    monkeypatch.setattr(solver, "_run_simplex", capped_run_simplex)
    monkeypatch.setattr(solver, "_pivot", capped_pivot)
