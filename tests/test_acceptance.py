"""Acceptance gate: one test per headline criterion, via the repro battery.

Each check runs through `run_battery`, which enforces its wall-clock budget
and turns a crash into a failed check, as `egeo repro` does.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line
per criterion; `egeo repro` prints the same table.
"""

import pytest

from egeo.repro import CHECKS, DEFAULT_SEED, run_battery


@pytest.mark.parametrize("name", [name for name, _ in CHECKS])
def test_acceptance(name):
    (result,) = run_battery(DEFAULT_SEED, names=[name])
    print(f"{'PASS' if result.passed else 'FAIL'}  {name}: {result.detail}")
    assert result.passed, f"{name}: {result.detail}"
