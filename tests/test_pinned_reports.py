"""Full stdout of integer- and boolean-valued reports, pinned byte for byte.

tests/pinned_reports.json holds argv, exit code and stdout per report, and
for a report on a state, the contents of the state file that argv names. The
only floating-point values the reports hold are those echoed input
coefficients, so they do not depend on the machine.
"""

import json
from pathlib import Path

import pytest

from egeo.cli import run

PINNED = json.loads((Path(__file__).parent / "pinned_reports.json").read_text())


@pytest.mark.parametrize("case", PINNED, ids=lambda case: " ".join(case["argv"]))
def test_report_is_byte_identical_to_pinned(capsys, tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    if "state" in case:
        Path(case["argv"][-1]).write_text(json.dumps(case["state"]))
    code = run(case["argv"])
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["code"]
