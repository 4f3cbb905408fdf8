"""The fixed collapse-survey ops of the benchmark reproduce their snapshot.

``perfbench/golden/collapse-survey.json`` holds the 177 survey collapses of
the ten flat 3-manifolds and ``verify-theorem-c --json``.  Each op runs
through the CLI and its parsed output must equal the stored one, so the
quotient bases (which decide the survey's dedupe) and every label stay
fixed.  The file is only read here.
"""

import json
from pathlib import Path

import pytest

from flatorb.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "collapse-survey.json"
OPS = json.loads(GOLDEN.read_text(encoding="utf-8"))["ops"]


@pytest.mark.parametrize("op_id", sorted(OPS))
def test_collapse_survey_op_matches_golden(capsys, op_id):
    entry = OPS[op_id]
    assert main(entry["argv"]) == 0
    assert json.loads(capsys.readouterr().out) == entry["output"]
