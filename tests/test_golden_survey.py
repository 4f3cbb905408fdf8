"""The fixed ops of the benchmark reproduce their snapshots.

``perfbench/golden/collapse-survey.json`` holds the 177 survey collapses of
the ten flat 3-manifolds and ``verify-theorem-c --json``;
``perfbench/golden/catalog-verbs.json`` holds ``analyze``, ``teich``,
``catalog`` and ``classify2`` over every catalog entry.  Each op runs
through the CLI and its parsed output must equal the stored one, so the
quotient bases (which decide the survey's dedupe), the Betti numbers, the
deformation-space decompositions and every label stay fixed.  The files are
only read here.
"""

import json
from pathlib import Path

import pytest

from flatorb.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
OPS = {
    workload: json.loads((GOLDEN / f"{workload}.json").read_text(encoding="utf-8"))["ops"]
    for workload in ("collapse-survey", "catalog-verbs")
}


def _check(capsys, entry):
    assert main(entry["argv"]) == 0
    assert json.loads(capsys.readouterr().out) == entry["output"]


@pytest.mark.parametrize("op_id", sorted(OPS["collapse-survey"]))
def test_collapse_survey_op_matches_golden(capsys, op_id):
    _check(capsys, OPS["collapse-survey"][op_id])


@pytest.mark.parametrize("op_id", sorted(OPS["catalog-verbs"]))
def test_catalog_verbs_op_matches_golden(capsys, op_id):
    _check(capsys, OPS["catalog-verbs"][op_id])
