"""Write the golden snapshots of the fixed-input ops.

    python3 perfbench/make_golden.py

Runs every fixed op of ``catalog-verbs`` and ``collapse-survey`` through the
CLI of the checkout's ``src/`` and stores its ``--json`` output in
``perfbench/golden/<workload>.json``.  The snapshots define the expected
outputs, so regenerate them only from a commit whose outputs are known to be
right, and review the diff.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import git_sha  # noqa: E402
from workloads import GOLDEN_DIR, THREE_MANIFOLDS, subspace_arg  # noqa: E402
from worker import import_flatorb, run_cli  # noqa: E402


def catalog_verbs_argvs(flatorb) -> dict[str, list[str]]:
    ops = {}
    for key in flatorb.catalog_list():
        ops[f"analyze:{key}"] = ["analyze", "--catalog", key, "--json"]
        ops[f"teich:{key}"] = ["teich", "--catalog", key, "--json"]
        ops[f"catalog:{key}"] = ["catalog", key, "--json"]
        if flatorb.catalog_get(key).group.n == 2:
            ops[f"classify2:{key}"] = ["classify2", "--catalog", key, "--json"]
    return ops


def collapse_survey_argvs(flatorb) -> dict[str, list[str]]:
    from flatorb.collapse import invariant_directions

    ops = {}
    for key in THREE_MANIFOLDS:
        for name, basis in invariant_directions(flatorb.catalog_get(key).group):
            ops[f"collapse:{key}:{name}"] = ["collapse", "--catalog", key, "--subspace=" + subspace_arg(basis), "--json"]
    ops["verify-theorem-c"] = ["verify-theorem-c", "--json"]
    return ops


def main() -> int:
    flatorb = import_flatorb(ROOT)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for workload, argvs in (
        ("catalog-verbs", catalog_verbs_argvs(flatorb)),
        ("collapse-survey", collapse_survey_argvs(flatorb)),
    ):
        doc = {
            "workload": workload,
            "taken_at": git_sha(ROOT),
            "ops": {op_id: {"argv": argv, "output": run_cli(argv)} for op_id, argv in argvs.items()},
        }
        path = GOLDEN_DIR / f"{workload}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{path}: {len(argvs)} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
