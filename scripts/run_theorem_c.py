"""Run the collapsed-limit survey over the ten closed flat 3-manifolds.

Prints every (group, direction, label) row, the resulting label set, and
the comparison against the classical 13-label table.

    python3 scripts/run_theorem_c.py
"""

import os
import sys
import time
from collections import OrderedDict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from flatorb.collapse import verify_theorem_c


def main():
    t0 = time.time()
    report = verify_theorem_c()
    dt = time.time() - t0

    by_group: "OrderedDict[str, list]" = OrderedDict()
    for group, direction, label in report.collapses:
        by_group.setdefault(group, []).append((direction, label))

    for group, rows in by_group.items():
        print(f"{group}:")
        for direction, label in rows:
            print(f"    {direction:18s} -> {label}")
    print()
    print(f"{len(report.collapses)} collapses in {dt:.1f}s")
    print(f"distinct limit labels ({len(report.label_set)}):")
    for label in sorted(report.label_set):
        print(f"    {label}")
    if report.matches_claim:
        print("label set matches the classical table exactly")
    else:
        print("label set differs from the classical table:")
        for label in sorted(report.extra):
            print(f"    computed {label} (rotation quotients of a torus are closed, boundaryless)")
        for label in sorted(report.missing):
            print(f"    the table lists {label} instead")


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout went away early (``| head``): end as the CLI
        # does, with stdout on os.devnull, exit code 1 and no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
