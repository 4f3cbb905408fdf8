"""Walk one manifold through degeneration, step by step.

Prints the entry's dimension and holonomy order, then the limit label of
the collapse along each invariant direction of a chosen catalog entry
(default: the Hantzsche-Wendt manifold G6), then the labels of one
iterated collapse chain down to a point, collapsing the first direction
at each step.

    python3 scripts/collapse_flow.py [KEY]
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from flatorb.catalog import catalog_get
from flatorb.collapse import collapse, invariant_directions
from flatorb.groups import FlatOrbError


def main() -> int:
    key = sys.argv[1] if len(sys.argv) > 1 else "G6"
    try:
        grp = catalog_get(key).group
    except FlatOrbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{key}: dim {grp.n}, holonomy order {grp.holonomy().order}")
    for name, basis in invariant_directions(grp):
        res = collapse(grp, basis)
        print(f"  {name:16s} -> {res.label.orbifold_name}")

    print("\niterated chain:")
    current = grp
    label = key
    while current.n > 0:
        name, basis = invariant_directions(current)[0]
        res = collapse(current, basis)
        print(f"  {label} --[{name}]--> {res.label.orbifold_name}")
        current = res.quotient
        label = res.label.orbifold_name
    return 0


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
