"""Regenerate the JSON catalog under src/flatorb/data.

Every stored expectation is computed with the library itself and printed
for inspection, so the shipped values are frozen outputs of the exact
machinery, never hand-typed guesses.  Run from the repository root:

    python3 scripts/build_catalog.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from flatorb import rational as ra
from flatorb.collapse import collapse, rational_isotypic_components
from flatorb.groups import CrystalGroup, group_to_dict
from flatorb.reps import teich_report
from flatorb.wallpaper import classify2

DATA = Path(__file__).resolve().parents[1] / "src" / "flatorb" / "data"

HEX3 = [[1, 0, 0], [0, 1, "-1/2"], [0, "-1/2", 1]]
HEX2 = [[1, "-1/2"], ["-1/2", 1]]

REFERENCE = "reference presentation"
COMPUTED = "computed"


def build_specs():
    mk = CrystalGroup.make
    specs: dict[str, dict] = {}

    # ---- wallpaper groups --------------------------------------------
    ROT3 = [[0, -1], [1, -1]]
    ROT4 = [[0, -1], [1, 0]]
    ROT6 = [[1, -1], [1, 0]]
    SWAP = [[0, 1], [1, 0]]
    NEG = [[-1, 0], [0, -1]]
    MIRX = [[1, 0], [0, -1]]
    wall = {
        "p1": mk(2, []),
        "p2": mk(2, [(NEG, [0, 0])]),
        "pm": mk(2, [(MIRX, [0, 0])]),
        "pg": mk(2, [(MIRX, ["1/2", 0])]),
        "cm": mk(2, [([[1, 1], [0, -1]], [0, 0])], gram=[[1, "1/2"], ["1/2", "1/2"]]),
        "pmm": mk(2, [(MIRX, [0, 0]), ([[-1, 0], [0, 1]], [0, 0])]),
        "pmg": mk(2, [(NEG, [0, 0]), (MIRX, ["1/2", 0])]),
        "pgg": mk(2, [(NEG, [0, 0]), (MIRX, ["1/2", "1/2"])]),
        "cmm": mk(2, [(NEG, [0, 0]), (SWAP, [0, 0])]),
        "p4": mk(2, [(ROT4, [0, 0])]),
        "p4m": mk(2, [(ROT4, [0, 0]), (SWAP, [0, 0])]),
        "p4g": mk(2, [(ROT4, [0, 0]), (MIRX, ["1/2", "1/2"])]),
        "p3": mk(2, [(ROT3, [0, 0])], gram=HEX2),
        "p3m1": mk(2, [(ROT3, [0, 0]), ([[0, -1], [-1, 0]], [0, 0])], gram=HEX2),
        "p31m": mk(2, [(ROT3, [0, 0]), (SWAP, [0, 0])], gram=HEX2),
        "p6": mk(2, [(ROT6, [0, 0])], gram=HEX2),
        "p6m": mk(2, [(ROT6, [0, 0]), (SWAP, [0, 0])], gram=HEX2),
    }
    for name, grp in wall.items():
        specs[name] = {
            "group": grp,
            "kind": "wallpaper",
            "provenance": {"generators": REFERENCE, "expected": COMPUTED},
        }

    # ---- rectangle-lattice planar quotient presentations (plane series) ---
    appA = {
        "plane-G1": mk(2, [(NEG, [0, 0]), (MIRX, ["1/2", "1/2"])]),
        "plane-G2": mk(2, [(NEG, [0, 0]), (MIRX, ["1/2", 0])]),
        "plane-G3": mk(2, [([[-1, 0], [0, 1]], [0, 0]), ([[-1, 0], [0, 1]], [0, "1/2"])]),
        "plane-G4": mk(2, [(NEG, [0, 0]), ([[1, 0], [0, 1]], ["1/2", "1/2"])]),
        "plane-G5": mk(2, [([[-1, 0], [0, 1]], [0, 0]), ([[-1, 0], [0, 1]], ["1/2", "1/2"])]),
        "plane-G6": mk(2, [([[-1, 0], [0, 1]], [0, 0]), ([[1, 0], [0, 1]], ["1/2", "1/2"])]),
        "plane-G7": mk(2, [([[-1, 0], [0, 1]], [0, "1/2"]), ([[1, 0], [0, 1]], ["1/2", "1/2"])]),
    }
    claimed = {
        "plane-G1": "RP2(2,2;)",
        "plane-G2": "D2(2,2;)",
        "plane-G3": "S1xI",
        "plane-G4": "S2(2,2,2,2;)",
        "plane-G5": "M2",
        "plane-G6": "M2",
        "plane-G7": "K2",
    }
    for name, grp in appA.items():
        specs[name] = {
            "group": grp,
            "kind": "planar-quotient",
            "claimed_orbifold": claimed[name],
            "provenance": {"generators": REFERENCE, "expected": COMPUTED},
        }

    # ---- the ten closed flat 3-manifolds ------------------------------
    A_3 = [[1, 0, 0], [0, 0, -1], [0, 1, -1]]
    A_4 = [[1, 0, 0], [0, 0, -1], [0, 1, 0]]
    A_6 = [[1, 0, 0], [0, 1, -1], [0, 1, 0]]
    D_A = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
    D_B = [[-1, 0, 0], [0, 1, 0], [0, 0, -1]]
    D_E = [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
    B2_E = [[1, 0, 1], [0, 1, 1], [0, 0, -1]]
    B2_GRAM = [[1, 0, "1/2"], [0, 1, "1/2"], ["1/2", "1/2", 1]]
    manifolds = {
        "G1": (mk(3, [], name="G1"), ["G1-torus"], []),
        "G2": (
            mk(3, [(D_A, ["1/2", 0, 0])], name="G2"),
            ["G2-dicosm"],
            [],
        ),
        "G3": (
            mk(3, [(A_3, ["1/3", 0, 0])], gram=HEX3, name="G3"),
            ["G3-tricosm"],
            [],
        ),
        "G4": (
            mk(3, [(A_4, ["1/4", 0, 0])], name="G4"),
            ["G4-tetracosm"],
            [],
        ),
        "G5": (
            mk(3, [(A_6, ["1/6", 0, 0])], gram=HEX3, name="G5"),
            ["G5-hexacosm"],
            [
                "the source presentation attaches the 1/6 translation to the third "
                "lattice vector, which lies in the rotated plane and would create "
                "torsion; this entry uses 1/6 of the fixed-axis vector instead",
            ],
        ),
        "G6": (
            mk(3, [(D_A, ["1/2", "1/2", 0]), (D_B, [0, "1/2", "1/2"])], name="G6"),
            ["G6-hantzsche-wendt", "G6-didicosm"],
            [
                "the half translations here satisfy the composition law and the "
                "fixed-point-free condition; the source's triple (1/2)v1, "
                "(1/2)(v1+v2), (1/2)(v1+v2+v3) does not close up to lattice "
                "translations and is replaced by this standard presentation",
            ],
        ),
        "B1": (
            mk(3, [([[1, 0, 0], [0, -1, 0], [0, 0, 1]], ["1/2", 0, 0])], name="B1"),
            ["B1-klein-x-circle"],
            [],
        ),
        "B2": (
            mk(3, [(B2_E, ["1/2", 0, 0])], gram=B2_GRAM, name="B2"),
            ["B2-first-amphicosm"],
            [
                "gram constraints: g13 = (g11+g12)/2 and g23 = (g12+g22)/2, i.e. "
                "the third lattice vector projects onto the plane of the first two "
                "at their midpoint; this representative fixes g11 = g22 = 1, "
                "g12 = 0, g33 = 1",
            ],
        ),
        "B3": (
            mk(3, [(D_A, ["1/2", 0, 0]), (D_E, [0, "1/2", 0])], name="B3"),
            ["B3-amphicosm"],
            [],
        ),
        "B4": (
            mk(3, [(D_A, ["1/2", 0, 0]), (D_E, [0, "1/2", "1/2"])], name="B4"),
            ["B4-amphicosm"],
            [],
        ),
    }
    claimed_collapse = {
        # classical per-direction labels for the component collapses;
        # recomputed values that disagree are recorded side by side
        "G2": {"W1": "D2(2,2;)", "W2": "circle"},
        "G3": {"W1": "S2(3,3,3;)", "W2": "circle"},
        "G4": {"W1": "D2(4;2)", "W2": "circle"},
        "G5": {"W1": "D2(3;3)", "W2": "circle"},
        "G6": {"W1": "RP2(2,2;)", "W2": "RP2(2,2;)", "W3": "RP2(2,2;)"},
        "B2": {"W1": "interval", "W2": "T2"},
        "B3": {"W1": "D2(2,2;)", "W2": "S1xI", "W3": "K2"},
        "B4": {"W1": "S2(2,2,2,2;)", "W2": "M2", "W3": "K2"},
    }
    for name, (grp, aliases, notes) in manifolds.items():
        specs[name] = {
            "group": grp,
            "kind": "flat3",
            "aliases": aliases,
            "notes": notes,
            "claimed_collapse": claimed_collapse.get(name, {}),
            "provenance": {"generators": REFERENCE, "expected": COMPUTED},
        }

    # ---- tori ----------------------------------------------------------
    for n in range(1, 7):
        specs[f"torus-{n}"] = {
            "group": mk(n, [], name=f"torus-{n}"),
            "kind": "torus",
            "provenance": {"generators": REFERENCE, "expected": COMPUTED},
        }
    specs["circle"] = {"group": mk(1, [], name="circle"), "kind": "low-dim",
                       "provenance": {"generators": REFERENCE, "expected": COMPUTED}}
    specs["interval"] = {"group": mk(1, [([[-1]], [0])], name="interval"), "kind": "low-dim",
                         "provenance": {"generators": REFERENCE, "expected": COMPUTED}}

    # ---- higher-dimensional orbifolds ---------------------------------
    NEG4 = [[-1 if i == j else 0 for j in range(4)] for i in range(4)]
    specs["kummer"] = {
        "group": mk(4, [(NEG4, [0, 0, 0, 0])], name="kummer"),
        "kind": "orbifold",
        "aliases": ["kummer-T4-Z2"],
        "notes": ["quotient of the 4-torus by the antipodal map; 16 singular points"],
        "provenance": {"generators": REFERENCE, "expected": COMPUTED},
        "recipe": {"0": {"order": 2}},
    }
    R = [[0, -1], [1, 0]]
    J1 = ra.zeros(6, 6)
    J1[0][0] = J1[1][1] = Fraction(-1)
    for off in (2, 4):
        for i in range(2):
            for j in range(2):
                J1[off + i][off + j] = Fraction(R[i][j])
    specs["joyce-O1"] = {
        "group": mk(6, [(J1, [0] * 6)], name="joyce-O1"),
        "kind": "orbifold",
        "notes": ["order-4 action: -1 on one complex coordinate, i on the other two"],
        "provenance": {"generators": REFERENCE, "expected": COMPUTED},
        "recipe": {"0": {"order": 4}},
    }
    J2a = [[0] * 6 for _ in range(6)]
    J2b = [[0] * 6 for _ in range(6)]
    for i in range(6):
        J2a[i][i] = 1 if i < 2 else -1
        J2b[i][i] = -1 if (i < 2 or i >= 4) else 1
    specs["joyce-O2"] = {
        "group": mk(6, [(J2a, [0] * 6), (J2b, [0] * 6)], name="joyce-O2"),
        "kind": "orbifold",
        "notes": ["commuting involutions acting by signs on the three complex coordinates"],
        "provenance": {"generators": REFERENCE, "expected": COMPUTED},
        "recipe": {"0": {"order": 2}, "1": {"order": 2}},
    }

    # ---- generalized Klein bottles ------------------------------------
    for p in (2, 3, 5, 7):
        shift = [[1 if i == (j + 1) % p else 0 for j in range(p)] for i in range(p)]
        v = [Fraction(1, p)] + [Fraction(0)] * (p - 1)
        char = [-1] + [0] * (p - 1) + [1]  # x^p - 1
        specs[f"K{p}"] = {
            "group": mk(p, [(shift, v)], name=f"K{p}"),
            "kind": "generalized-klein",
            "recipe": {"0": {"order": p, "char_poly": char}},
            "provenance": {"generators": "derived from the order/char-poly recipe", "expected": COMPUTED},
        }
    return specs


def compute_expected(name, spec):
    grp = spec["group"].normalize()
    expected: dict = {"dimension": grp.n}
    hol = grp.holonomy()
    expected["holonomy_order"] = hol.order
    expected["torsion_free"] = grp.is_torsion_free().torsion_free
    rep = teich_report(grp)
    expected["teich_dim"] = rep.total_dim
    expected["components"] = [
        [c.irreducible_dim, c.multiplicity, c.division_type, c.factor_dim]
        for c in rep.components
    ]
    if grp.n == 2:
        label = classify2(grp)
        expected["classification"] = label.iuc
        expected["orbifold"] = label.orbifold_name
    if spec["kind"] == "flat3":
        comps = rational_isotypic_components(grp)
        table = {}
        for idx, piece in enumerate(comps, start=1):
            res = collapse(grp, piece)
            table[f"W{idx}"] = res.label.orbifold_name
        expected["collapse"] = table
        if grp.n == 3:
            expected["betti1"] = grp.betti(1)
    return expected


def main():
    DATA.mkdir(parents=True, exist_ok=True)
    specs = build_specs()
    index = {"entries": {}, "aliases": {}}
    for name, spec in sorted(specs.items()):
        grp = spec["group"]
        grp.validate()
        expected = compute_expected(name, spec)
        notes = list(spec.get("notes", []))
        claimed = spec.get("claimed_collapse")
        if claimed:
            diffs = {
                k: (claimed[k], expected["collapse"].get(k))
                for k in claimed
                if claimed[k] != expected["collapse"].get(k)
            }
            expected["claimed_collapse"] = claimed
            if diffs:
                notes.append(
                    "computed collapse labels differ from the classical table: "
                    + "; ".join(f"{k}: table {a!r} vs computed {b!r}" for k, (a, b) in sorted(diffs.items()))
                )
        if "claimed_orbifold" in spec:
            expected["claimed_orbifold"] = spec["claimed_orbifold"]
            if spec["claimed_orbifold"] != expected.get("orbifold"):
                notes.append(
                    f"computed orbifold {expected.get('orbifold')!r} differs from the "
                    f"classical identification {spec['claimed_orbifold']!r}"
                )
        fname = f"{name}.json"
        doc = group_to_dict(grp)
        doc["name"] = name
        with open(DATA / fname, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        entry = {
            "file": fname,
            "kind": spec["kind"],
            "expected": expected,
            "provenance": spec["provenance"],
        }
        if notes:
            entry["notes"] = notes
        if spec.get("aliases"):
            entry["aliases"] = spec["aliases"]
            for a in spec["aliases"]:
                index["aliases"][a] = name
        if spec.get("recipe"):
            entry["recipe"] = spec["recipe"]
        index["entries"][name] = entry
        print(f"{name:12s} dim {expected['dimension']}  |H|={expected['holonomy_order']:3d}  "
              f"tf={str(expected['torsion_free'])[0]}  teich={expected['teich_dim']:2d}  "
              f"{expected.get('orbifold', '')} {expected.get('collapse', '')}")
    with open(DATA / "index.json", "w", encoding="utf-8") as fh:
        json.dump(index, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {len(specs)} entries to {DATA}")


if __name__ == "__main__":
    main()
