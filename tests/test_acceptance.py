"""Acceptance suite: one test per criterion, one printed line per criterion.

Reference values for deformation dimensions, plane-group classification,
lattice constants, covering radii, sequence limits, and the collapsed-limit
survey.  Criteria 3 and 4 check the proven labels.  Seven entries of the
classical table (the `plane-G7` identification, four collapse labels and two
members of the 13-label set) name orbifolds that the stored groups cannot
give: `plane-G7` contains a reflection, so it is no closed surface, and the
point group of a collapsed limit is the image of the holonomy restricted to
the complement of the collapsed subspace, which the four labels (and the two
set members, for any direction) cannot have.  `ERRATA` keeps each
classical value beside the computed one with a one-line reason;
tests/test_disputed_labels.py proves each row without going through
collapse() or classify2().  The program's own record of the classical table
(collapse.CLAIMED_3MFD_LIMIT_LABELS, the catalog's claimed_* fields) is
unchanged, and criteria 3 and 4 check that it differs from the proven labels
in exactly the errata.  See README, "Known label disagreements".
"""

import math
import random
import time

import numpy as np
import pytest

from flatorb import rational as ra
from flatorb.catalog import catalog_get, catalog_list
from flatorb.collapse import collapse, product_resolution, rational_isotypic_components, verify_theorem_c
from flatorb.groups import AffineElement
from flatorb.lattices import (
    Lattice,
    beta_n,
    check_diameter_bound,
    covering_radius,
    sequence_limit,
    special_basis,
    theta_n,
)
from flatorb.reps import isotypic_decompose, teich_report
from flatorb.wallpaper import classify2

import reference_algebra as ref


def _criterion(number: int, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\n[criterion {number}] {status}")
    for f in failures:
        print(f"    - {f}")
    assert not failures, f"criterion {number}: {len(failures)} failing item(s): " + "; ".join(failures)


# -- 1. deformation-space dimensions ---------------------------------------


def test_criterion_1_teich_dimensions():
    failures = []
    cases = {f"torus-{n}": n * (n + 1) // 2 for n in range(1, 7)}
    cases["pg"] = 2  # Klein bottle
    cases.update({"G1": 6, "G3": 2, "G4": 2, "G5": 2, "G6": 3, "B3": 3, "B4": 3,
                  "G2": 4, "B1": 4, "B2": 4})
    cases.update({"kummer": 10, "joyce-O1": 7, "joyce-O2": 9})
    # K(p) -> (p+1)/2 for odd p; K(2) is the Klein bottle itself, dimension 2
    cases.update({"K2": 2, "K3": 2, "K5": 3, "K7": 4})
    for key in ("p3m1", "p6m", "p4m", "p4g", "p31m", "p3", "p6", "p4"):
        cases[key] = 1  # the eight rigid plane orbifolds
    for key, want in sorted(cases.items()):
        grp = catalog_get(key).group
        t0 = time.time()
        rep = teich_report(grp)
        dt = time.time() - t0
        if rep.total_dim != want:
            failures.append(f"{key}: teich dim {rep.total_dim} != {want}")
        if dt >= 1.0:
            failures.append(f"{key}: took {dt:.2f}s (budget 1s)")
    _criterion(1, failures)


# -- 2. double computation ---------------------------------------------------


def _random_sign_perm_group(rng, n):
    gens = []
    for _ in range(rng.choice([1, 2])):
        perm = list(range(n))
        rng.shuffle(perm)
        M = ra.zeros(n, n)
        for i, p in enumerate(perm):
            M[p][i] = ra.frac(rng.choice([1, -1]))
        gens.append(M)
    seen = {tuple(map(tuple, ra.identity(n)))}
    frontier = [ra.identity(n)]
    while frontier:
        nxt = []
        for A in frontier:
            for g in gens:
                P = ra.mat_mul(A, g)
                key = tuple(map(tuple, P))
                if key not in seen:
                    seen.add(key)
                    nxt.append(P)
        frontier = nxt
        if len(seen) > 300:
            return None
    return [list(map(list, A)) for A in seen]


def test_criterion_2_double_computation():
    failures = []
    for key in sorted(catalog_list()):
        grp = catalog_get(key).group
        rep = teich_report(grp)
        if rep.total_dim != rep.invariant_form_dim:
            failures.append(f"{key}: {rep.total_dim} != exact {rep.invariant_form_dim}")
    rng = random.Random(2024)
    done = 0
    while done < 50:
        n = rng.choice([2, 3, 4, 5, 6])
        elems = _random_sign_perm_group(rng, n)
        if elems is None:
            continue
        rng.randrange(10_000)  # one draw per group keeps the sequence of random groups fixed
        rep = isotypic_decompose(elems, ra.identity(n))
        if rep.total_dim != rep.invariant_form_dim:
            failures.append(f"random rep #{done} (n={n}): {rep.total_dim} != {rep.invariant_form_dim}")
        done += 1
    _criterion(2, failures)


# -- errata to the classical table --------------------------------------------


# case: (classical label, computed label, reason).  Collapsing W restricts
# every holonomy element to the complement of W, so a limit's point group is
# a homomorphic image of the holonomy H.  tests/test_disputed_labels.py
# proves each row without collapse() or classify2().
ERRATA = {
    "plane-G7": ("K2", "M2", "T4 T3 T2^-1 is a reflection fixing x = 1/4; "
                 "point-group order 2 on a centred lattice is cm"),
    "G2 W1": ("D2(2,2;)", "S2(2,2,2,2;)", "|H(G2)| = 2, but pmg has point-group order 4"),
    "G4 W1": ("D2(4;2)", "S2(2,4,4;)", "H(G4) in SO(3) fixes W1 pointwise, so no image "
              "element has det -1; p4g has mirrors and order 8 > 4"),
    "G5 W1": ("D2(3;3)", "S2(2,3,6;)", "H(G5) in SO(3) fixes W1 pointwise, so no mirror; "
              "and cyclic Z6 has no image D3 for p31m"),
    "B4 W1": ("S2(2,2,2,2;)", "RP2(2,2;)", "diag(1,1,-1) restricts to det -1 on W1-perp, "
              "but p2 has point group {+I, -I}"),
    "label D2(4;2)": ("D2(4;2)", "S2(2,4,4;)", "no closed flat 3-manifold has holonomy of order 8"),
    "label D2(3;3)": ("D2(3;3)", "S2(2,3,6;)", "the only holonomy of order 6 (G5) is cyclic, "
                      "so no limit has point group D3"),
}


def _classical(case: str, listed: str) -> str:
    """The classical table's value for a case whose proven label is `listed`."""
    if case not in ERRATA:
        return listed
    classical, computed, _ = ERRATA[case]
    assert computed == listed, f"{case}: ERRATA gives {computed}, the test lists {listed}"
    return classical


# -- 3. plane-group table ----------------------------------------------------


TABLE_ROWS = {
    # iuc: (conway, topology, orbifold, holonomy order)
    "p1": ("o", "T2", "T2", 1),
    "pg": ("xx", "K2", "K2", 2),
    "pm": ("**", "S1xI", "S1xI", 2),
    "cm": ("*x", "M2", "M2", 2),
    "p2": ("2222", "S2", "S2(2,2,2,2;)", 2),
    "pgg": ("22x", "RP2", "RP2(2,2;)", 4),
    "pmg": ("22*", "D2", "D2(2,2;)", 4),
    "pmm": ("*2222", "D2", "D2(;2,2,2,2)", 4),
    "cmm": ("2*22", "D2", "D2(2;2,2)", 4),
    "p4": ("442", "S2", "S2(2,4,4;)", 4),
    "p4g": ("4*2", "D2", "D2(4;2)", 8),
    "p4m": ("*442", "D2", "D2(;2,4,4)", 8),
    "p3": ("333", "S2", "S2(3,3,3;)", 3),
    "p3m1": ("*333", "D2", "D2(;3,3,3)", 6),
    "p31m": ("3*3", "D2", "D2(3;3)", 6),
    "p6": ("632", "S2", "S2(2,3,6;)", 6),
    "p6m": ("*632", "D2", "D2(;2,3,6)", 12),
}

PLANE_QUOTIENT_IDS = {
    "plane-G1": "RP2(2,2;)",
    "plane-G2": "D2(2,2;)",
    "plane-G3": "S1xI",
    "plane-G4": "S2(2,2,2,2;)",
    "plane-G5": "M2",
    "plane-G6": "M2",
    "plane-G7": "M2",  # erratum
}


def test_criterion_3_table_reproduction():
    failures = []
    for iuc, (conway, topo, orb, order) in sorted(TABLE_ROWS.items()):
        label = classify2(catalog_get(iuc).group)
        got = (label.conway, label.topology, label.orbifold_name, label.holonomy_order)
        if label.iuc != iuc or got != (conway, topo, orb, order):
            failures.append(f"{iuc}: classified as {label.iuc} {got}")
    for key, want in sorted(PLANE_QUOTIENT_IDS.items()):
        entry = catalog_get(key)
        label = classify2(entry.group)
        if label.orbifold_name != want:
            failures.append(f"{key}: computed {label.orbifold_name} != listed {want}")
        # the catalog keeps the classical identification; it may differ only by an erratum
        if entry.expected.get("claimed_orbifold") != _classical(key, want):
            failures.append(f"{key}: catalog's classical identification is not {_classical(key, want)}")
    _criterion(3, failures)


# -- 4. collapsed limits of the flat 3-manifolds ------------------------------


LIMIT_LABELS = {
    "point", "interval", "circle", "T2", "K2", "M2", "S1xI",
    "S2(2,4,4;)", "S2(2,3,6;)", "D2(2,2;)",  # the two spheres are errata
    "S2(3,3,3;)", "S2(2,2,2,2;)", "RP2(2,2;)",
}

SPOT_CHECKS = [
    ("G2", "W1", "S2(2,2,2,2;)"),  # erratum
    ("G3", "W1", "S2(3,3,3;)"),
    ("G4", "W1", "S2(2,4,4;)"),  # erratum
    ("G5", "W1", "S2(2,3,6;)"),  # erratum
    ("G6", "W1", "RP2(2,2;)"),
    ("B3", "W1", "D2(2,2;)"),
    ("B3", "W2", "S1xI"),
    ("B4", "W1", "RP2(2,2;)"),  # erratum
    ("B4", "W2", "M2"),
]


def test_criterion_4_collapsed_limits():
    failures = []
    t0 = time.time()
    report = verify_theorem_c()
    dt = time.time() - t0
    rows = {(g, d): l for g, d, l in report.collapses}
    for key, direction, want in SPOT_CHECKS:
        got = rows.get((key, direction))
        if got != want:
            failures.append(f"{key} {direction}: computed {got} != listed {want}")
        # the catalog keeps the classical label; it may differ only by an erratum
        classical = _classical(f"{key} {direction}", want)
        if catalog_get(key).expected["claimed_collapse"].get(direction) != classical:
            failures.append(f"{key} {direction}: catalog's classical label is not {classical}")
    if report.label_set != LIMIT_LABELS:
        failures.append(
            f"label set differs: missing {sorted(LIMIT_LABELS - report.label_set)}, "
            f"extra {sorted(report.label_set - LIMIT_LABELS)}"
        )
    # the program's classical label set differs from the survey by exactly the label errata
    label_errata = [v for k, v in ERRATA.items() if k.startswith("label ")]
    want_missing = {classical for classical, _, _ in label_errata}
    want_extra = {computed for _, computed, _ in label_errata}
    if (report.missing, report.extra) != (want_missing, want_extra):
        failures.append(
            f"classical label set: missing {sorted(report.missing)}, extra {sorted(report.extra)}; "
            f"errata list {sorted(want_missing)} -> {sorted(want_extra)}"
        )
    # the two plane-quotient checks remain exact regardless of the table
    kb = catalog_get("pg").group
    if collapse(kb, [[1, 0]]).label.orbifold_name != "interval":
        failures.append("Klein bottle along the glide axis: expected interval")
    if collapse(kb, [[0, 1]]).label.orbifold_name != "circle":
        failures.append("Klein bottle across the glide axis: expected circle")
    if dt >= 60:
        failures.append(f"survey took {dt:.1f}s (budget 60s)")
    _criterion(4, failures)


# -- 5. reduction constants and the diameter bound ----------------------------


def _oracle_special_2d(rows):
    """Brute-force special basis over a coefficient box (independent path)."""
    B = np.asarray(rows, dtype=float)
    bound = math.sin(theta_n(2))
    Z = 12
    half = {}
    for a in range(-Z, Z + 1):
        for b in range(-Z, Z + 1):
            if (a, b) == (0, 0):
                continue
            z = (a, b)
            if z[0] < 0 or (z[0] == 0 and z[1] < 0):
                continue  # canonical halves
            half[z] = a * B[0] + b * B[1]
    items = sorted(half.items(), key=lambda t: (np.linalg.norm(t[1]), t[0]))
    cap = max(np.linalg.norm(B[0]), np.linalg.norm(B[1])) * 1.0001
    items = [(z, v) for z, v in items if np.linalg.norm(v) <= cap]
    best_r0 = None
    best_key = None

    def sgn(v):
        for x in v:
            if x > 1e-12:
                return v
            if x < -1e-12:
                return -v
        return v

    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            (za, va), (zb, vb) = items[i], items[j]
            if abs(za[0] * zb[1] - za[1] * zb[0]) != 1:
                continue
            na, nb = np.linalg.norm(va), np.linalg.norm(vb)
            s = abs(np.linalg.det(np.array([va, vb]))) / (na * nb)
            if s < bound - 1e-9:
                continue
            r = max(na, nb)
            if best_r0 is None or r < best_r0 - 1e-12:
                best_r0 = r
                best_key = None
            if abs(r - best_r0) <= 1e-12:
                ordered = sorted([sgn(va), sgn(vb)], key=lambda v: (-np.linalg.norm(v), tuple(np.round(v, 9))))
                key = (
                    tuple(round(float(np.linalg.norm(v)), 12) for v in ordered),
                    tuple(np.round(np.concatenate(ordered), 9)),
                )
                if best_key is None or key < best_key:
                    best_key = key
    return best_r0, best_key[0]


def test_criterion_5_reduction_constants_and_diameter_bound():
    failures = []
    if abs(theta_n(2) - math.pi / 4) > 1e-15:
        failures.append("theta_2 != pi/4")
    if abs(beta_n(2) - 0.5) > 1e-15 or abs(beta_n(3) - 0.5) > 1e-15:
        failures.append("beta_2 or beta_3 != 1/2")
    rng = random.Random(99)
    checked = {2: 0, 3: 0}
    while checked[2] < 50 or checked[3] < 50:
        n = 2 if checked[2] < 50 else 3
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if abs(np.linalg.det(np.asarray(rows, dtype=float))) < 0.5:
            continue
        rep = check_diameter_bound(Lattice.from_rows(rows))
        if not rep.holds:
            failures.append(f"diameter bound failed on {rows}")
        if not rep.trivial_upper_ok:
            failures.append(f"trivial upper bound failed on {rows}")
        checked[n] += 1
    rng = random.Random(7)
    done = 0
    while done < 50:
        rows = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        if abs(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) == 0:
            continue
        sb = special_basis(Lattice.from_rows(rows))
        r0, norms = _oracle_special_2d(rows)
        if abs(sb.R0 - r0) > 1e-9:
            failures.append(f"R0 mismatch on {rows}: {sb.R0} vs oracle {r0}")
        elif max(abs(a - b) for a, b in zip(sb.norms, norms)) > 1e-9:
            failures.append(f"norm tuple mismatch on {rows}: {sb.norms} vs oracle {norms}")
        done += 1
    _criterion(5, failures)


# -- 6. covering radii ---------------------------------------------------------


def test_criterion_6_covering_radii():
    failures = []
    for n in (1, 2, 3, 4):
        lo, hi = covering_radius(Lattice(np.eye(n)), 1e-6)
        if not (lo == hi == pytest.approx(math.sqrt(n) / 2, abs=0)):
            failures.append(f"Z^{n}: got [{lo}, {hi}]")
    hexa = Lattice.from_rows([[1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    lo, hi = covering_radius(hexa, 1e-4)
    mu = 1 / math.sqrt(3)
    if not (lo <= mu + 1e-12 and hi >= mu - 1e-12 and hi - lo <= 1e-4 + 1e-12):
        failures.append(f"hexagonal: got [{lo}, {hi}], expected around {mu}")
    _criterion(6, failures)


# -- 7. sequence limits ----------------------------------------------------------


def test_criterion_7_sequence_limits():
    failures = []
    sched = [1, 0.5, 0.1, 0.01, 0.001]
    lim = sequence_limit(lambda t: Lattice(np.diag([1.0, t])), sched)
    if lim.limit_dim != 1:
        failures.append(f"shrinking axis: m = {lim.limit_dim} != 1")
    elif abs(lim.circumferences[0] - 1.0) > 1e-6:
        failures.append(f"shrinking axis: circumference {lim.circumferences[0]}")
    lim = sequence_limit(lambda t: Lattice(np.eye(2)), sched)
    if lim.limit_dim != 2:
        failures.append(f"constant family: m = {lim.limit_dim} != 2")
    # Klein-bottle family: shrink each axis of the covering lattice and
    # classify the collapsed quotient
    kb = catalog_get("pg").group
    axis_labels = {}
    for axis, direction in (("e1", [[1, 0]]), ("e2", [[0, 1]])):
        axis_labels[axis] = collapse(kb, direction).label.orbifold_name
        diag = [1.0, 1.0]
        diag[0 if axis == "e1" else 1] = 1.0
        fam = lambda t, a=axis: Lattice(np.diag([t, 1.0] if a == "e1" else [1.0, t]))
        lim = sequence_limit(fam, sched)
        if lim.limit_dim != 1:
            failures.append(f"KB covering lattice, {axis}: m = {lim.limit_dim} != 1")
    if axis_labels != {"e1": "interval", "e2": "circle"}:
        failures.append(f"KB axis collapses: {axis_labels}")
    _criterion(7, failures)


# -- 8. property suites -----------------------------------------------------------


def _random_unimodular(rng, n):
    M = ra.identity(n)
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            M[i][k] += c * M[j][k]
    return M


def test_criterion_8_property_suites():
    failures = []
    # group law on 10^4 random composites
    rng = random.Random(12345)
    for trial in range(10_000):
        n = rng.choice([2, 3])
        a, b, c = (
            AffineElement.of(
                _random_unimodular(rng, n),
                [ra.frac(f"{rng.randint(-6, 6)}/{rng.choice([1, 2, 3])}") for _ in range(n)],
            )
            for _ in range(3)
        )
        if (a * b) * c != a * (b * c) or a * a.inverse() != AffineElement.identity(n):
            failures.append(f"group law failed at trial {trial}")
            break
    # cocycle identity on every catalog holonomy
    for key in sorted(catalog_list()):
        if ref.cocycle_defects(catalog_get(key).group.holonomy()):
            failures.append(f"cocycle identity fails for {key}")
    # torsion facts
    for key in ("G1", "G2", "G3", "G4", "G5", "G6", "B1", "B2", "B3", "B4"):
        if not catalog_get(key).group.is_torsion_free().torsion_free:
            failures.append(f"{key} should be torsion-free")
    for key in ("p2", "p3", "p4", "p6", "cmm"):
        rep = catalog_get(key).group.is_torsion_free()
        if rep.torsion_free or rep.witness is None:
            failures.append(f"{key} should have a torsion witness")
        else:
            w, x = rep.witness, rep.fixed_point
            if w.apply(x) != list(x):
                failures.append(f"{key}: witness does not fix its point")
    # product resolution round-trips (the recovery check is built in and
    # raises when the collapsed block does not reproduce the orbifold)
    pairs = [("p2", "pg"), ("interval", "pg"), ("pmm", "B3")]
    for okey, mkey in pairs:
        prod = product_resolution(catalog_get(okey).group, catalog_get(mkey).group)
        if not prod.is_torsion_free().torsion_free:
            failures.append(f"resolution {okey}+{mkey} is not torsion-free")
    # collapse dimension additivity and iterated-collapse commutation
    from flatorb.groups import holonomy_signature

    for key in ("G2", "G3", "G4", "G5", "G6", "B1", "B2", "B3", "B4"):
        grp = catalog_get(key).group
        comps = rational_isotypic_components(grp)
        for piece in comps:
            res = collapse(grp, piece)
            if res.quotient.n + res.collapsed_dim != grp.n:
                failures.append(f"{key}: dimension additivity fails")
        for i in range(len(comps)):
            for j in range(len(comps)):
                if i == j:
                    continue
                direct = collapse(grp, comps[i] + comps[j])
                step1 = collapse(grp, comps[i])
                step2 = collapse(step1.quotient, step1.push_forward(comps[j]))
                if direct.label.orbifold_name != step2.label.orbifold_name:
                    failures.append(f"{key}: iterated collapse ({i},{j}) does not commute")
                elif holonomy_signature(direct.quotient) != holonomy_signature(step2.quotient):
                    failures.append(f"{key}: iterated collapse ({i},{j}) signatures differ")
    _criterion(8, failures)
