"""Classification of 2-dimensional crystallographic groups.

The classifier reads integer invariants of the holonomy only, off integer
2 x 2 matrices: the maximal rotation order N, the number of reflection
classes and of those that hold genuine mirrors, and one lattice index.  A
finite-order integer matrix with det 1 has the integer trace
2 cos(2 pi / k), so the trace gives the rotation order k.  A reflection
class (A, v) holds a mirror iff some translate fixes a point, decided by
the same fixed-point test as torsion (``groups._fixed_point``: v in
im(I - A) + Z^2).  Its glide axes lie on mirrors iff it holds a mirror and
the lattice is primitive rather than centred for A: the centring index
|det(a, p)| of the primitive +1 and -1 eigenvectors a and p of A is 1, not
2 (the p/c lattice distinction, for pm/cm and pmm/cmm).  For N = 3 the
index |det(a, R a)| of a reflection axis a and its image under a 3-fold
rotation R is 1 for p31m and 3 for p3m1, the two arithmetic classes of
point group 3m (International Tables for Crystallography, Vol. A, plane
groups 14-15).  These invariants are affine (basis independent), so the
result does not depend on the chosen lattice coordinates.

Orbifold data for each of the 17 classes comes from the standard table:
IUC name, Conway symbol, underlying topology, cone points and corner
reflectors, and the point-group order.

``singular_locus`` clips the invariant lines to the cell in exact
rationals and rounds the endpoints to 9 decimals only at its output.
``render_svg`` draws the lattice cell with the singular locus.  Color map
(fixed): cell outline black, rotation centers red dots labeled with their
order, mirror lines solid blue, glide axes dashed green.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import rational as ra
from .groups import (
    CrystalGroup,
    FlatOrbError,
    InvalidGroupError,
    OutOfRangeError,
    _fixed_point,
)


class InvalidWallpaperError(FlatOrbError):
    pass


@dataclass(frozen=True)
class OrbifoldLabel:
    iuc: str
    conway: str
    topology: str
    cone_points: tuple[int, ...]
    corner_reflectors: tuple[int, ...]
    holonomy_order: int

    @property
    def orbifold_name(self) -> str:
        if self.topology not in {"S2", "RP2", "D2", "T2", "K2", "S1xI", "M2"}:
            return self.iuc
        if self.topology in {"T2", "K2", "S1xI", "M2"}:
            return self.topology
        cones = ",".join(str(c) for c in self.cone_points)
        corners = ",".join(str(c) for c in self.corner_reflectors)
        return f"{self.topology}({cones};{corners})"

    def __str__(self) -> str:
        return self.orbifold_name


def _label(iuc, conway, topology, cones, corners, order) -> OrbifoldLabel:
    return OrbifoldLabel(iuc, conway, topology, tuple(cones), tuple(corners), order)


TABLE_2D: dict[str, OrbifoldLabel] = {
    "p1": _label("p1", "o", "T2", [], [], 1),
    "pg": _label("pg", "xx", "K2", [], [], 2),
    "pm": _label("pm", "**", "S1xI", [], [], 2),
    "cm": _label("cm", "*x", "M2", [], [], 2),
    "p2": _label("p2", "2222", "S2", [2, 2, 2, 2], [], 2),
    "pgg": _label("pgg", "22x", "RP2", [2, 2], [], 4),
    "pmg": _label("pmg", "22*", "D2", [2, 2], [], 4),
    "pmm": _label("pmm", "*2222", "D2", [], [2, 2, 2, 2], 4),
    "cmm": _label("cmm", "2*22", "D2", [2], [2, 2], 4),
    "p4": _label("p4", "442", "S2", [2, 4, 4], [], 4),
    "p4g": _label("p4g", "4*2", "D2", [4], [2], 8),
    "p4m": _label("p4m", "*442", "D2", [], [2, 4, 4], 8),
    "p3": _label("p3", "333", "S2", [3, 3, 3], [], 3),
    "p3m1": _label("p3m1", "*333", "D2", [], [3, 3, 3], 6),
    "p31m": _label("p31m", "3*3", "D2", [3], [3], 6),
    "p6": _label("p6", "632", "S2", [2, 3, 6], [], 6),
    "p6m": _label("p6m", "*632", "D2", [], [2, 3, 6], 12),
}

POINT_LABEL = _label("point", "", "point", [], [], 1)
CIRCLE_LABEL = _label("circle", "", "circle", [], [], 1)
INTERVAL_LABEL = _label("interval", "", "interval", [], [], 2)


# -- exact reflection-class invariants ------------------------------------


@dataclass(frozen=True)
class ReflectionClass:
    matrix: tuple
    v: tuple
    axis: tuple  # primitive direction of the fixed line
    has_mirror: bool
    glide_axes_on_mirrors: bool


def _reflection_class_data(A, v) -> ReflectionClass:
    # A^2 = I gives (A - I)(A + I) = 0: the nonzero columns of A + I lie on
    # the axis a, those of A - I on the -1 eigenline p
    columns = lambda s: ((A[0][j] + s * (j == 0), A[1][j] + s * (j == 1)) for j in (0, 1))
    a, p = (ra.primitive(next(c for c in columns(s) if any(c))) for s in (1, -1))
    (num,), N = ra.clear_denominators([v])
    has_mirror = _fixed_point(A, num, N) is not None
    # Z a + Z p has index 1 (primitive lattice) or 2 (centred) in Z^2; a
    # centred lattice puts a glide axis halfway between two mirrors
    primitive = abs(a[0] * p[1] - a[1] * p[0]) == 1
    return ReflectionClass(
        matrix=A,
        v=tuple(v),
        axis=tuple(a),
        has_mirror=has_mirror,
        glide_axes_on_mirrors=has_mirror and primitive,
    )


def _rotation_centers(A, v) -> list[tuple[Fraction, Fraction]]:
    """Inequivalent fixed points of translates of the rotation (A, v), reduced mod Z^2.

    (A, v + l) fixes x = adj(I - A)(v + l) / d, d = det(I - A) = 2 - tr A, and
    (A, v + l + (I - A) m) fixes x + m.  (I - A) adj(I - A) = d I puts d Z^2
    inside (I - A) Z^2, so l in [0, d)^2 reaches every center (none for A = I).
    With v = a / N, x is reduced as the integer adj(I - A)(a + N l) mod N d.
    """
    try:
        adj, d = ra.adjugate([[(i == j) - A[i][j] for j in (0, 1)] for i in (0, 1)])
    except ValueError:  # I - A is singular only for A = I
        return []
    (a,), N = ra.clear_denominators([v])
    return sorted({
        tuple(Fraction(x % (N * d), N * d) for x in ra.mat_vec(adj, (a[0] + N * l1, a[1] + N * l2)))
        for l1 in range(d)
        for l2 in range(d)
    })


def _plane_elements(group: CrystalGroup, verb: str) -> tuple[dict, list, list[ReflectionClass]]:
    """The coset translations v_A, the rotations as (A, order) and the reflection classes."""
    grp = group.normalize()
    if grp.n != 2:
        raise InvalidGroupError(f"{verb} expects a 2-dimensional group")
    hol = grp.holonomy()
    translations = hol.translations
    rotations, reflections = [], []
    for A in hol.elements:
        if A[0][0] * A[1][1] - A[0][1] * A[1][0] == 1:
            # order k by the trace 2 cos(2 pi / k)
            rotations.append((A, {2: 1, 1: 6, 0: 4, -1: 3, -2: 2}[A[0][0] + A[1][1]]))
        else:
            reflections.append(_reflection_class_data(A, translations[A]))
    return translations, rotations, reflections


def classify2(group: CrystalGroup) -> OrbifoldLabel:
    """Identify a 2-dimensional crystallographic group among the 17 classes."""
    _, rotations, refl_classes = _plane_elements(group, "classify2")
    N = max(order for _, order in rotations)
    mirror_classes = sum(1 for rc in refl_classes if rc.has_mirror)

    if N == 1:
        if not refl_classes:
            return TABLE_2D["p1"]
        if mirror_classes == 0:
            return TABLE_2D["pg"]
        rc = refl_classes[0]
        return TABLE_2D["pm" if rc.glide_axes_on_mirrors else "cm"]
    if N == 2:
        if not refl_classes:
            return TABLE_2D["p2"]
        if mirror_classes == 0:
            return TABLE_2D["pgg"]
        if mirror_classes == 1:
            return TABLE_2D["pmg"]
        all_on = all(rc.glide_axes_on_mirrors for rc in refl_classes if rc.has_mirror)
        return TABLE_2D["pmm" if all_on else "cmm"]
    if N == 3:
        if not refl_classes:
            return TABLE_2D["p3"]
        # a reflection axis a and its image R a under a 3-fold rotation span
        # a lattice of index 1 (p31m) or 3 (p3m1): the arithmetic classes of 3m
        a = refl_classes[0].axis
        Ra = ra.mat_vec(next(A for A, order in rotations if order == 3), a)
        return TABLE_2D["p3m1" if abs(a[0] * Ra[1] - a[1] * Ra[0]) == 3 else "p31m"]
    if N == 4:
        if not refl_classes:
            return TABLE_2D["p4"]
        if mirror_classes == len(refl_classes):
            return TABLE_2D["p4m"]
        if mirror_classes * 2 == len(refl_classes):
            return TABLE_2D["p4g"]
        raise InvalidWallpaperError("inconsistent mirror count for a tetragonal group")
    # N == 6
    return TABLE_2D["p6m" if refl_classes else "p6"]


def classify_low_dim(group: CrystalGroup) -> OrbifoldLabel:
    """Labels for quotients of dimension <= 2 (plus coarse names above)."""
    grp = group.normalize()
    if grp.n == 0:
        return POINT_LABEL
    if grp.n == 1:
        hol = grp.holonomy()
        if any(A[0][0] == -1 for A in hol.elements):
            return INTERVAL_LABEL
        return CIRCLE_LABEL
    if grp.n == 2:
        return classify2(grp)
    hol = grp.holonomy()
    if hol.order == 1:
        name = f"T{grp.n}"
    else:
        tf = grp.is_torsion_free().torsion_free
        ori = all((-1) ** grp.n * ra.char_poly(A)[0] == 1 for A in hol.elements)
        name = f"flat{grp.n}:H{hol.order}" + ("" if ori else ",nonor") + ("" if tf else ",sing")
    return _label(name, "", name, [], [], hol.order)


# -- singular locus and rendering -----------------------------------------


@dataclass(frozen=True)
class SingularLocus:
    rotation_centers: tuple[tuple[tuple[Fraction, Fraction], int], ...]
    mirror_segments: tuple[tuple[tuple[float, float], tuple[float, float]], ...]
    glide_axes: tuple[tuple[tuple[float, float], tuple[float, float]], ...]


def _clip_line_to_cell(p0, d):
    """Clip the line p0 + t d to the unit cell [0,1]^2, exactly; None unless a segment remains."""
    bounds = []
    for x, dx in zip(p0, d):
        if dx:
            bounds.append(sorted((-x / dx, (1 - x) / dx)))
        elif not 0 <= x <= 1:
            return None
    t_lo = max(lo for lo, _ in bounds)
    t_hi = min(hi for _, hi in bounds)
    if t_lo >= t_hi:
        return None
    return tuple(tuple(x + t * dx for x, dx in zip(p0, d)) for t in (t_lo, t_hi))


def _reflection_lines(rc: ReflectionClass) -> tuple[list, list]:
    """Segments in the cell of the invariant lines of a reflection class: (mirrors, glide axes).

    f(x) = a_2 x_1 - a_1 x_2 vanishes on the axis a; (A, w) keeps the line
    f(x) = f(w) / 2.  f(v + l), l in Z^2, runs over f(v) + k, k in Z, and line
    k holds (A, w + m a), w = v + k g for f(g) = 1: each is a glide axis, and
    a mirror iff its glide vector (I + A) w / 2 is a lattice vector.
    """
    A, a, v = rc.matrix, rc.axis, rc.v
    f = lambda x: a[1] * x[0] - a[0] * x[1]
    g = ra.hnf([[a[1]], [-a[0]]])[1][0]  # f(g) = 1: a is primitive
    values = [f(corner) for corner in ((0, 0), (1, 0), (0, 1), (1, 1))]
    mirrors, glides = [], []
    for k in range(math.ceil(2 * min(values) - f(v)), math.floor(2 * max(values) - f(v)) + 1):
        w = (v[0] + k * g[0], v[1] + k * g[1])
        seg = _clip_line_to_cell([c / 2 for c in w], a)
        if seg:
            glides.append(seg)
            if all(((w[i] + A[i][0] * w[0] + A[i][1] * w[1]) / 2).denominator == 1 for i in (0, 1)):
                mirrors.append(seg)
    return mirrors, glides


def singular_locus(group: CrystalGroup) -> SingularLocus:
    """Rotation centers, mirror lines, and glide axes inside one cell."""
    translations, rotations, refl_classes = _plane_elements(group, "singular_locus")
    best_order: dict[tuple, int] = {}
    for A, order in rotations:
        for pt in _rotation_centers(A, translations[A]):
            if best_order.get(pt, 0) < order:
                best_order[pt] = order
    mirrors, glides = [], []
    for rc in refl_classes:
        m, g = _reflection_lines(rc)
        mirrors += m
        glides += g

    def to_floats(segs):
        return tuple(sorted(tuple(tuple(round(float(x), 9) for x in pt) for pt in s) for s in set(segs)))

    centers = tuple(sorted(best_order.items()))
    return SingularLocus(centers, to_floats(mirrors), to_floats(glides))


def cone_point_classes(group: CrystalGroup) -> list[int]:
    """Orders of rotation centers, one per group orbit (not per cell).

    The group is the cosets (A, v_A) + Z^2, so the orbit of a center mod
    Z^2 is its images under the coset representatives alone, taken on
    numerators over a common denominator D of the centers and the v_A.
    """
    grp = group.normalize()
    hol = grp.holonomy()
    centers = dict(singular_locus(grp).rotation_centers)
    N = hol.denominator
    D = math.lcm(N, *(x.denominator for pt in centers for x in pt))
    order_at = {tuple(int(x * D) for x in pt): k for pt, k in centers.items()}
    orders = []
    remaining = set(order_at)
    while remaining:
        p = min(remaining)
        orders.append(order_at[p])
        for A, a in hol.numerators.items():
            remaining.discard(tuple((x + t * (D // N)) % D for x, t in zip(ra.mat_vec(A, p), a)))
    return sorted(orders)


SVG_COLORS = {
    "cell": "#000000",
    "center": "#cc0000",
    "mirror": "#0033cc",
    "glide": "#008833",
}


def _cholesky_2x2(gram) -> tuple[float, float, float]:
    """(a, b, c) with G = L L^T for L = [[a, 0], [b, c]], in doubles.

    a = sqrt(g11), b = g12 / a, c = sqrt(g22 - b^2).  A form with an entry
    beyond the double range, or one that is no longer positive definite once
    rounded to doubles, raises ``OutOfRangeError``.
    """
    try:
        g11, g12, g22 = float(gram[0][0]), float(gram[0][1]), float(gram[1][1])
        a = math.sqrt(g11)
        b = g12 / a
        c = math.sqrt(g22 - b * b)
        if c > 0:
            return a, b, c
    except (OverflowError, ValueError, ZeroDivisionError):
        pass
    raise OutOfRangeError("the Gram form lies outside the double range")


def render_svg(group: CrystalGroup, out: str | Path | None = None) -> str:
    """Deterministic 800x800 SVG of one lattice cell with its singular locus."""
    grp = group.normalize()
    locus = singular_locus(grp)
    a, b, c = _cholesky_2x2(grp.gram)

    def embed(p):  # lattice coords -> Cartesian, L^T p
        return a * p[0] + b * p[1], c * p[1]

    corners = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    pts = [embed(p) for p in corners]
    allx = [p[0] for p in pts]
    ally = [p[1] for p in pts]
    span = max(max(allx) - min(allx), max(ally) - min(ally))
    margin = 60.0
    scale = (800 - 2 * margin) / span

    def to_px(p):
        q = embed([float(x) for x in p])
        x = margin + (q[0] - min(allx)) * scale
        y = 800 - margin - (q[1] - min(ally)) * scale
        return x, y

    def fmt(x):
        return f"{x:.2f}"

    # XML-escaped by hand: xml.sax.saxutils would import urllib.request
    title = (grp.name or "crystal group").replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="800" height="800" viewBox="0 0 800 800">',
        f"<title>{title}</title>",
    ]
    cell_pts = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in (to_px(c) for c in corners))
    lines.append(
        f'<polygon points="{cell_pts}" fill="none" stroke="{SVG_COLORS["cell"]}" stroke-width="2"/>'
    )
    for (p, q) in locus.mirror_segments:
        (x1, y1), (x2, y2) = to_px(p), to_px(q)
        lines.append(
            f'<line x1="{fmt(x1)}" y1="{fmt(y1)}" x2="{fmt(x2)}" y2="{fmt(y2)}" '
            f'stroke="{SVG_COLORS["mirror"]}" stroke-width="2.5"/>'
        )
    for (p, q) in locus.glide_axes:
        (x1, y1), (x2, y2) = to_px(p), to_px(q)
        lines.append(
            f'<line x1="{fmt(x1)}" y1="{fmt(y1)}" x2="{fmt(x2)}" y2="{fmt(y2)}" '
            f'stroke="{SVG_COLORS["glide"]}" stroke-width="1.5" stroke-dasharray="8,6"/>'
        )
    for (pt, order) in locus.rotation_centers:
        x, y = to_px(pt)
        lines.append(
            f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="6" fill="{SVG_COLORS["center"]}"/>'
        )
        lines.append(
            f'<text x="{fmt(x + 9)}" y="{fmt(y - 9)}" font-size="18" '
            f'fill="{SVG_COLORS["center"]}">{order}</text>'
        )
    label = classify2(grp)
    lines.append(
        f'<text x="{fmt(margin)}" y="{fmt(30.0)}" font-size="20" fill="#000000">'
        f"{label.iuc} ({label.conway}) {label.orbifold_name}</text>"
    )
    lines.append("</svg>")
    doc = "\n".join(lines) + "\n"
    if out is not None:
        Path(out).write_text(doc, encoding="utf-8")
    return doc
