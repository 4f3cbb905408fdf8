import functools
import hashlib
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from xml.etree import ElementTree

import pytest

from flatorb import rational as ra
from flatorb.catalog import catalog_get
from flatorb.groups import CrystalGroup, FlatOrbError, InvalidGroupError
from flatorb.wallpaper import (
    TABLE_2D,
    _reflection_class_data,
    _rotation_centers,
    classify2,
    classify_low_dim,
    render_svg,
    singular_locus,
)

import reference_algebra as ref

HEX = [[1, "-1/2"], ["-1/2", 1]]
ROT3 = [[0, -1], [1, -1]]
ROT4 = [[0, -1], [1, 0]]
ROT6 = [[1, -1], [1, 0]]
SWAP = [[0, 1], [1, 0]]
NEG = [[-1, 0], [0, -1]]
MIRX = [[1, 0], [0, -1]]
MIRY = [[-1, 0], [0, 1]]


def wallpaper_groups():
    mk = CrystalGroup.make
    return {
        "p1": mk(2, []),
        "p2": mk(2, [(NEG, [0, 0])]),
        "pm": mk(2, [(MIRX, [0, 0])]),
        "pg": mk(2, [(MIRX, ["1/2", 0])]),
        "cm": mk(2, [([[1, 1], [0, -1]], [0, 0])], gram=[[1, "1/2"], ["1/2", "1/2"]]),
        "pmm": mk(2, [(MIRX, [0, 0]), (MIRY, [0, 0])]),
        "pmg": mk(2, [(NEG, [0, 0]), (MIRX, ["1/2", 0])]),
        "pgg": mk(2, [(NEG, [0, 0]), (MIRX, ["1/2", "1/2"])]),
        "cmm": mk(2, [(NEG, [0, 0]), (SWAP, [0, 0])]),
        "p4": mk(2, [(ROT4, [0, 0])]),
        "p4m": mk(2, [(ROT4, [0, 0]), (SWAP, [0, 0])]),
        "p4g": mk(2, [(ROT4, [0, 0]), (MIRX, ["1/2", "1/2"])]),
        "p3": mk(2, [(ROT3, [0, 0])], gram=HEX),
        "p3m1": mk(2, [(ROT3, [0, 0]), ([[0, -1], [-1, 0]], [0, 0])], gram=HEX),
        "p31m": mk(2, [(ROT3, [0, 0]), (SWAP, [0, 0])], gram=HEX),
        "p6": mk(2, [(ROT6, [0, 0])], gram=HEX),
        "p6m": mk(2, [(ROT6, [0, 0]), (SWAP, [0, 0])], gram=HEX),
    }


EXPECTED_ORDER = {
    "p1": 1, "p2": 2, "pm": 2, "pg": 2, "cm": 2,
    "pmm": 4, "pmg": 4, "pgg": 4, "cmm": 4,
    "p4": 4, "p4m": 8, "p4g": 8,
    "p3": 3, "p3m1": 6, "p31m": 6, "p6": 6, "p6m": 12,
}


@pytest.mark.parametrize("name", sorted(wallpaper_groups()))
def test_classify_all_17(name):
    grp = wallpaper_groups()[name].normalize()
    label = classify2(grp)
    assert label.iuc == name
    assert label.holonomy_order == EXPECTED_ORDER[name]
    assert grp.holonomy().order == EXPECTED_ORDER[name]


def test_orbifold_names():
    groups = wallpaper_groups()
    assert classify2(groups["p2"].normalize()).orbifold_name == "S2(2,2,2,2;)"
    assert classify2(groups["pgg"].normalize()).orbifold_name == "RP2(2,2;)"
    assert classify2(groups["p4g"].normalize()).orbifold_name == "D2(4;2)"
    assert classify2(groups["p31m"].normalize()).orbifold_name == "D2(3;3)"
    assert classify2(groups["pg"].normalize()).orbifold_name == "K2"
    assert classify2(groups["pm"].normalize()).orbifold_name == "S1xI"
    assert classify2(groups["cm"].normalize()).orbifold_name == "M2"


def _random_unimodular(rng):
    M = ra.identity(2)
    for _ in range(8):
        i, j = rng.sample([0, 1], 2)
        c = rng.randint(-3, 3)
        for k in range(2):
            M[i][k] += c * M[j][k]
    return M


def _conjugate(grp, P, s, scale=1):
    """The group in the lattice basis P, with its origin moved by s."""
    Pinv = ref.inverse(ref.mat(P))
    s = ra.vec(s)
    gens = []
    for g in grp.generators:
        A = ra.mat_mul(Pinv, ra.mat_mul(ref.mat(g.linear), ref.mat(P)))
        shift = ref.vec_sub(s, ra.mat_vec(A, s))
        gens.append((A, ra.vec_add(ra.mat_vec(Pinv, list(g.translation)), shift)))
    gram = ra.mat_mul(ref.transpose(ref.mat(P)), ra.mat_mul(ref.mat(grp.gram), ref.mat(P)))
    gram = [[x * ra.frac(scale) for x in row] for row in gram]
    return CrystalGroup.make(2, gens, gram=gram).normalize()


def _seeded_conjugates(name):
    """Six seeded conjugates of the standard group ``name``, with their basis and origin shift."""
    rng = random.Random(sum(map(ord, name)))
    grp = wallpaper_groups()[name].normalize()
    for _ in range(6):
        P = _random_unimodular(rng)
        s = [Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4, 6, 12])) for _ in range(2)]
        scale = rng.choice([1, 2, "1/3", 5])
        yield _conjugate(grp, P, s, scale), (P, s)


@pytest.mark.parametrize("name", sorted(wallpaper_groups()))
def test_classify_invariant_under_basis_change(name):
    for conj, where in _seeded_conjugates(name):
        assert classify2(conj).iuc == name, where


@pytest.mark.parametrize("name", sorted(wallpaper_groups()))
def test_singular_locus_under_basis_change(name):
    # a fixed window of translates loses mirror lines in a skewed basis;
    # pm's and pmm's glide axes all lie on mirrors
    has_mirrors = "*" in TABLE_2D[name].conway
    for conj, where in _seeded_conjugates(name):
        locus = singular_locus(conj)
        assert bool(locus.mirror_segments) == has_mirrors, where
        if name in ("pm", "pmm"):
            assert set(locus.mirror_segments) == set(locus.glide_axes), where


@functools.cache
def _plane_groups() -> tuple:
    """The 17 standard groups and their seeded conjugates, each with where it came from."""
    out = []
    for name, grp in sorted(wallpaper_groups().items()):
        out.append(((name, "standard"), grp.normalize()))
        out.extend(((name, where), conj) for conj, where in _seeded_conjugates(name))
    return tuple(out)


def test_rotation_centers_match_brute_force():
    # l in [-8, 8]^2 holds every class of Z^2 mod (I - A) Z^2, whose index
    # det(I - A) is at most 4
    for where, grp in _plane_groups():
        hol = grp.holonomy()
        for A in hol.elements:
            v = hol.translations[A]
            ImA = [[(i == j) - A[i][j] for j in range(2)] for i in range(2)]
            if ref.det(ref.mat(A)) != 1 or ref.det(ImA) == 0:
                assert ref.det(ref.mat(A)) == -1 or _rotation_centers(A, v) == [], where
                continue
            inv = ref.inverse(ImA)
            want = set()
            for l1 in range(-8, 9):
                for l2 in range(-8, 9):
                    x = ra.mat_vec(inv, [v[0] + l1, v[1] + l2])
                    want.add(tuple(c - math.floor(c) for c in x))
            assert _rotation_centers(A, v) == sorted(want), (where, A)


def _exact_lines(rc):
    """Exact (glide axes, mirrors) in the cell of a reflection class, as endpoint pairs.

    With f(x) = a_2 x_1 - a_1 x_2, the translate (A, u) keeps the line
    f(x) = f(u) / 2, and f(v + Z^2) = f(v) + Z; the line is a mirror iff
    (I - A) x - v is integral for a point x on it.
    """
    (a1, a2), A, v = rc.axis, rc.matrix, rc.v
    f = lambda x: a2 * x[0] - a1 * x[1]
    values = [f(c) for c in ((0, 0), (1, 0), (0, 1), (1, 1))]
    glides, mirrors = set(), set()
    for k in range(math.floor(2 * min(values) - f(v)) - 1, math.ceil(2 * max(values) - f(v)) + 2):
        c = (f(v) + k) / 2
        pts = set()
        for t in (0, 1):
            if a1:
                pts.add((Fraction(t), (a2 * t - c) / a1))
            if a2:
                pts.add(((c + a1 * t) / a2, Fraction(t)))
        pts = {p for p in pts if 0 <= p[0] <= 1 and 0 <= p[1] <= 1}
        if len(pts) != 2:
            continue
        glides.add(frozenset(pts))
        x = min(pts)
        if all((x[i] - A[i][0] * x[0] - A[i][1] * x[1] - v[i]).denominator == 1 for i in range(2)):
            mirrors.add(frozenset(pts))
    return glides, mirrors


def test_singular_locus_segments_are_rounded_exact_endpoints():
    def rounded(segs):
        return {frozenset(tuple(round(float(e), 9) for e in pt) for pt in seg) for seg in segs}

    for where, grp in _plane_groups():
        hol = grp.holonomy()
        glides, mirrors = set(), set()
        for A in hol.elements:
            if ref.det(ref.mat(A)) == -1:
                g, m = _exact_lines(_reflection_class_data(A, hol.translations[A]))
                glides |= g
                mirrors |= m
        locus = singular_locus(grp)
        assert rounded(locus.glide_axes) == rounded(glides), where
        assert rounded(locus.mirror_segments) == rounded(mirrors), where
        assert len(locus.glide_axes) == len(glides) and len(locus.mirror_segments) == len(mirrors), where


def test_plane_layer_needs_no_rational_elimination(monkeypatch):
    # rotation orders come from the trace, reflection lines from the columns
    # of A +- I, rotation centers from the adjugate of I - A
    groups = _plane_groups()

    def forbidden(*args, **kwargs):
        raise AssertionError("the plane-group layer called a rational elimination")

    for name in ("echelon", "kernel", "matrix_order"):
        monkeypatch.setattr(ra, name, forbidden)
    for where, grp in groups:
        assert classify2(grp).iuc == where[0], where
        singular_locus(grp)
        render_svg(grp)


@pytest.mark.parametrize(
    "name, P, s",
    [
        ("pm", [[-2, -7], [-1, -3]], ["-1/3", -1]),
        ("pmm", [[7, 3], [2, 1]], [3, "1/12"]),
    ],
)
def test_classify_skewed_basis_cases(name, P, s):
    # a skewed basis hides the translates that tell pm from cm and pmm from
    # cmm in any fixed window; the centring index does not depend on it
    conj = _conjugate(wallpaper_groups()[name].normalize(), P, s)
    assert classify2(conj).iuc == name


def test_singular_locus_p2():
    grp = wallpaper_groups()["p2"].normalize()
    locus = singular_locus(grp)
    pts = {pt for pt, order in locus.rotation_centers}
    assert pts == {
        (Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(0)),
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 2)),
    }
    assert all(order == 2 for _, order in locus.rotation_centers)
    assert locus.mirror_segments == ()


def test_singular_locus_pg_glides_only():
    locus = singular_locus(wallpaper_groups()["pg"].normalize())
    assert locus.rotation_centers == ()
    assert locus.mirror_segments == ()
    assert len(locus.glide_axes) >= 2


def test_singular_locus_p4m():
    locus = singular_locus(wallpaper_groups()["p4m"].normalize())
    orders = {order for _, order in locus.rotation_centers}
    assert orders == {2, 4}
    assert locus.mirror_segments
    # every center sits on some mirror segment line
    for (pt, order) in locus.rotation_centers:
        x, y = float(pt[0]), float(pt[1])
        on = False
        for (p, q) in locus.mirror_segments:
            dx, dy = q[0] - p[0], q[1] - p[1]
            if abs(dx * (y - p[1]) - dy * (x - p[0])) < 1e-9:
                on = True
        assert on


def test_centers_fixed_by_witness():
    for name in ("p2", "p4", "p3", "p6"):
        grp = wallpaper_groups()[name].normalize()
        hol = grp.holonomy()
        locus = singular_locus(grp)
        assert locus.rotation_centers
        for pt, order in locus.rotation_centers:
            fixed_by_some = False
            for A in hol.elements:
                M = ref.mat(A)
                if ref.det(M) != 1 or ra.matrix_order(M, cap=12) != order:
                    continue
                img = ra.vec_add(ra.mat_vec(M, list(pt)), list(hol.translations[A]))
                diff = ref.vec_sub(img, list(pt))
                if all(x.denominator == 1 for x in diff):
                    fixed_by_some = True
            assert fixed_by_some, (name, pt, order)


def test_classify_low_dim():
    circle = CrystalGroup.make(1, []).normalize()
    interval = CrystalGroup.make(1, [([[-1]], [0])]).normalize()
    assert classify_low_dim(circle).orbifold_name == "circle"
    assert classify_low_dim(interval).orbifold_name == "interval"
    t3 = CrystalGroup.make(3, []).normalize()
    assert classify_low_dim(t3).orbifold_name == "T3"


def test_render_svg(tmp_path):
    for name in ("p1", "p2", "p4m"):
        grp = wallpaper_groups()[name].normalize()
        out = tmp_path / f"{name}.svg"
        doc = render_svg(grp, out)
        assert out.exists()
        assert doc.startswith("<?xml")
        assert "<svg" in doc and "</svg>" in doc
        assert render_svg(grp) == doc  # deterministic


def test_svg_content_matches_locus():
    grp = wallpaper_groups()["p2"].normalize()
    doc = render_svg(grp)
    assert doc.count("<circle") == 4
    grp = wallpaper_groups()["p1"].normalize()
    doc = render_svg(grp)
    assert "<circle" not in doc


def _on_mirror(c, refl) -> bool:
    """Whether c lies on a mirror: (I - M) c - v_M is integral for a reflection (M, v_M) in ``refl``."""
    return any(
        all((c[i] - M[i][0] * c[0] - M[i][1] * c[1] - v[i]).denominator == 1 for i in (0, 1)) for M, v in refl
    )


@pytest.mark.parametrize("name", ["p3", "p31m", "p3m1", "p6", "p6m"])
def test_hexagonal_index_matches_mirror_incidence(name):
    # classify2 tells p3m1 from p31m by the index |det(a, R a)| of a
    # reflection axis a and a 3-fold rotation R; the table's definition is
    # whether every 3-fold center lies on a mirror
    for where, grp in _plane_groups():
        if where[0] != name:
            continue
        hol = grp.holonomy()
        refl = [(A, hol.translations[A]) for A in hol.elements if ref.det(ref.mat(A)) == -1]
        threefold = [A for A in hol.elements if A[0][0] + A[1][1] == -1]
        centers = {c for R in threefold for c in _rotation_centers(R, hol.translations[R])}
        assert centers, where
        indices = set()
        for A, v in refl:
            a = _reflection_class_data(A, v).axis
            indices.update(abs(ref.det([a, ra.mat_vec(R, a)])) for R in threefold)
        assert all(_on_mirror(c, refl) for c in centers) == (3 in indices), where
        if name in ("p3m1", "p31m"):
            assert indices == {3 if name == "p3m1" else 1}, where
        assert classify2(grp).iuc == name, where


def test_cone_and_corner_classes_match_table():
    # recompute the singular data of each class from fixed points and
    # mirror incidence, one entry per group orbit, and compare with the
    # table carried by the classifier
    for name, grp in wallpaper_groups().items():
        grp = grp.normalize()
        label = TABLE_2D[name]
        classes = ref.cone_point_classes(grp)
        want = sorted(list(label.cone_points) + list(label.corner_reflectors))
        assert classes == want, (name, classes, want)
        # split into interior cone points vs boundary corner reflectors
        hol = grp.holonomy()
        refl = [(A, hol.translations[A]) for A in hol.elements if ref.det(ref.mat(A)) == -1]

        cones, corners = [], []
        seen = set()
        locus = singular_locus(grp)
        centers = {pt: order for pt, order in locus.rotation_centers}
        remaining = set(centers)
        while remaining:
            pt = min(remaining)
            orbit = {pt}
            frontier = [pt]
            while frontier:
                new = []
                for c in frontier:
                    for A in hol.elements:
                        img = ra.vec_add(ra.mat_vec(ref.mat(A), list(c)), list(hol.translations[A]))
                        img = tuple(x - __import__("math").floor(x) for x in img)
                        if img in remaining and img not in orbit:
                            orbit.add(img)
                            new.append(img)
                frontier = new
            (corners if _on_mirror(pt, refl) else cones).append(centers[pt])
            remaining -= orbit
        assert sorted(cones) == sorted(label.cone_points), (name, cones)
        assert sorted(corners) == sorted(label.corner_reflectors), (name, corners)


@pytest.mark.parametrize("verb", [classify2, singular_locus])
def test_plane_functions_reject_other_dimensions(verb):
    with pytest.raises(InvalidGroupError, match="2-dimensional") as info:
        verb(catalog_get("G1").group)
    assert isinstance(info.value, FlatOrbError) and isinstance(info.value, ValueError)


def test_svg_title_escapes_the_group_name():
    grp = CrystalGroup.make(2, [], name="x<y&z")
    doc = render_svg(grp)
    root = ElementTree.fromstring(doc.encode("utf-8"))
    title = root.find("{http://www.w3.org/2000/svg}title")
    assert title is not None and title.text == "x<y&z"


# sha256 of each file that scripts/render_wallpaper_gallery.py writes
GALLERY_SHA256 = {
    "cm": "7c6eb629aff78f052c5c71d4c7fa47d9efaba8bbd21ed8468b07d208c15b366d",
    "cmm": "c27b15fa497f0a8b93590c2b1f137de1051042a10a06ddab8bde0841e8c37124",
    "p1": "21bd9be694b5156f030d3d31e9d6aff69afb7b3844316a11482cee3ded5b899d",
    "p2": "4ff205c98265708c5b08c2979e85c55e3542f41b9661ecbb607e56d589fa98f2",
    "p3": "cbfd4f4314b3572bc7f2b27fea582e7f493846b34a7b4e66b7a6b51f6351af9e",
    "p31m": "951a4fa68c4b39033ea1c958956026eb2432e5a07d76fcc055969560935f28aa",
    "p3m1": "277357eb00661fe9de9faa37e9c3f04c9b3d7fea962d4b98bd5045bddfbe598f",
    "p4": "fff08a6e4aa1d40909d279e980f8db840239f93d2511fd92cac92a4d2e352333",
    "p4g": "c118e5bf5a67a5a06112b8a2620f843574952ed4ab97f7081e4bad0a0a195a09",
    "p4m": "c44f043674012d555f26e13be437de94da608904bb3957459e352e2612310cbd",
    "p6": "194a52474537dc1d0e6a85b7f6ac70717c164cdb1c29bd91d145ea5a81d87adc",
    "p6m": "eedc27e73dedc241948d0ec5fb1b18b99da3a5b2dfd22c66265504d10c7a5467",
    "pg": "c67ef005a307a5068f8cf0303dd7289c3e818b82a7e4cf508285c0a90f7865c4",
    "pgg": "499c7c4636733060dddd07bb9aab2b9c4a49b4bacdf9c6c1204683869d01b972",
    "pm": "42b4b010c9832e2713c7717a37f1d1f4f67900395d963bdcf293c975af951bb1",
    "pmg": "616497d60d36ae7b43944563f7d102dda36a0869e7688040ad9126df9e674e52",
    "pmm": "c299ad2e6c4439483def9b284a3bdfb8a6ce04356b71679a6768328e7208653c",
}


def test_gallery_svgs_are_byte_stable(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "render_wallpaper_gallery.py"
    subprocess.run([sys.executable, str(script), str(tmp_path)], check=True, capture_output=True)
    got = {p.stem: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.svg")}
    assert got == GALLERY_SHA256
