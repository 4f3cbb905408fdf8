"""Independent verification of the errata to the classical table.

The acceptance suite lists seven entries of a classical table that the
stored groups cannot realise (`ERRATA` in test_acceptance.py).  The checks
below confirm each computed label through raw structural invariants of the
collapsed quotient, without the classifier's decision tree, and the errata
checks at the end rule out each classical label from the source group's
holonomy alone, without collapse() or classify2():

  * collapsing an invariant subspace W restricts every holonomy element to
    the Gram-orthogonal complement of W, so the point group of the limit is
    a homomorphic image of the holonomy H.  Its order divides |H|, it is
    cyclic when H is, and where H preserves orientation and fixes W
    pointwise it has no element of determinant -1;
  * a quotient whose non-identity isometries all preserve orientation and
    act with isolated fixed points is a closed orientable orbifold (an
    S2-type label), never a disk with boundary;
  * boundary requires a reflection, i.e. an element with a pointwise-fixed
    line;
  * glide-only non-orientable quotients with two order-2 cone points match
    RP2(2,2;), while the pillowcase has four cone points and orientation-
    preserving holonomy.
"""

import itertools
import math
from fractions import Fraction

from flatorb import rational as ra
from flatorb.catalog import catalog_get, three_manifold_groups
from flatorb.collapse import collapse, rational_isotypic_components
from flatorb.groups import AffineElement
from flatorb.wallpaper import singular_locus

import reference_algebra as ref


def _quotient(key, comp_index):
    grp = catalog_get(key).group
    piece = rational_isotypic_components(grp)[comp_index]
    return collapse(grp, piece).quotient


def _dets(grp):
    return sorted(int(ref.det(ref.mat(A))) for A in grp.holonomy().elements)


def _has_mirror(grp):
    return bool(singular_locus(grp).mirror_segments)


def _cone_orders(grp):
    return ref.cone_point_classes(grp)


def test_g2_axis_collapse_is_the_pillowcase():
    q = _quotient("G2", 0)
    # orientation preserving throughout: no boundary is possible
    assert _dets(q) == [1, 1]
    assert not _has_mirror(q)
    assert _cone_orders(q) == [2, 2, 2, 2]


def test_g4_axis_collapse_is_the_244_turnover():
    q = _quotient("G4", 0)
    assert _dets(q) == [1, 1, 1, 1]
    assert not _has_mirror(q)
    assert _cone_orders(q) == [2, 4, 4]


def test_g5_axis_collapse_is_the_236_turnover():
    q = _quotient("G5", 0)
    assert _dets(q) == [1] * 6
    assert not _has_mirror(q)
    assert _cone_orders(q) == [2, 3, 6]


def test_b4_axis_collapse_is_glide_only():
    q = _quotient("B4", 0)
    # non-orientable, but with no pointwise-fixed line: no boundary, and
    # not the pillowcase either (whose holonomy preserves orientation)
    assert _dets(q) == [-1, -1, 1, 1]
    assert not _has_mirror(q)
    assert _cone_orders(q) == [2, 2]


def test_g7_contains_an_explicit_mirror():
    # generators of the seventh plane presentation, composed by hand:
    # T4 o T3 o T2^{-1} fixes the vertical line x = 1/4 pointwise
    t2 = AffineElement.of([[1, 0], [0, 1]], [0, 1])
    t3 = AffineElement.of([[-1, 0], [0, 1]], [0, Fraction(1, 2)])
    t4 = AffineElement.of([[1, 0], [0, 1]], [Fraction(1, 2), Fraction(1, 2)])
    mirror = t4 * t3 * t2.inverse()
    assert mirror.linear == ((-1, 0), (0, 1))
    assert mirror.translation == (Fraction(1, 2), Fraction(0))
    for y in (0, Fraction(1, 3), Fraction(-7, 5)):
        p = [Fraction(1, 4), ra.frac(y)]
        assert mirror.apply(p) == p
    # a closed surface group cannot contain a reflection with a fixed line
    grp = catalog_get("plane-G7").group
    assert _has_mirror(grp)


def test_disputed_quotients_still_satisfy_all_group_invariants():
    for key, idx in (("G2", 0), ("G4", 0), ("G5", 0), ("B4", 0)):
        q = _quotient(key, idx)
        q.validate()
        assert ref.cocycle_defects(q.holonomy()) == []
        # cone points really are fixed: re-check via the witness machinery
        for pt, order in singular_locus(q).rotation_centers:
            fixed = False
            hol = q.holonomy()
            for A in hol.elements:
                M = ref.mat(A)
                if ref.det(M) != 1 or ra.matrix_order(M, cap=12) != order:
                    continue
                img = ra.vec_add(ra.mat_vec(M, list(pt)), list(hol.translations[A]))
                if all(x.denominator == 1 for x in ref.vec_sub(img, list(pt))):
                    fixed = True
            assert fixed


# -- the errata, from holonomy images alone ----------------------------------


def _restriction_image(grp, W):
    """The holonomy restricted to the Gram-orthogonal complement of span(W).

    Matrices are written in a rational basis of the complement; order,
    determinants and cyclicity do not depend on that basis.
    """
    G = ref.mat(grp.gram)
    perp = ra.kernel([ra.mat_vec(G, ra.vec(w)) for w in W])
    B = ref.transpose(perp)
    image = set()
    for A in grp.holonomy().elements:
        cols = [ref.solve(B, ra.mat_vec(ref.mat(A), b)) for b in perp]
        assert None not in cols  # the complement of an invariant subspace is invariant
        image.add(tuple(map(tuple, ref.transpose(cols))))
    return image


def _point_group(key):
    return set(catalog_get(key).group.holonomy().elements)


def _order_and_dets(mats):
    return len(mats), {int(ref.det(ref.mat(M))) for M in mats}


def _is_cyclic(mats):
    return any(ra.matrix_order(ref.mat(M)) == len(mats) for M in mats)


def _w1_fixed_pointwise(grp):
    """W1 of the survey, checked to be fixed by every holonomy element."""
    (w,) = rational_isotypic_components(grp)[0]
    for A in grp.holonomy().elements:
        assert ra.mat_vec(ref.mat(A), ra.vec(w)) == ra.vec(w)
    return [w]


def test_g2_erratum_pmg_needs_a_larger_holonomy():
    grp = catalog_get("G2").group
    # any image of H has at most |H| = 2 elements; pmg's point group has 4
    assert grp.holonomy().order == 2
    assert _order_and_dets(_point_group("pmg")) == (4, {1, -1})
    image = _restriction_image(grp, _w1_fixed_pointwise(grp))
    assert _order_and_dets(image) == _order_and_dets(_point_group("p2")) == (2, {1})


def test_g4_erratum_p4g_needs_mirrors_and_order_8():
    grp = catalog_get("G4").group
    # H lies in SO(3) and fixes W1 pointwise, so each restriction keeps det 1
    assert _dets(grp) == [1, 1, 1, 1]
    image = _restriction_image(grp, _w1_fixed_pointwise(grp))
    assert _order_and_dets(image) == (4, {1})
    assert _order_and_dets(_point_group("p4g")) == (8, {1, -1})
    assert _order_and_dets(image) == _order_and_dets(_point_group("p4"))


def test_g5_erratum_p31m_needs_mirrors_and_a_dihedral_point_group():
    grp = catalog_get("G5").group
    assert _dets(grp) == [1] * 6
    image = _restriction_image(grp, _w1_fixed_pointwise(grp))
    assert _order_and_dets(image) == (6, {1})
    assert _is_cyclic(image)
    p31m = _point_group("p31m")
    # same order, but D3 has mirrors and is no image of the cyclic Z6
    assert _order_and_dets(p31m) == (6, {1, -1})
    assert not _is_cyclic(p31m)
    assert _order_and_dets(image) == _order_and_dets(_point_group("p6"))
    assert _is_cyclic(_point_group("p6"))


def _shift(A, s):
    """A - s I."""
    return [[x - (s if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(A)]


def _invariant_lines_of_sign_group(grp):
    """All invariant lines of a holonomy made of commuting involutions.

    Every element acts on an invariant line by +1 or -1, so each invariant
    line lies in a joint eigenspace of the generators; when every joint
    eigenspace is at most a line, these are all the invariant lines.
    """
    gens = [ref.mat(g.linear) for g in grp.generators]
    lines = []
    for signs in itertools.product((1, -1), repeat=len(gens)):
        space = ra.kernel([row for A, s in zip(gens, signs) for row in _shift(A, s)])
        assert len(space) <= 1
        lines.extend([v] for v in space)
    assert len(lines) == grp.n
    return lines


def test_b4_erratum_no_invariant_line_yields_the_pillowcase():
    grp = catalog_get("B4").group
    assert _order_and_dets(_point_group("p2")) == (2, {1})
    lines = _invariant_lines_of_sign_group(grp)
    w1 = rational_isotypic_components(grp)[0]
    assert any(ra.rank([line[0], w1[0]]) == 1 for line in lines)
    for line in lines:
        # diag(1,1,-1) or diag(1,-1,1) restricts to det -1 on every complement
        assert -1 in _order_and_dets(_restriction_image(grp, line))[1]
    image = _restriction_image(grp, w1)
    assert _order_and_dets(image) == _order_and_dets(_point_group("pgg")) == (4, {1, -1})


def test_label_set_errata_need_holonomy_no_flat_3_manifold_has():
    # an image of H has an order dividing |H|, and is cyclic when H is
    assert _order_and_dets(_point_group("p4g"))[0] == 8
    p31m = _point_group("p31m")
    assert len(p31m) == 6 and not _is_cyclic(p31m)
    orders = {}
    for grp in three_manifold_groups():
        hol = set(grp.holonomy().elements)
        orders[grp.name] = len(hol)
        assert len(hol) % 8 != 0  # no image is p4g's point group: no D2(4;2)
        if len(hol) % 6 == 0:
            assert _is_cyclic(hol)  # no image is D3: no D2(3;3)
    assert [k for k, order in orders.items() if order % 6 == 0] == ["G5"]


def _primitive(v):
    d = math.lcm(*(x.denominator for x in v))
    ints = [int(x * d) for x in v]
    g = math.gcd(*ints)
    return [x // g for x in ints]


def _centring_index(grp):
    """Index of the sum of the +1 and -1 eigenlattices of a reflection holonomy.

    It is 1 for a rectangular lattice (pm, pg) and 2 for a centred one (cm).
    """
    (R,) = [ref.mat(A) for A in grp.holonomy().elements if ref.det(ref.mat(A)) == -1]
    (u,) = ra.kernel(_shift(R, 1))
    (v,) = ra.kernel(_shift(R, -1))
    u, v = _primitive(u), _primitive(v)
    return abs(u[0] * v[1] - u[1] * v[0])


def test_g7_erratum_is_cm_not_the_klein_bottle():
    g7 = catalog_get("plane-G7").group
    # K2 is a closed surface: its group pg is torsion-free, plane-G7 is not
    assert catalog_get("pg").group.is_torsion_free().torsion_free
    assert not g7.is_torsion_free().torsion_free
    # a reflection holonomy of order 2 on a centred lattice: the arithmetic
    # class of cm, which holds no other plane group
    assert _order_and_dets(_point_group("plane-G7")) == _order_and_dets(_point_group("cm")) == (2, {1, -1})
    assert _centring_index(g7) == _centring_index(catalog_get("cm").group) == 2
    assert _centring_index(catalog_get("pg").group) == 1
