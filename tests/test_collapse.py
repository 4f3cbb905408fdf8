import functools
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from flatorb import rational as ra
from flatorb.catalog import catalog_get, catalog_list, generalized_klein_bottle, three_manifold_groups, torus
from flatorb.collapse import (
    _acts_by,
    _iso_search,
    InvalidSubspaceError,
    NoIsomorphismError,
    collapse,
    invariant_directions,
    is_invariant,
    product_resolution,
    rational_closure,
    rational_isotypic_components,
    verify_theorem_c,
)
from flatorb.groups import CrystalGroup, group_to_dict, holonomy_signature
from flatorb.lattices import rational_span

import reference_algebra as ref


def kb():
    return CrystalGroup.make(2, [([[1, 0], [0, -1]], ["1/2", 0])], name="pg").normalize()


# -- rational closure -------------------------------------------------------


def test_closure_of_invariant_rational_line_is_itself():
    b2 = catalog_get("B2").group
    closed = rational_closure(b2, [[1, 0, 0]])
    assert len(closed) == 1


def test_closure_of_irrational_direction_fills_component():
    b2 = catalog_get("B2").group
    s = math.sqrt(2)
    closed = rational_closure(b2, [[1.0, s, 0.0]])
    # the trivial isotypic plane of B2 is spanned by the first two vectors
    assert len(closed) == 2


def _k5_line():
    # 4 Re(sum_k zeta^-k A^k e2) for K5's order-5 generator A and zeta =
    # e^(2 pi i / 5), an eigenvector of A for zeta: A e2, A e3, A e4 = e3, e4,
    # e5, A e5 = 5 e1 - e2 - e3 - e4 - e5, and cos(2 pi k / 5) is (sqrt5 - 1) / 4
    # for k = 1, 4 and -(sqrt5 + 1) / 4 for k = 2, 3
    r = math.sqrt(5)
    return [[5 * r - 5, 5 - r, 0.0, -2 * r, -2 * r]]


def test_closure_of_irrational_line_in_k5_fills_rational_component():
    # the order-5 holonomy splits R^4 into two complex-type planes with
    # golden-ratio coordinates; together they form one rational component
    k5 = catalog_get("K5").group
    (A,) = [np.array(g.linear) for g in k5.normalize().generators if ra.matrix_order(g.linear) == 5]
    line = _k5_line()
    v = np.array(line[0])
    # the line lies in the plane where A acts as a rotation by 2 pi / 5
    assert np.allclose(A @ A @ v - 2 * math.cos(2 * math.pi / 5) * A @ v + v, 0, atol=1e-12)
    assert len(rational_closure(k5, line)) == 4
    assert collapse(k5, line).label.orbifold_name == "circle"


def test_float_direction_closes_to_its_rational_span():
    # Kummer's holonomy is +-I: (1, sqrt2, 0, 0) spans no rational line, and
    # its rational span, the plane (e1, e2), is already invariant
    kummer = catalog_get("kummer").group
    assert rational_closure(kummer, [[1.0, math.sqrt(2), 0.0, 0.0]]) == ref.mat([[1, 0, 0, 0], [0, 1, 0, 0]])
    assert collapse(kummer, [[1.0, math.sqrt(2), 0.0, 0.0]]).label.orbifold_name == "S2(2,2,2,2;)"
    assert collapse(torus(3), [[1.0, math.sqrt(2), 0.0]]).label.orbifold_name == "circle"


@pytest.mark.parametrize(
    "vector,closed",
    [
        ([0.5, 1.0, 0.0], [[1, 2, 0]]),
        ([0.1, 0.3, 0.0], [[1, 3, 0]]),
        ([0.3333333333333333, 0.0, 1.0], [[1, 0, 3]]),
        # relations (218107, -41152, 0) and (5679, -1234, 0) are beyond LLL
        # at double precision; the decimals are read as fractions instead
        ([0.123456, 0.654321, 0.0], [[1, "218107/41152", 0]]),
        ([0.1234, 0.5679, 0.0], [[1, "5679/1234", 0]]),
    ],
)
def test_decimal_floats_keep_their_rational_closure(vector, closed):
    assert rational_closure(torus(3), [vector]) == ref.mat(closed)


@pytest.mark.parametrize(
    "vectors", [[], [[1, 0]], [[1, 0, 0], [0, 1]], [[0.0, 0.0, 0.0]], [[math.inf, 0.0, 1.0]]]
)
def test_closure_rejects_bad_vectors(vectors):
    g6 = catalog_get("G6").group
    with pytest.raises(InvalidSubspaceError):
        rational_closure(g6, vectors)


def _closure_oracle(group, vectors):
    """Span of the input under the generators' linear parts, grown until stable."""
    grp = group.normalize()
    exact = [ra.vec(v) for v in vectors if not any(isinstance(x, float) for x in v)]
    floats = [v for v in vectors if any(isinstance(x, float) for x in v)]
    if floats:
        exact += rational_span(np.array(floats, dtype=float).T)
    span = [row for row in ref.rref(exact)[0] if any(row)]
    while True:
        images = span + [ra.mat_vec(ref.mat(g.linear), v) for g in grp.generators for v in span]
        grown = [row for row in ref.rref(images)[0] if any(row)]
        if len(grown) == len(span):
            return span
        span = grown


def _is_invariant_oracle(group, basis):
    """Invariance by saturation: the images A v over the whole point group span no more than the basis."""
    images = [ra.mat_vec(A, ra.vec(v)) for A in group.holonomy().elements for v in basis]
    return ra.rank(images) == ra.rank([ra.vec(v) for v in basis])


@pytest.mark.parametrize("key", sorted(catalog_list()))
def test_is_invariant_matches_saturation_oracle(key):
    grp = catalog_get(key).group
    rng = random.Random(f"invariant-{key}")
    cases = rational_isotypic_components(grp)
    if grp.n <= 4:
        cases += [basis for _, basis in invariant_directions(grp, slope_bound=1)]
    for size in (1, 1, 1, 2, 2):
        vectors = []
        while len(vectors) < min(size, grp.n):
            v = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(grp.n)]
            if any(v):
                vectors.append(v)
        cases.append(vectors)
    for basis in cases:
        assert is_invariant(grp, basis) == _is_invariant_oracle(grp, basis), basis


@pytest.mark.parametrize(
    "key",
    [k for k in catalog_list() if (g := catalog_get(k).group).n == 2 and len(g.generators) < g.holonomy().order > 2],
)
def test_is_invariant_on_generator_lists_shorter_than_the_holonomy(key):
    grp = catalog_get(key).group
    lines = [[p, q] for p in range(-3, 4) for q in range(4) if math.gcd(p, q) == 1 and (q or p == 1)]
    answers = [is_invariant(grp, [line]) for line in lines]
    assert answers == [_is_invariant_oracle(grp, [line]) for line in lines]
    assert not all(answers)


FLOAT_CLOSURE_CASES = [
    ("B2", lambda: [[1.0, math.sqrt(2), 0.0]]),
    ("kummer", lambda: [[1.0, math.sqrt(2), 0.0, 0.0]]),
    ("torus-3", lambda: [[1.0, math.sqrt(2), 0.0]]),
    ("torus-3", lambda: [[0.1, 0.3, 0.0]]),
    ("torus-3", lambda: [[0.123456, 0.654321, 0.0]]),
    ("K5", _k5_line),
]


@pytest.mark.parametrize("key", [k for k in catalog_list() if catalog_get(k).group.n <= 4])
def test_closure_of_random_lines_and_planes_matches_oracle(key):
    grp = catalog_get(key).group
    rng = random.Random(key)
    for size in (1, 1, 1, 2, 2):
        vectors = []
        while len(vectors) < min(size, grp.n):
            v = [rng.randint(-3, 3) for _ in range(grp.n)]
            if any(v):
                vectors.append(v)
        assert rational_closure(grp, vectors) == _closure_oracle(grp, vectors), vectors


@pytest.mark.parametrize("key,vectors", FLOAT_CLOSURE_CASES)
def test_closure_of_float_directions_matches_oracle(key, vectors):
    grp = catalog_get(key).group
    assert rational_closure(grp, vectors()) == _closure_oracle(grp, vectors())


def test_closure_axis_direction_klein_bottle():
    closed = rational_closure(kb(), [[0, 1]])
    assert closed == [[Fraction(0), Fraction(1)]]


def test_closure_rotated_line_fills_plane():
    g3 = catalog_get("G3").group
    closed = rational_closure(g3, [[0, 1, 0]])
    assert len(closed) == 2  # the hexagonal plane


# -- collapse of the worked examples ----------------------------------------


def _component(key, idx):
    grp = catalog_get(key).group
    return grp, rational_isotypic_components(grp)[idx]


@pytest.mark.parametrize(
    "key,idx,label",
    [
        ("G2", 0, "S2(2,2,2,2;)"),
        ("G3", 0, "S2(3,3,3;)"),
        ("G3", 1, "circle"),
        ("G4", 0, "S2(2,4,4;)"),
        ("G5", 0, "S2(2,3,6;)"),
        ("G6", 0, "RP2(2,2;)"),
        ("G6", 1, "RP2(2,2;)"),
        ("G6", 2, "RP2(2,2;)"),
        ("B1", 0, "interval"),
        ("B1", 1, "T2"),
        ("B2", 0, "interval"),
        ("B2", 1, "T2"),
        ("B3", 0, "D2(2,2;)"),
        ("B3", 1, "S1xI"),
        ("B3", 2, "K2"),
        ("B4", 0, "RP2(2,2;)"),
        ("B4", 1, "M2"),
        ("B4", 2, "K2"),
    ],
)
def test_component_collapse_labels(key, idx, label):
    grp, piece = _component(key, idx)
    assert collapse(grp, piece).label.orbifold_name == label


def test_klein_bottle_axis_collapses():
    grp = kb()
    assert collapse(grp, [[1, 0]]).label.orbifold_name == "interval"
    assert collapse(grp, [[0, 1]]).label.orbifold_name == "circle"


def test_b2_line_collapses():
    b2 = catalog_get("B2").group
    assert collapse(b2, [[1, 0, 0]]).label.orbifold_name == "M2"
    # v2 line: contains a mirror after projection (the glide composed with
    # the projected third lattice vector), hence a Mobius band
    assert collapse(b2, [[0, 1, 0]]).label.orbifold_name == "M2"


def test_g2_lines_inside_sign_plane():
    g2 = catalog_get("G2").group
    assert collapse(g2, [[0, 1, 0]]).label.orbifold_name == "K2"
    assert collapse(g2, [[0, 1, 2]]).label.orbifold_name == "K2"
    # irrational slope closes up to the whole plane, leaving the circle
    assert collapse(g2, [[0.0, 1.0, math.sqrt(3)]]).label.orbifold_name == "circle"


def test_torus_rational_collapse_gives_torus():
    rng = random.Random(3)
    for n in (2, 3, 4):
        tn = torus(n)
        for _ in range(4):
            k = rng.randint(1, n)
            vecs = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
            from flatorb.collapse import _span_basis

            span = _span_basis([ra.vec(v) for v in vecs])
            if not span:
                continue
            res = collapse(tn, span)
            m = n - len(span)
            expect = {0: "point", 1: "circle", 2: "T2"}.get(m, f"T{m}")
            assert res.label.orbifold_name == expect


def test_collapse_dim_additivity():
    for key in ("G2", "G3", "G4", "G5", "G6", "B1", "B2", "B3", "B4"):
        grp = catalog_get(key).group
        for _, basis in invariant_directions(grp, slope_bound=1):
            res = collapse(grp, basis)
            assert res.quotient.n + res.collapsed_dim == grp.n


def _signed_permutation_group(gens):
    n = len(gens[0])
    return CrystalGroup.make(n, [(g, [0] * n) for g in gens], name="point group").normalize()


@pytest.mark.parametrize(
    "grp",
    [
        catalog_get("p4m").group,
        catalog_get("p6m").group,
        # permutations of three axes: trivial line plus standard plane
        _signed_permutation_group([[[0, 0, 1], [1, 0, 0], [0, 1, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, 1]]]),
        # all signed permutations of three axes, order 48
        _signed_permutation_group(
            [[[0, 0, 1], [1, 0, 0], [0, 1, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]]
        ),
    ],
    ids=["p4m", "p6m", "S3", "B3-48"],
)
def test_rational_components_of_nonabelian_holonomy(grp):
    hol = grp.holonomy()
    assert any(ra.mat_mul(ref.mat(A), ref.mat(B)) != ra.mat_mul(ref.mat(B), ref.mat(A))
               for A in hol.elements for B in hol.elements)
    pieces = rational_isotypic_components(grp)
    assert sum(len(p) for p in pieces) == grp.n
    assert ra.rank([v for p in pieces for v in p]) == grp.n
    for p in pieces:
        assert is_invariant(grp, p)


def test_iterated_collapse_commutes():
    for key in ("G6", "B3", "B4"):
        grp = catalog_get(key).group
        comps = rational_isotypic_components(grp)
        for i in range(len(comps)):
            for j in range(len(comps)):
                if i == j:
                    continue
                direct = collapse(grp, comps[i] + comps[j])
                step1 = collapse(grp, comps[i])
                pushed = step1.push_forward(comps[j])
                step2 = collapse(step1.quotient, pushed)
                assert direct.label.orbifold_name == step2.label.orbifold_name
                assert holonomy_signature(direct.quotient) == holonomy_signature(step2.quotient)


def test_collapse_rejects_noninvariant_without_closure():
    g3 = catalog_get("G3").group
    from flatorb.collapse import NotInvariantError

    for subspace in ([[0, 1, 0]], [[1, 0, 0], [0, 1, 0]]):
        assert not _is_invariant_oracle(g3, subspace)
        with pytest.raises(NotInvariantError):
            collapse(g3, subspace, closure=False)


def test_collapse_quotient_invariants():
    for key in ("G3", "G4", "B3", "B4"):
        grp = catalog_get(key).group
        for _, basis in invariant_directions(grp, slope_bound=1):
            res = collapse(grp, basis)
            q = res.quotient
            if q.n == 0:
                continue
            q.validate()
            assert q.holonomy().cocycle_defects() == []


# -- product resolution -------------------------------------------------------


def test_resolution_pillowcase_with_klein_bottle():
    p2 = catalog_get("p2").group
    prod = product_resolution(p2, kb())
    assert prod.n == 4
    assert prod.is_torsion_free().torsion_free


def test_resolution_interval_with_klein_bottle():
    interval = catalog_get("interval").group
    prod = product_resolution(interval, kb())
    assert prod.n == 3
    assert prod.is_torsion_free().torsion_free


def test_resolution_pmm_with_b3():
    pmm = catalog_get("pmm").group
    b3 = catalog_get("B3").group
    prod = product_resolution(pmm, b3)
    assert prod.n == 5
    assert prod.is_torsion_free().torsion_free


def test_resolution_order_mismatch():
    p4 = catalog_get("p4").group
    with pytest.raises(NoIsomorphismError):
        product_resolution(p4, kb())


@pytest.mark.parametrize("orb,mfd", [("p4", "G6"), ("pmm", "G4")])
def test_resolution_equal_orders_but_not_isomorphic(orb, mfd):
    # Z4 against Z2 x Z2 and back: the orders agree, the groups do not
    with pytest.raises(NoIsomorphismError):
        product_resolution(catalog_get(orb).group, catalog_get(mfd).group)


HALF_TURN = ((-1, 0), (0, -1))  # p2's holonomy is {I, HALF_TURN}
MIRROR = ((1, 0), (0, -1))  # pg's holonomy is {I, MIRROR}
I2 = ((1, 0), (0, 1))


@pytest.mark.parametrize(
    "pairing",
    [
        {HALF_TURN: MIRROR},  # misses the identity
        {I2: MIRROR, HALF_TURN: I2},  # not a homomorphism
        {I2: I2, HALF_TURN: I2},  # a homomorphism, not a bijection
        {I2: I2, HALF_TURN: HALF_TURN},  # HALF_TURN is not in pg's holonomy
    ],
)
def test_resolution_rejects_bad_pairing(pairing):
    with pytest.raises(NoIsomorphismError):
        product_resolution(catalog_get("p2").group, catalog_get("pg").group, pairing=pairing)


@pytest.mark.parametrize("orb,mfd", [("p2", "pg"), ("pmm", "B3"), ("p4", "G4"), ("p6", "G5")])
def test_resolution_accepts_the_pairing_it_finds(orb, mfd):
    o, m = catalog_get(orb).group, catalog_get(mfd).group
    pairing = _iso_search(o.holonomy().elements, m.holonomy().elements)
    assert pairing is not None
    found = product_resolution(o, m, pairing=pairing)
    assert group_to_dict(found) == group_to_dict(product_resolution(o, m))


def test_resolution_rejects_orbifold_partner():
    p2 = catalog_get("p2").group
    from flatorb.groups import FlatOrbError

    with pytest.raises(FlatOrbError):
        product_resolution(kb(), p2)  # partner has torsion


def test_resolution_scale_parameter():
    p2 = catalog_get("p2").group
    prod = product_resolution(p2, kb(), scale=Fraction(1, 4))
    G = ref.mat(prod.gram)
    assert G[2][2] == Fraction(1, 4)


# -- the survey ---------------------------------------------------------------


def test_verify_theorem_c_thirteen_labels():
    rep = verify_theorem_c()
    assert len(rep.label_set) == 13
    # ten of the thirteen classical labels are reproduced on the nose;
    # the two rotation-quotient spheres replace the claimed disk orbifolds
    assert rep.missing == {"D2(4;2)", "D2(3;3)"}
    assert rep.extra == {"S2(2,4,4;)", "S2(2,3,6;)"}


def test_survey_spot_rows():
    rep = verify_theorem_c()
    rows = {(g, d): l for g, d, l in rep.collapses}
    assert rows[("B3", "W2")] == "S1xI"
    assert rows[("B4", "W1")] == "RP2(2,2;)"
    assert rows[("G3", "W1")] == "S2(3,3,3;)"


def test_generalized_klein_bottle_collapse():
    k3 = generalized_klein_bottle(3)
    # the fixed axis is the diagonal; collapsing the complementary plane
    # leaves a circle
    dirs = dict(invariant_directions(k3))
    assert "W1" in dirs
    res = collapse(k3, dirs["W1"])
    assert res.label.orbifold_name in {"S2(3,3,3;)", "circle"}


@functools.cache
def _survey_quotients():
    """The quotients the Theorem C survey queues: iterated collapses, one per holonomy signature."""
    out, seen = [], set()
    queue = [(g.normalize(), 0) for g in three_manifold_groups()]
    while queue:
        grp, depth = queue.pop(0)
        for _, basis in invariant_directions(grp):
            q = collapse(grp, basis).quotient
            sig = (q.n, holonomy_signature(q))
            if depth < 3 and q.n >= 1 and sig not in seen:
                seen.add(sig)
                out.append(q)
                queue.append((q, depth + 1))
    return tuple(out)


def _span_key(basis):
    R, pivots = ra.rref(basis)
    return tuple(map(tuple, R[: len(pivots)]))


def _directions_by_brute_force(grp, directions):
    """The library's components and lines, then the planes by brute force.

    Every pair of 1-dimensional directions that spans a plane, kept iff the
    saturation oracle finds it invariant; a span listed before is dropped.
    """
    out = [(name, _span_key(basis)) for name, basis in directions if "+" not in name]
    seen = {key for _, key in out}
    units = [(name, key) for name, key in out if len(key) == 1]
    for (na, a), (nb, b) in itertools.combinations(units, 2):
        key = _span_key(a + b)
        if len(key) == 2 and key not in seen and _is_invariant_oracle(grp, key):
            seen.add(key)
            out.append((f"{na}+{nb}", key))
    return out


def test_invariant_directions_match_brute_force_planes():
    groups = [catalog_get(k).group for k in catalog_list() if catalog_get(k).group.n <= 4]
    groups += [catalog_get("joyce-O1").group, catalog_get("joyce-O2").group]
    assert len(_survey_quotients()) == 25
    for grp in groups + list(_survey_quotients()):
        directions = invariant_directions(grp, slope_bound=1)
        got = [(name, _span_key(basis)) for name, basis in directions]
        assert got == _directions_by_brute_force(grp, directions), grp.name


def test_a_plane_through_non_invariant_lines_can_be_invariant():
    # joyce-O1's W2 is a 4-dimensional non-scalar component; two of its
    # lines, each not invariant, span an invariant plane
    grp = catalog_get("joyce-O1").group
    dirs = dict(invariant_directions(grp, slope_bound=1))
    assert len(dirs["W2"]) == 4 and not _acts_by(grp, dirs["W2"], (1, -1))
    assert not _is_invariant_oracle(grp, dirs["W2[1:0]"])
    assert not _is_invariant_oracle(grp, dirs["W2[0:1]"])
    assert _is_invariant_oracle(grp, dirs["W2[1:0]+W2[0:1]"])


def test_collapse_keeps_the_subspace_as_integer_hermite_rows():
    for grp in three_manifold_groups():
        for _, basis in invariant_directions(grp):
            res = collapse(grp, basis)
            closed = rational_closure(grp, basis)
            assert all(type(x) is int for row in res.subspace for x in row)
            assert ra.rref(res.subspace)[0] == closed
            assert res.collapsed_dim == len(closed) == grp.n - res.quotient.n


def test_acts_by_on_generators_matches_all_holonomy_elements():
    groups = [catalog_get(key).group for key in catalog_list()] + list(_survey_quotients())
    assert len(groups) > 49
    outcomes = set()
    for grp in groups:
        elements = grp.holonomy().elements
        for piece in rational_isotypic_components(grp):
            for scalars in ((1,), (1, -1)):
                brute = all(
                    any(all(ra.mat_vec(A, v) == [c * x for x in v] for v in piece) for c in scalars)
                    for A in elements
                )
                assert _acts_by(grp, piece, scalars) == brute, (grp.name, piece, scalars)
                outcomes.add(brute)
    assert outcomes == {True, False}


# sha256 of every collapse quotient (generators, Gram form) and coordinate
# map over the ten flat 3-manifolds' invariant directions, each quotient's
# own directions collapsed once more; the value the Fraction-matrix
# construction of the quotient gave
QUOTIENT_PIN_SHA256 = "40c0c7c7361d0920e959d29fda1f7eb05611a8f083fd203415019d68f0d00e33"


def test_collapse_quotients_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for grp in three_manifold_groups():
        for _, basis in invariant_directions(grp):
            res = collapse(grp, basis)
            results = [res]
            if res.quotient.n >= 1:
                results += [collapse(res.quotient, b) for _, b in invariant_directions(res.quotient)]
            for r in results:
                doc = {
                    "quotient": group_to_dict(r.quotient),
                    "coord_map": [[ra.fraction_str(x) for x in row] for row in r.coord_map],
                }
                digest.update(json.dumps(doc, sort_keys=True).encode())
                count += 1
                assert all(type(x) is int for row in r.coord_map for x in row)
    assert count == 735
    assert digest.hexdigest() == QUOTIENT_PIN_SHA256


def _reference_collapse(grp, W):
    """The quotient by the rational construction that the integer one replaced.

    C is the rref kernel of W^T G, (A, R) the integer quotient map, Y the
    Hermite basis of the complement projection (A C)^-1 Z^m and D = C Y the
    quotient basis in old coordinates; returns the normalized quotient and
    the coordinate map with its refinement folded in.
    """
    n, m = grp.n, grp.n - len(W)
    G = ref.mat(grp.gram)
    C = ref.transpose(ra.kernel([ra.mat_vec(G, w) for w in W]))
    A, R = ra.quotient_map(W, n)
    ACinv_t = ref.transpose(ref.inverse(ra.mat_mul(A, C)))
    d = math.lcm(*(x.denominator for row in ACinv_t for x in row))
    H, V = ra.hnf([[int(x * d) for x in row] for row in ACinv_t])
    Y = [[Fraction(h[j], d) for h in H] for j in range(m)]
    coord_map = ra.mat_mul(ref.transpose(ra.unimodular_inverse(V)), A)
    RU0 = ra.mat_mul(R, ref.transpose(V))
    gens = [
        (ra.mat_mul(coord_map, ra.mat_mul(g.linear, RU0)), ra.mat_vec(coord_map, g.translation))
        for g in grp.generators
    ]
    D = ra.mat_mul(C, Y)
    quotient = CrystalGroup.make(m, gens, gram=ra.mat_mul(ref.transpose(D), ra.mat_mul(G, D))).normalize()
    if quotient.Binv is not None:
        coord_map = ra.mat_mul(quotient.Binv, coord_map)
    return quotient, coord_map


def _random_torus_collapse(rng):
    """A torus of dimension 2-6 with a random rational Gram form, and a random subspace of rank 1..n-1."""
    n = rng.randint(2, 6)
    while True:
        P = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if ref.det(P):
            break
    scales = [Fraction(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(n)]
    gram = [[sum(P[k][i] * c * P[k][j] for k, c in enumerate(scales)) for j in range(n)] for i in range(n)]
    k = rng.randint(1, n - 1)
    while True:
        W = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        if ra.rank(W) == k:
            return CrystalGroup.make(n, [], gram=gram).normalize(), W


def test_integer_quotient_matches_the_rational_construction():
    jobs = [
        (grp, basis)
        for grp in three_manifold_groups() + list(_survey_quotients())
        for _, basis in invariant_directions(grp)
    ]
    rng = random.Random(20)
    jobs += [_random_torus_collapse(rng) for _ in range(300)]
    checked = 0
    for grp, basis in jobs:
        res = collapse(grp, basis)
        if res.quotient.n == 0:
            continue
        quotient, coord_map = _reference_collapse(grp.normalize(), [list(w) for w in res.subspace])
        assert [list(row) for row in res.coord_map] == coord_map, (grp.name, basis)
        assert res.quotient.generators == quotient.generators, (grp.name, basis)
        assert res.quotient.gram == quotient.gram, (grp.name, basis)
        checked += 1
    assert checked == 244 + 300


def test_collapse_eliminates_only_the_k_by_k_form(monkeypatch):
    # the survey's directions come first: _sublattice_basis still takes a kernel
    golden = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "collapse-survey.json").read_text()
    )["ops"]
    jobs = [
        (f"collapse:{grp.name}:{name}", grp, basis)
        for grp in three_manifold_groups()
        for name, basis in invariant_directions(grp)
    ]
    assert len(jobs) == 177

    def forbidden(*args, **kwargs):
        raise AssertionError("collapse() called a rational elimination")

    shapes = []
    adjugate = ra.adjugate
    for name in ("echelon", "rref", "kernel", "quotient_map"):
        monkeypatch.setattr(ra, name, forbidden)
    monkeypatch.setattr(ra, "adjugate", lambda M: shapes.append((len(M), len(M[0]))) or adjugate(M))
    for op_id, grp, basis in jobs:
        shapes.clear()
        res = collapse(grp, basis)
        assert res.label.orbifold_name == golden[op_id]["output"]["label"], op_id
        k = res.collapsed_dim
        assert shapes == ([] if k == grp.n else [(k, k)]), op_id
