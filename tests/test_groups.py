import importlib
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatorb import catalog, groups
from flatorb import rational as ra
from flatorb.catalog import catalog_get, catalog_list, generalized_klein_bottle
from flatorb.groups import (
    AffineElement,
    CapExceededError,
    CrystalGroup,
    FlatOrbError,
    GroupNotNormalizedError,
    HolonomyData,
    InvalidGroupError,
    group_from_dict,
    group_to_dict,
)

import reference_algebra as ref

# the package re-exports a function named collapse, so import the module by path
collapse_module = importlib.import_module("flatorb.collapse")


def klein_bottle():
    return CrystalGroup.make(2, [([[1, 0], [0, -1]], ["1/2", 0])], name="pg").normalize()


def pillowcase():
    return CrystalGroup.make(2, [([[-1, 0], [0, -1]], [0, 0])], name="p2").normalize()


def test_compose_translations_add():
    a = AffineElement.of([[1, 0], [0, 1]], [1, 2])
    b = AffineElement.of([[1, 0], [0, 1]], ["1/2", 0])
    assert (a * b).translation == (Fraction(3, 2), Fraction(2))


def test_inverse_law():
    g = AffineElement.of([[0, -1], [1, 0]], ["1/3", "1/4"])
    assert g * g.inverse() == AffineElement.identity(2)
    assert g.inverse() * g == AffineElement.identity(2)
    with pytest.raises(ValueError):
        AffineElement.of([[2, 0], [0, 1]], [0, 0]).inverse()


def test_glide_squares_to_unit_translation():
    g = AffineElement.of([[1, 0], [0, -1]], ["1/2", 0])
    assert (g * g) == AffineElement.of([[1, 0], [0, 1]], [1, 0])


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


def test_group_law_random_battery():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.choice([2, 3])
        els = []
        for _ in range(3):
            A = _random_unimodular(rng, n)
            v = [Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 4])) for _ in range(n)]
            els.append(AffineElement.of(A, v))
        a, b, c = els
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == AffineElement.identity(n)


def test_normalize_keeps_plain_glide():
    kb = klein_bottle()
    assert kb.normalized
    assert len(kb.generators) == 1
    assert kb.holonomy().order == 2


def test_normalize_absorbs_half_translation():
    # generators: glide T4 with T4^2 = T1 pattern plus an explicit half shift
    grp = CrystalGroup.make(
        2,
        [
            ([[-1, 0], [0, 1]], [0, 0]),
            ([[1, 0], [0, 1]], ["1/2", "1/2"]),
        ],
        name="centered-presentation",
    ).normalize()
    # lattice refined: gram determinant drops by the index squared
    assert ref.det(ref.mat(grp.gram)) == Fraction(1, 4)
    assert grp.holonomy().order == 2


def test_normalize_refines_scaled_lattice():
    # provisional basis e1, 2*e2 (gram diag(1,4)) with a stored half step of the
    # long vector: refinement recovers the unit square lattice
    grp = CrystalGroup.make(
        2,
        [([[1, 0], [0, 1]], [0, "1/2"])],
        gram=[[1, 0], [0, 4]],
    ).normalize()
    assert ref.mat(grp.gram) == ra.identity(2)
    assert grp.holonomy().order == 1


def test_basis_change_is_noted_only_when_the_lattice_is_refined():
    assert CrystalGroup.make(2, [([[-1, 0], [0, -1]], ["1/2", 0])]).normalize().Binv is None
    # (P, e1/3) with P the 3-cycle: its cube is the hidden translation (1/3, 1/3, 1/3)
    cycle = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    grp = CrystalGroup.make(3, [(cycle, ["1/3", 0, 0])]).normalize()
    assert all(type(x) is int for row in grp.Binv for x in row)
    assert ref.det(grp.Binv) == 3
    assert all(x.denominator == 1 for x in ra.mat_vec(grp.Binv, ra.vec(["1/3", "1/3", "1/3"])))
    B = ref.inverse(grp.Binv)
    assert ref.mat(grp.gram) == ra.mat_mul(ref.transpose(B), B)
    assert grp.holonomy().order == 3


def test_one_closure_finds_every_hidden_translation(monkeypatch):
    # (1/2, 0) alone spans no swap-invariant lattice; the closure also
    # returns its image (0, 1/2), so one refinement reaches the lattice
    swap, half = ([[0, 1], [1, 0]], [0, 0]), ([[1, 0], [0, 1]], ["1/2", 0])
    grp = CrystalGroup.make(2, [swap, half])
    _, translations = _closure_as_fractions(2, grp.generators)
    assert sorted(translations) == [(0, Fraction(1, 2)), (Fraction(1, 2), 0)]
    calls = []
    closure = groups._coset_closure
    monkeypatch.setattr(groups, "_coset_closure", lambda *a: calls.append(a) or closure(*a))
    normal = grp.normalize()
    assert normal.Binv == ((2, 0), (0, 2))
    assert normal.holonomy().order == 2
    assert len(calls) == 2
    calls.clear()
    k7 = catalog_get("K7").group
    assert k7.Binv is not None
    k7.holonomy()
    assert len(calls) == 2


def _hidden_translation_presentation(grp, rng, ks=(2, 3, 4, 6)):
    """grp over a provisional lattice k times its own, k in ks, in a random basis.

    The lattice's own vectors then have coordinates in Z^n / k; besides
    the rescaled generators the presentation lists 1-2 random pure
    translations t / k and a random subset of the e_i / k, all returned.
    """
    n = grp.n
    k = rng.choice(ks)
    P = _random_unimodular(rng, n)
    Pinv = ref.inverse(P)
    gens = []
    for g in grp.generators:
        A = ra.mat_mul(Pinv, ra.mat_mul(ref.mat(g.linear), P))
        gens.append((A, [x / k for x in ra.mat_vec(Pinv, list(g.translation))]))
    shifts = [[Fraction(rng.randint(-k, k), k) for _ in range(n)] for _ in range(rng.randint(1, 2))]
    shifts += [[Fraction(int(i == j), k) for j in range(n)] for i in range(n) if rng.random() < 0.5]
    gens += [(ra.identity(n), t) for t in shifts]
    rng.shuffle(gens)
    gram = ra.mat_mul(ref.transpose(P), ra.mat_mul(ref.mat(grp.gram), P))
    return CrystalGroup.make(n, gens, gram=[[x * k * k for x in row] for row in gram]), shifts


def _fraction_coset_closure(n, generators):
    """The closure on ``Fraction`` translations reduced into [0,1)^n: the reference.

    It composes ``AffineElement``s and returns (table, translations) with
    the coset translations r_A and the hidden translations as ``Fraction``
    tuples, in the order the integer closure meets them.
    """
    frac_part = lambda v: tuple(x - math.floor(x) for x in v)
    table = {groups._int_identity(n): (Fraction(0),) * n}
    translations = {}
    queue = list(generators)
    while queue:
        g = queue.pop()
        v = frac_part(g.translation)
        seen = table.get(g.linear)
        if seen is not None:
            if seen != v:
                translations[frac_part(tuple(a - b for a, b in zip(v, seen)))] = None
            continue
        table[g.linear] = v
        queue.extend(AffineElement(g.linear, v) * h for h in generators)
    return table, list(translations)


def _closure_as_fractions(n, generators):
    """``groups._coset_closure`` with its numerators over N read as ``Fraction``s."""
    table, translations, N = groups._coset_closure(n, generators)
    as_fractions = lambda a: tuple(Fraction(x, N) for x in a)
    return {A: as_fractions(a) for A, a in table.items()}, [as_fractions(t) for t in translations]


def test_integer_closure_matches_the_fraction_closure():
    # every catalog entry as stored and normalized, the presentations of
    # test_normalize_absorbs_hidden_translations, and one more per entry
    # over a lattice k times its own for k up to 12
    rng = random.Random(26)
    cases = []
    for key in sorted(catalog_list()):
        grp = catalog_get(key).group
        cases += [groups.load_group(catalog.DATA_DIR / catalog._index()["entries"][key]["file"]), grp]
        if grp.n <= 3:
            key_rng = random.Random(key)
            cases += [_hidden_translation_presentation(grp, key_rng)[0] for _ in range(2)]
            cases.append(_hidden_translation_presentation(grp, rng, ks=range(2, 13))[0])
    assert len(cases) == 2 * 49 + 3 * sum(1 for key in catalog_list() if catalog_get(key).group.n <= 3)
    refined = 0
    for grp in cases:
        table, translations = _closure_as_fractions(grp.n, grp.generators)
        want_table, want_translations = _fraction_coset_closure(grp.n, grp.generators)
        assert table == want_table, grp.name
        assert translations == want_translations, grp.name
        refined += bool(translations)
    assert refined > 9


@pytest.mark.parametrize(
    "key", [k for k in sorted(catalog_list()) if catalog_get(k).group.n <= 3]
)
def test_normalize_absorbs_hidden_translations(key):
    entry = catalog_get(key)
    rng = random.Random(key)
    for _ in range(2):
        raw, shifts = _hidden_translation_presentation(entry.group, rng)
        grp = raw.normalize()
        hol = grp.holonomy()
        assert hol.order == entry.expected["holonomy_order"]
        assert [grp.betti(j) for j in range(grp.n + 1)] == [entry.group.betti(j) for j in range(grp.n + 1)]
        assert ref.cocycle_defects(hol) == []
        Binv = ra.identity(grp.n) if grp.Binv is None else grp.Binv
        for t in shifts:
            assert all(x.denominator == 1 for x in ra.mat_vec(Binv, t)), (key, t)


def _refined_gram_reference(raw):
    """H G H^T / d^2 in Fractions: H the Hermite form of d Z^n and d times the hidden translations."""
    n = raw.n
    _, translations = _closure_as_fractions(n, raw.generators)
    d = math.lcm(*(x.denominator for t in translations for x in t))
    rows = [[d * int(i == j) for j in range(n)] for i in range(n)]
    H = ra.hnf(rows + [[int(d * x) for x in t] for t in translations])[0][:n]
    return [[x / d**2 for x in row] for row in ra.mat_mul(H, ra.mat_mul(ref.mat(raw.gram), ref.transpose(H)))]


REFINED_CATALOG_KEYS = ["K2", "K3", "K5", "K7", "plane-G3", "plane-G4", "plane-G5", "plane-G6", "plane-G7"]


def test_refined_gram_form_matches_the_fraction_formula():
    assert sorted(k for k in catalog_list() if catalog_get(k).group.Binv is not None) == REFINED_CATALOG_KEYS
    raws = []
    for key in REFINED_CATALOG_KEYS:
        meta = catalog._index()["entries"][key]
        raws.append(groups.load_group(catalog.DATA_DIR / meta["file"]))
    rng = random.Random(21)
    raws += [
        _hidden_translation_presentation(catalog_get(key).group, rng)[0]
        for key in sorted(catalog_list())
        if catalog_get(key).group.n <= 4
    ]
    refined = [(raw, grp) for raw, grp in ((raw, raw.normalize()) for raw in raws) if grp.Binv is not None]
    assert len(refined) == 9 + 42
    for raw, grp in refined:
        assert [list(row) for row in grp.gram] == _refined_gram_reference(raw), raw.name


def _quotient_gram_reference(grp, res):
    """B^T G B in Fractions: B = P C^T (C C^T)^-1 spans the quotient lattice in old coordinates.

    P = I - W^T (W G W^T)^-1 W G is the G-orthogonal projection along the
    collapsed span W, and C the coordinate map with the quotient's own
    refinement folded in, so column i of B is the complement point that the
    quotient calls e_i.
    """
    G, W, C = ref.mat(grp.gram), ref.mat(res.subspace), ref.mat(res.coord_map)
    WG = ra.mat_mul(W, G)
    WtK = ra.mat_mul(ref.transpose(W), ref.inverse(ra.mat_mul(WG, ref.transpose(W))))
    P = [[int(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(ra.mat_mul(WtK, WG))]
    B = ra.mat_mul(P, ra.mat_mul(ref.transpose(C), ref.inverse(ra.mat_mul(C, ref.transpose(C)))))
    return ra.mat_mul(ref.transpose(B), ra.mat_mul(G, B))


def test_integer_gram_form_matches_the_fraction_formulas(monkeypatch):
    # the Fraction Gram forms a group used to hold, each against the integer
    # form (Gi, d) it holds now: the input read entry by entry through
    # ra.frac (every entry as stored, and the seeded presentations of
    # test_normalize_absorbs_hidden_translations), the refined form
    # H G H^T / d^2 of normalize, and the quotient form of every collapse
    # the Theorem C survey makes
    made = []
    make = CrystalGroup.make

    def recording_make(n, generators=(), gram=None, name=None):
        grp = make(n, generators, gram, name)
        made.append((grp, tuple(tuple(map(ra.frac, row)) for row in (ra.identity(n) if gram is None else gram))))
        return grp

    monkeypatch.setattr(CrystalGroup, "make", staticmethod(recording_make))
    small = [(key, catalog_get(key).group) for key in sorted(catalog_list())]
    small = [(key, grp) for key, grp in small if grp.n <= 3]
    made.clear()
    for key in sorted(catalog_list()):
        groups.load_group(catalog.DATA_DIR / catalog._index()["entries"][key]["file"])
    for key, grp in small:
        rng = random.Random(key)
        for _ in range(2):
            _hidden_translation_presentation(grp, rng)
    assert len(made) == 49 + 2 * 41
    checked = []
    for raw, stored in made:
        grp = raw.normalize()
        checked += [(raw, stored), (grp, stored if grp.Binv is None else _refined_gram_reference(raw))]
    assert sum(grp.Binv is not None for grp, _ in checked[1::2]) > 9

    quotients = []
    collapse_fn = collapse_module.collapse

    def recording_collapse(grp, basis, **kwargs):
        res = collapse_fn(grp, basis, **kwargs)
        quotients.append((res.quotient, _quotient_gram_reference(grp.normalize(), res) if res.quotient.n else ()))
        return res

    monkeypatch.setattr(collapse_module, "collapse", recording_collapse)
    collapse_module.survey_collapses(catalog.three_manifold_groups())
    assert len(quotients) == 282
    checked += quotients

    for grp, reference in checked:
        Gi, d = grp.gram_int
        assert (list(map(list, Gi)), d) == ra.clear_denominators(grp.gram), grp.name
        assert math.gcd(d, *(x for row in Gi for x in row)) == 1, grp.name
        assert [list(row) for row in grp.gram] == [list(row) for row in reference], grp.name
        assert group_to_dict(grp)["gram"] == [[ra.fraction_str(x) for x in row] for row in reference], grp.name


def test_closure_multiplies_by_the_generators_alone(monkeypatch):
    def inverse(self):
        raise AssertionError("the closure took an inverse")

    monkeypatch.setattr(AffineElement, "inverse", inverse)
    for key in ("G2", "G6", "p6m", "K5", "joyce-O1"):
        assert catalog_get(key).group.holonomy().order == catalog_get(key).expected["holonomy_order"]


def test_holonomy_requires_normalize():
    grp = CrystalGroup.make(2, [([[1, 0], [0, -1]], ["1/2", 0])])
    with pytest.raises(GroupNotNormalizedError):
        grp.holonomy()


def test_holonomy_torus_trivial():
    t2 = CrystalGroup.make(2, [], name="p1").normalize()
    assert t2.holonomy().order == 1


def test_holonomy_cocycle_identity():
    for grp in (klein_bottle(), pillowcase()):
        assert ref.cocycle_defects(grp.holonomy()) == []


def test_torsion_free_klein_bottle():
    assert klein_bottle().is_torsion_free().torsion_free


def test_torsion_witness_pillowcase():
    rep = pillowcase().is_torsion_free()
    assert not rep.torsion_free
    assert rep.witness is not None
    w = rep.witness
    # witness fixes its reported point
    assert w.apply(rep.fixed_point) == list(rep.fixed_point)


def test_torsion_report_is_computed_once_per_group():
    grp = pillowcase()
    assert grp.is_torsion_free() is grp.is_torsion_free()


@pytest.mark.parametrize(
    "key", [k for k in sorted(catalog_list()) if catalog_get(k).group.n <= 3]
)
def test_torsion_is_invariant_under_basis_and_origin_change(key):
    entry = catalog_get(key)
    grp, n = entry.group, entry.group.n
    rng = random.Random(sum(map(ord, key)))
    for _ in range(3):
        P = _random_unimodular(rng, n)
        Pinv = ref.inverse(P)
        s = [Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4, 6])) for _ in range(n)]
        gens = []
        for g in grp.generators:
            A = ra.mat_mul(Pinv, ra.mat_mul(ref.mat(g.linear), P))
            v = ra.vec_add(ra.mat_vec(Pinv, list(g.translation)), ref.vec_sub(s, ra.mat_vec(A, s)))
            gens.append((A, v))
        gram = ra.mat_mul(ref.transpose(P), ra.mat_mul(ref.mat(grp.gram), P))
        rep = CrystalGroup.make(n, gens, gram=gram).normalize().is_torsion_free()
        assert rep.torsion_free == entry.expected["torsion_free"], (P, s)
        if not rep.torsion_free:
            assert rep.witness.apply(rep.fixed_point) == list(rep.fixed_point)


def _quotient_map_fixed_point(A, v):
    # the reference formula: with (Q, R) the integer quotient map of R^n onto
    # R^n / im(I - A), Q v integral, w = v - R Q v and a Fraction solve of (I - A) x = w
    n = len(v)
    ImA = [[int(i == j) - A[i][j] for j in range(n)] for i in range(n)]
    Q, R = ra.quotient_map(ref.transpose(ImA), n)
    qv = [sum(q * x for q, x in zip(row, v)) for row in Q]
    if any(c.denominator != 1 for c in qv):
        return None
    w = tuple(x - sum(r * c for r, c in zip(row, qv)) for x, row in zip(v, R))
    return w, tuple(ref.solve(ImA, list(w)))


def test_fixed_point_matches_the_quotient_map_and_solve():
    rng = random.Random(19)
    found_some = False
    for key in catalog_list():
        for A, vA in catalog_get(key).group.holonomy().translations.items():
            seeded = [[Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4, 6])) for _ in vA] for _ in range(3)]
            for v in [vA, *seeded]:
                (a,), N = ra.clear_denominators([v])
                found = groups._fixed_point(A, a, N)
                assert found == _quotient_map_fixed_point(A, v), (key, A, v)
                if found is not None:
                    w, x = found
                    assert AffineElement(A, w).apply(x) == list(x), (key, A, v)
                    assert all((a - b).denominator == 1 for a, b in zip(w, v)), (key, A, v)
                    found_some = True
    assert found_some


def test_volume():
    t2 = CrystalGroup.make(2, [], gram=[[1, 0], [0, 1]]).normalize()
    assert t2.volume() == pytest.approx(1.0)
    kb = CrystalGroup.make(
        2, [([[1, 0], [0, -1]], ["1/2", 0])], gram=[[4, 0], [0, 9]]
    ).normalize()
    assert kb.volume() == pytest.approx(2 * 3 / 2)


def test_volume_matches_the_float_square_root_on_the_catalog():
    # the exponent split changes no bit where det G is a normal double
    for key in catalog_list():
        grp = catalog_get(key).group
        assert grp.volume() == math.sqrt(float(ref.det(grp.gram))) / grp.holonomy().order, key


def test_betti_torus_binomial():
    t3 = CrystalGroup.make(3, []).normalize()
    assert [t3.betti(k) for k in range(4)] == [1, 3, 3, 1]


def test_betti_klein_bottle():
    assert klein_bottle().betti(1) == 1


def test_betti_hantzsche_wendt():
    grp = CrystalGroup.make(
        3,
        [
            ([[1, 0, 0], [0, -1, 0], [0, 0, -1]], ["1/2", "1/2", 0]),
            ([[-1, 0, 0], [0, 1, 0], [0, 0, -1]], [0, "1/2", "1/2"]),
        ],
    ).normalize()
    assert grp.betti(1) == 0
    assert grp.is_torsion_free().torsion_free


def signed_permutations_z4():
    """The order-384 group of signed permutation matrices acting on Z^4."""
    swap = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    cycle = [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    flip = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    return CrystalGroup.make(4, [(M, [0, 0, 0, 0]) for M in (swap, cycle, flip)])


def test_point_group_cap_is_reported_as_a_cap(monkeypatch):
    assert signed_permutations_z4().normalize().holonomy().order == 384
    monkeypatch.setattr(groups, "POINT_GROUP_CAP", 100)
    with pytest.raises(CapExceededError, match="point group has more than 100 elements"):
        signed_permutations_z4().normalize()


def _fixed_exterior_dim(grp, k):
    # reference: kernel of the stacked (Lambda^k A - I), Lambda^k A from k x k minors
    subsets = list(combinations(range(grp.n), k))
    rows = []
    for A in grp.holonomy().elements:
        for r, rs in enumerate(subsets):
            minors = [ref.det([[ra.frac(A[i][j]) for j in cs] for i in rs]) for cs in subsets]
            rows.append([m - (r == c) for c, m in enumerate(minors)])
    return len(ra.kernel(rows))


def test_betti_character_sums_match_fixed_exterior_forms():
    grps = [klein_bottle(), pillowcase(), generalized_klein_bottle(5), signed_permutations_z4().normalize()]
    grps += [catalog_get(key).group for key in ("G2", "G6", "B4", "joyce-O1")]
    for grp in grps:
        for k in range(1, grp.n + 1):
            assert grp.betti(k) == _fixed_exterior_dim(grp, k), (grp.name, k)


def test_betti_rejects_a_sum_no_group_gives():
    grp = CrystalGroup.make(2, []).normalize()
    zero = (0, 0)
    not_a_group = (((1, 0), (0, 1)), ((-1, 0), (0, 1)), ((1, 0), (0, -1)))
    grp._holonomy = HolonomyData(2, not_a_group, dict.fromkeys(not_a_group, zero), 1)
    # the sum runs over the class table, which rejects a set that is not
    # closed before any sum is formed
    with pytest.raises(FlatOrbError, match="do not form a group"):
        grp.betti(1)


def test_gram_preserved_by_holonomy():
    for grp in (klein_bottle(), pillowcase()):
        G = ref.mat(grp.gram)
        for A in grp.holonomy().elements:
            M = ref.mat(A)
            assert ra.mat_mul(ref.transpose(M), ra.mat_mul(G, M)) == G


HEXAGONAL = [[1, "1/2"], ["1/2", 1]]


def test_validate_scales_a_fractional_gram_form():
    # the 60-degree rotation and the mirror preserve the hexagonal form
    # only as it is, not as its truncation to integers
    p6m = CrystalGroup.make(2, [([[0, -1], [1, 1]], [0, 0]), ([[0, 1], [1, 0]], [0, 0])], gram=HEXAGONAL)
    assert p6m.normalize().holonomy().order == 12


@pytest.mark.parametrize(
    "linear,gram,message",
    [
        ([[2, 0], [0, 1]], HEXAGONAL, "generator linear part is not unimodular"),
        ([[1, 1], [0, 1]], HEXAGONAL, "generator does not preserve the gram form"),
        ([[0, -1], [1, 1]], [[1, "1/2"], ["1/3", 1]], "gram form must be symmetric"),
        ([[0, -1], [1, 1]], [[1, "3/2"], ["3/2", 1]], "gram form must be positive definite"),
        ([[0, -1], [1, 1]], [[1, "1/2"]], "gram form has the wrong shape"),
        ([[0, -1, 0], [1, 1, 0], [0, 0, 1]], HEXAGONAL, "generator dimension mismatch"),
    ],
    ids=["not-unimodular", "not-an-isometry", "not-symmetric", "not-definite", "gram-shape", "dimension"],
)
def test_validate_names_each_bad_input(linear, gram, message):
    grp = CrystalGroup.make(2, [(linear, [0, 0])], gram=gram)
    with pytest.raises(InvalidGroupError, match=f"^{message}$"):
        grp.normalize()


def _leading_minors_positive(G):
    return all(ref.det([row[: k + 1] for row in G[: k + 1]]) > 0 for k in range(len(G)))


@st.composite
def _symmetric_int_matrices(draw):
    n = draw(st.integers(1, 5))
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        G[i][i] = draw(st.integers(-2, 12))
        for j in range(i + 1, n):
            G[i][j] = G[j][i] = draw(st.integers(-4, 4))
    return G


@settings(max_examples=300, deadline=None)
@given(_symmetric_int_matrices())
@example([[1, "-1/2"], ["-1/2", 1]])
@example([[1, 2], [2, 1]])
def test_validate_tests_definiteness_as_sylvester_does(gram):
    # validate reads definiteness off the fraction-free pivots; the
    # determinants of the leading blocks, by Fraction elimination, are the reference
    grp = CrystalGroup.make(len(gram), [], gram=gram)
    if _leading_minors_positive(gram):
        grp.validate()
    else:
        with pytest.raises(InvalidGroupError, match="^gram form must be positive definite$"):
            grp.validate()


def _seeded_symmetric_forms():
    """(kind, G) for seeded symmetric integer forms, n = 1..8, some with entries near 10^24."""
    rng = random.Random(1968)
    forms = [("indefinite", [[0, 1], [1, 0]]), ("semidefinite", [[1, 0, 0], [0, 0, 0], [0, 0, 5]])]
    kinds = ["definite", "semidefinite", "indefinite", "negative definite"]
    for t in range(480):
        kind = kinds[t % 4]
        n = rng.randint(2 if kind == "indefinite" else 1, 8)
        size = 10**12 if t % 5 == 0 else 4
        rows = n - rng.randint(1, n) if kind == "semidefinite" else n
        B = [[rng.randint(-size, size) for _ in range(n)] for _ in range(rows)]
        signs = [1] * rows
        if kind == "indefinite":  # singular when B is, and indefinite otherwise
            signs = [rng.choice((1, -1)) for _ in range(rows)]
            signs[:2] = [1, -1]
        shift = int(kind in ("definite", "negative definite"))  # B^T B + I is definite for any B
        G = [
            [sum(s * B[k][i] * B[k][j] for k, s in enumerate(signs)) + shift * (i == j) for j in range(n)]
            for i in range(n)
        ]
        if kind == "negative definite":
            G = [[-x for x in row] for row in G]
        forms.append((kind, G))
    return forms


def test_validate_agrees_with_the_char_poly_rule():
    seen = {}
    for kind, G in _seeded_symmetric_forms():
        definite = ref.positive_definite(G)
        assert definite == (kind == "definite"), (kind, G)
        seen[kind] = seen.get(kind, 0) + 1
        grp = CrystalGroup.make(len(G), [], gram=G)
        if definite:
            grp.validate()
        else:
            with pytest.raises(InvalidGroupError, match="^gram form must be positive definite$"):
                grp.validate()
        minors = [ref.det([row[: k + 1] for row in G[: k + 1]]) for k in range(len(G))]
        stop = next((k + 1 for k, m in enumerate(minors) if m == 0), len(G))
        assert list(ra.leading_minors(G)) == minors[:stop], G
    assert min(seen.values()) >= 100 and len(seen) == 4


def test_json_roundtrip():
    kb = klein_bottle()
    d = group_to_dict(kb)
    back = group_from_dict(d).normalize()
    assert back.gram == kb.gram
    assert back.generators == kb.generators


def test_json_rational_parsing():
    grp = group_from_dict(
        {
            "dimension": 2,
            "gram": [["1", "1/2"], ["1/2", "1/2"]],
            "generators": [{"linear": [[1, 1], [0, -1]], "translation": ["0", "0"]}],
        }
    )
    assert grp.gram[0][1] == Fraction(1, 2)
    grp.normalize()
