import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from flatorb import rational as ra
from flatorb.catalog import catalog_get, catalog_list
from flatorb.groups import CrystalGroup, FlatOrbError, group_from_dict
from flatorb.reps import (
    _conjugacy_classes,
    invariant_form_dim,
    isotypic_decompose,
    rational_components,
    teich_report,
)

import reference_algebra as ref

HEX = [[1, "-1/2"], ["-1/2", 1]]


def kb():
    return CrystalGroup.make(2, [([[1, 0], [0, -1]], ["1/2", 0])]).normalize()


def test_invariant_forms_trivial():
    assert invariant_form_dim([ra.identity(4)], 4) == 10


def test_invariant_forms_klein_bottle():
    assert invariant_form_dim(kb().holonomy().elements, 2) == 2


def test_invariant_forms_kummer():
    neg = [[-1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert invariant_form_dim([ra.identity(4), neg], 4) == 10


def _kernel_form_dim(elements, n):
    """Reference: dim ker of S -> A^T S A - S on symmetric S, by Fraction elimination."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    basis = []
    for i, j in pairs:
        E = ra.zeros(n, n)
        E[i][j] = E[j][i] = Fraction(1)
        basis.append(E)
    rows = []
    for A in elements:
        images = [ra.mat_mul(ref.transpose(A), ra.mat_mul(E, A)) for E in basis]
        for i, j in pairs:
            rows.append([image[i][j] - E[i][j] for image, E in zip(images, basis)])
    return len(ra.kernel(rows)) if rows else len(pairs)


def test_invariant_form_dim_matches_the_fraction_kernel_on_every_catalog_holonomy():
    for key in catalog_list():
        grp = catalog_get(key).group
        elements = grp.holonomy().elements
        generators = [elements[g] for g in _conjugacy_classes(elements).generators]
        for subset in (generators, elements):
            assert invariant_form_dim(subset, grp.n) == _kernel_form_dim(subset, grp.n), key


def test_a_singular_or_repeated_element_is_not_a_group():
    I, R = [[1, 0], [0, 1]], [[-1, 0], [0, 1]]
    for elements in ([I, [[0, 0], [0, 0]]], [I, R, R]):
        with pytest.raises(FlatOrbError, match="do not form a group"):
            isotypic_decompose(elements, I)


def test_decompose_klein_bottle():
    rep = isotypic_decompose(kb().holonomy().elements, kb().gram)
    assert rep.total_dim == 2
    assert rep.signature() == ((1, 1, "R", 1), (1, 1, "R", 1))


def test_decompose_hexagonal_rotation():
    grp = CrystalGroup.make(
        3,
        [([[1, 0, 0], [0, 0, -1], [0, 1, -1]], ["1/3", 0, 0])],
        gram=[[1, 0, 0], [0, 1, "-1/2"], [0, "-1/2", 1]],
    ).normalize()
    rep = teich_report(grp)
    assert rep.total_dim == 2
    assert rep.signature() == ((1, 1, "R", 1), (2, 1, "C", 1))


def test_decompose_sign_multiplicity_two():
    grp = CrystalGroup.make(
        3, [([[1, 0, 0], [0, -1, 0], [0, 0, -1]], ["1/2", 0, 0])]
    ).normalize()
    rep = teich_report(grp)
    assert rep.total_dim == 4
    assert rep.signature() == ((1, 1, "R", 1), (1, 2, "R", 3))


def test_decompose_joyce_z4():
    R = [[0, -1], [1, 0]]
    A = ra.zeros(6, 6)
    A[0][0] = A[1][1] = -1
    for off in (2, 4):
        for i in range(2):
            for j in range(2):
                A[off + i][off + j] = R[i][j]
    rep = isotypic_decompose([ra.identity(6)] + _cyclic_powers(A, 3), ra.identity(6))
    assert rep.total_dim == 7
    assert rep.signature() == ((1, 2, "R", 3), (2, 2, "C", 4))


def _cyclic_powers(A, count):
    out = []
    P = A
    for _ in range(count):
        out.append([row[:] for row in P])
        P = ra.mat_mul(P, A)
    return out


def test_double_computation_consistency_random_sign_groups():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.choice([2, 3, 4, 5, 6])
        gens = []
        for _ in range(rng.choice([1, 2])):
            perm = list(range(n))
            rng.shuffle(perm)
            signs = [rng.choice([1, -1]) for _ in range(n)]
            M = ra.zeros(n, n)
            for i, p in enumerate(perm):
                M[p][i] = ra.frac(signs[i])
            gens.append(M)
        elems = _close(gens, n)
        if len(elems) > 200:
            continue
        rng.randrange(1000)  # one draw per group keeps the sequence of random groups fixed
        rep = isotypic_decompose(elems, ra.identity(n))
        assert rep.total_dim == rep.invariant_form_dim


def _close(gens, n):
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
        if len(seen) > 400:
            break
    return [list(map(list, A)) for A in seen]


def test_seed_stability():
    from flatorb.catalog import catalog_get

    for key in ("G3", "G6", "B2", "kummer", "joyce-O1", "K5", "p4m"):
        grp = catalog_get(key).group
        sigs = {teich_report(grp).signature() for _ in range(10)}
        assert len(sigs) == 1, key


def test_summary_format():
    rep = teich_report(kb())
    assert rep.summary() == "components: (m=1,R,d=1),(m=1,R,d=1); dim 2"


def _seeded_point_groups(seeds):
    """The random point groups of the benchmark's ``catalog-verbs`` workload, normalized."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for seed in seeds:
        for op in workloads.build_ops("catalog-verbs", seed):
            if op["check"]["type"] == "point-group":
                yield f"seed {seed} {op['group']['name']}", group_from_dict(op["group"]).normalize()


def test_class_tables_match_the_int64_reference():
    groups = [(key, catalog_get(key).group) for key in catalog_list()]
    groups += list(_seeded_point_groups(range(1, 6)))
    assert len(groups) == 49 + 5 * 24
    for key, grp in groups:
        hol = grp.holonomy()
        cl, want = hol.class_table, ref.conjugacy_classes(hol.elements)
        assert cl.generators == want["generators"], key
        assert [set(c) for c in cl.classes] == [set(c) for c in want["classes"]], key
        assert (cl.powers, cl.square, cl.rational) == (want["powers"], want["square"], want["rational"]), key
        assert [list(map(list, S)) for S in cl.sums] == want["sums"].tolist(), key
        assert rational_components(hol) == ref.rational_components(hol.elements), key
        assert isotypic_decompose(hol.elements, grp.gram).signature() == ref.isotypic_signature(hol.elements), key
        for k in range(grp.n + 1):
            per_element = sum((-1) ** k * ra.char_poly(A)[grp.n - k] for A in hol.elements)
            assert grp.betti(k) * hol.order == per_element, (key, k)


def _prime(k: int) -> bool:
    return k > 1 and all(k % p for p in range(2, k))


def _check_torsion(grp, key):
    """``is_torsion_free`` against the every-element reference; a witness has prime order, lies in the group and fixes its point."""
    rep = grp.is_torsion_free()
    assert rep.torsion_free == ref.torsion_free(grp), key
    if not rep.torsion_free:
        w, x = rep.witness, rep.fixed_point
        assert _prime(ra.matrix_order(w.linear)), key
        assert w.apply(x) == list(x), key
        v = grp.holonomy().translations[w.linear]
        assert all((a - b).denominator == 1 for a, b in zip(w.translation, v)), key
    return rep.torsion_free


def test_torsion_per_prime_order_rational_class_matches_every_element(monkeypatch):
    verdicts = [_check_torsion(catalog_get(key).group, key) for key in catalog_list()]
    # the benchmark's seeded point groups, each generator given a seeded nonzero translation
    rng = random.Random(1986)
    seeded = list(_seeded_point_groups(range(1, 6)))
    for key, grp in seeded:
        gens = []
        for g in grp.generators:
            t = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 6])) for _ in range(grp.n)]
            gens.append((g.linear, t if any(t) else [Fraction(1, 2)] + t[1:]))
        verdicts.append(_check_torsion(CrystalGroup.make(grp.n, gens, gram=grp.gram).normalize(), key))
    # every quotient the Theorem-C survey builds; the package re-exports a
    # function named collapse, so the module is imported by path
    module = importlib.import_module("flatorb.collapse")
    quotients, collapse = [], module.collapse
    monkeypatch.setattr(module, "collapse", lambda *a, **kw: quotients.append(collapse(*a, **kw)) or quotients[-1])
    module.verify_theorem_c()
    monkeypatch.undo()
    for res in quotients:
        verdicts.append(_check_torsion(res.quotient, res.quotient.name))
    assert len(seeded) == 120 and len(quotients) > 200
    assert len(verdicts) == 49 + 120 + len(quotients) and True in verdicts and False in verdicts
