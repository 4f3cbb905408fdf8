import json
import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatorb import rational as ra

import reference_algebra as ref


def test_hnf_already_reduced():
    H, U = ra.hnf([[2, 0], [0, 3]])
    assert H == [[2, 0], [0, 3]]
    assert U == [[1, 0], [0, 1]]


def test_hnf_standard_example():
    H, U = ra.hnf([[1, 2], [3, 4]])
    assert H == [[1, 0], [0, 2]]
    UM = ra.mat_mul(ref.mat(U), ref.mat([[1, 2], [3, 4]]))
    assert UM == ref.mat(H)


def test_hnf_zero():
    H, U = ra.hnf([[0, 0]])
    assert H == [[0, 0]]
    assert U == [[1]]


small_int_mats = st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@given(small_int_mats)
@settings(max_examples=150, deadline=None)
def test_hnf_properties(M):
    H, U = ra.hnf(M)
    assert abs(ref.det(ref.mat(U))) == 1
    assert ra.mat_mul(ref.mat(U), ref.mat(M)) == ref.mat(H)
    # echelon with positive pivots, entries above reduced into [0, pivot)
    last = -1
    for row in H:
        piv = next((j for j, x in enumerate(row) if x), None)
        if piv is None:
            continue
        assert piv > last
        last = piv
        assert row[piv] > 0
    for r, row in enumerate(H):
        piv = next((j for j, x in enumerate(row) if x), None)
        if piv is None:
            continue
        for i in range(r):
            assert 0 <= H[i][piv] < row[piv]


def test_solve_identity():
    x = ref.solve(ra.identity(2), ra.vec([1, 2]))
    assert x == ra.vec([1, 2])
    assert ra.kernel(ra.identity(2)) == []


def test_solve_underdetermined():
    A = ref.mat([[1, 1]])
    x = ref.solve(A, ra.vec([0]))
    assert x is not None
    assert ra.mat_vec(A, x) == ra.vec([0])
    ker = ra.kernel(A)
    assert len(ker) == 1
    k = ker[0]
    assert k[0] == -k[1] and k[0] != 0


def test_solve_inconsistent():
    assert ref.solve(ref.mat([[1, 0], [1, 0]]), ra.vec([0, 1])) is None


def test_solve_dim_mismatch():
    with pytest.raises(ValueError):
        ref.solve(ref.mat([[1, 0]]), ra.vec([1, 2]))


@given(small_int_mats, st.lists(st.integers(-5, 5), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_solve_postconditions(M, bvals):
    A = ref.mat(M)
    b = ra.vec(bvals[: len(M)] + [0] * max(0, len(M) - len(bvals)))
    x = ref.solve(A, b)
    if x is None:
        return
    assert ra.mat_vec(A, x) == b
    for k in ra.kernel(A):
        assert ra.mat_vec(A, k) == [Fraction(0)] * len(M)


def test_char_poly_and_order():
    A = ref.mat([[0, -1], [1, -1]])  # order 3
    assert ra.matrix_order(A) == 3
    # x^2 + x + 1
    assert ra.char_poly(A) == ra.vec([1, 1, 1])
    shift = ref.mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert ra.matrix_order(shift) == 3
    assert ra.char_poly(shift) == ra.vec([-1, 0, 0, 1])


def test_frac_parsing():
    assert ra.frac("3/2") == Fraction(3, 2)
    assert ra.frac(0.25) == Fraction(1, 4)
    assert ra.frac(0.1) == Fraction(1, 10)
    assert ra.frac(-2) == Fraction(-2)


def test_frac_and_clear_denominators_parse_strings_as_fraction_does():
    rng = random.Random(29)
    strings = ["0", "-0", "+3", " 1 ", "1_0", "\u0663", "1/2", " -7/3 ", "0.25", "1e-3"]
    strings += [f"{rng.randint(-10**12, 10**12)}/{rng.randint(1, 10**6)}" for _ in range(100)]
    strings += [str(rng.randint(-10**30, 10**30)) for _ in range(20)]
    for s in strings:
        want = Fraction(s)
        got = ra.frac(s)
        assert type(got) is Fraction and got == want, s
        [[x]], d = ra.clear_denominators([[s]])
        assert type(x) is int and (x, d) == (want.numerator, want.denominator), s
    for s in ["", "abc", "1/0", "1.5.2"]:
        with pytest.raises(Exception) as want:
            Fraction(s)
        for parse in (ra.frac, lambda s: ra.clear_denominators([[s]])):
            with pytest.raises(Exception) as got:
                parse(s)
            assert got.type is want.type, s


def _int_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _check_char_poly(A):
    n = len(A)
    poly = ra.char_poly(A)
    assert poly[n] == 1 and all(type(c) is int for c in poly)
    for x in range(n + 1):
        xI_A = [[x * (i == j) - A[i][j] for j in range(n)] for i in range(n)]
        assert sum(c * x**k for k, c in enumerate(poly)) == ref.det(xI_A), (A, x)


def test_char_poly_and_order_of_every_catalog_holonomy_element():
    from flatorb.catalog import catalog_get, catalog_list

    entries = [catalog_get(key) for key in catalog_list()]
    elements = [(e.key, A) for e in entries for A in e.group.holonomy().elements]
    assert len(elements) == sum(e.expected["holonomy_order"] for e in entries)
    for key, A in elements:
        _check_char_poly(A)
        P, k = [list(row) for row in A], 1
        while P != _int_identity(len(A)):
            P, k = ra.mat_mul(P, A), k + 1
        assert ra.matrix_order(A, cap=k) == k, key
        assert ra.matrix_order(A, cap=k - 1) is None, key


square_int_mats = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@given(square_int_mats)
@settings(max_examples=150, deadline=None)
def test_char_poly_of_any_integer_matrix(M):
    _check_char_poly(M)


def test_matrix_order_of_an_infinite_order_matrix():
    assert ra.matrix_order([[1, 1], [0, 1]]) is None


@pytest.mark.parametrize(
    "fn",
    [
        ra.char_poly,
        ra.matrix_order,
        ra.hnf,
        ra.adjugate,
        lambda M: list(ra.leading_minors(M)),
        pytest.param(lambda M: ra.right_divide(M, ((1, 0), (0, 1))), id="right_divide"),
    ],
)
def test_integer_routines_reject_a_non_integral_entry(fn):
    for bad in (Fraction(1, 2), "1/2", 2.5):
        with pytest.raises(ValueError):
            fn([[1, bad], [0, 1]])
    want = fn(((0, -1), (1, 0)))
    for M in (ref.mat([[0, -1], [1, 0]]), np.array([[0, -1], [1, 0]], dtype=np.int64)):
        got = fn(M)
        assert got == want
        # json refuses Fraction and numpy integers: every entry comes back as int
        json.dumps(got)


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
@settings(max_examples=300, deadline=None)
@example([[-4]])
@example([[0, 1], [1, 0]])
@example([[2, 1, 0], [1, 2, 1], [0, 1, -3]])
@example([[1, 2], [2, 4]])
@example([[0] * 6 for _ in range(6)])
def test_adjugate_matches_det_and_inverse(M):
    det = ref.det(M)
    if det == 0:
        with pytest.raises(ValueError, match="^matrix is singular$"):
            ra.adjugate(M)
        return
    adj, d = ra.adjugate(M)
    assert type(d) is int and d == det
    assert all(type(x) is int for row in adj for x in row)
    assert adj == [[det * x for x in row] for row in ref.inverse(M)]


def test_clear_denominators_scales_by_the_lcm():
    assert ra.clear_denominators([[Fraction(1, 2), "1/3"], [1, 0.25]]) == ([[6, 4], [12, 3]], 12)
    assert ra.clear_denominators(((2, -3), (0, 1))) == ([[2, -3], [0, 1]], 1)
    assert ra.clear_denominators([]) == ([], 1)
    M, d = ra.clear_denominators([[Fraction(4, 6), 2]])
    assert d == 3 and all(type(x) is int for x in M[0])


def test_elimination_of_an_int_matrix_gives_fractions():
    A = ((2, 1, 0), (1, 3, 1), (0, 1, 4))
    S = [[1, 2, 3], [2, 4, 6]]
    results = {
        "det": [[ref.det(A)]],
        "inverse": ref.inverse(A),
        "rref": ra.rref(S)[0],
        "solve": [ref.solve(A, [1, 0, 0])],
    }
    for name, M in results.items():
        assert all(type(x) is Fraction for row in M for x in row), name
    assert ref.det(A) == 18
    assert ra.mat_mul(A, ref.inverse(A)) == _int_identity(3)
    # the kernel is read off the fraction-free echelon: d times the rref vectors, in ints
    assert ra.kernel(S) == [[-2, 1, 0], [-3, 0, 1]]
    assert all(type(x) is int for row in ra.kernel(S) for x in row)


def test_primitive_scales_to_a_primitive_integer_vector():
    assert ra.primitive([4, 6, 0]) == [2, 3, 0]
    assert ra.primitive([0, -3, 6]) == [0, 1, -2]
    assert ra.primitive([Fraction(1, 2), Fraction(-1, 3)]) == [3, -2]
    assert ra.primitive(["-2/3", 0, "4/9"]) == [3, 0, -2]
    assert ra.primitive([-5]) == [1]
    assert all(type(x) is int for x in ra.primitive([Fraction(2, 4), 1]))


@pytest.mark.parametrize("v", [[0, 0], [Fraction(0)], []])
def test_primitive_rejects_a_zero_vector(v):
    with pytest.raises(ValueError):
        ra.primitive(v)


def _elementary_product(n, ops):
    """A product of elementary integer matrices: row adds, swaps and sign flips."""
    M = _int_identity(n)
    for kind, i, j, c in ops:
        i, j = i % n, j % n
        if kind == 0 and i != j:
            M[i] = [a + c * b for a, b in zip(M[i], M[j])]
        elif kind == 1:
            M[i], M[j] = M[j], M[i]
        else:
            M[i] = [-a for a in M[i]]
    return M


elementary_ops = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 4), st.integers(0, 4), st.integers(-3, 3)), max_size=12
)


@given(st.integers(1, 5), elementary_ops)
@settings(max_examples=150, deadline=None)
def test_unimodular_inverse_of_a_product_of_elementary_matrices(n, ops):
    M = _elementary_product(n, ops)
    inv = ra.unimodular_inverse(M)
    assert all(type(x) is int for row in inv for x in row)
    assert ra.mat_mul(inv, M) == _int_identity(n)
    assert ra.mat_mul(M, inv) == _int_identity(n)


@given(st.integers(2, 5), elementary_ops, st.integers(0, 4))
@settings(max_examples=100, deadline=None)
def test_unimodular_inverse_rejects_determinants_zero_and_two(n, ops, row):
    M = _elementary_product(n, ops)
    row %= n
    doubled = [[2 * x for x in r] if i == row else r for i, r in enumerate(M)]
    repeated = [M[(row + 1) % n] if i == row else r for i, r in enumerate(M)]
    assert abs(ref.det(doubled)) == 2 and ref.det(repeated) == 0
    for bad in (doubled, repeated):
        with pytest.raises(ValueError):
            ra.unimodular_inverse(bad)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.lists(rationals, min_size=n, max_size=n), max_size=n))
    )
)
@settings(max_examples=150, deadline=None)
def test_quotient_map_on_random_rational_subspaces(case):
    n, W = case
    A, R = ra.quotient_map(W, n)
    m = n - (ra.rank(W) if W else 0)
    assert len(A) == m and all(len(row) == n for row in A)
    assert len(R) == n and all(len(row) == m for row in R)
    assert all(type(x) is int for M in (A, R) for row in M for x in row)
    for w in W:
        assert [sum(a * x for a, x in zip(row, w)) for row in A] == [0] * m
    if m:
        assert ra.mat_mul(A, R) == _int_identity(m)


def _parity_cases():
    """Seeded integer and Fraction matrices: wide, tall, square, rank-deficient, zero and one-row."""
    rng = random.Random(1968)
    cases = [[[0, 0, 0]], [[0], [0]], [[3, -6, 9]], [[Fraction(2, 3)]], [[1, 2, 3], [2, 4, 6]]]
    for t in range(600):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        if t % 3 == 2:  # rank at most k, as a product of m x k and k x n
            k = rng.randint(0, min(m, n))
            A = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(m)]
            B = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
            cases.append([[sum(row[i] * B[i][j] for i in range(k)) for j in range(n)] for row in A])
        elif t % 3 == 1:
            cases.append([[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(m)])
        else:
            cases.append([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
    return cases


def test_echelon_rref_and_kernel_match_the_fraction_reference():
    seen = set()
    for M in _parity_cases():
        R, pivots = ref.rref(M)
        E, d, epivots = ra.echelon(M)
        assert epivots == pivots, M
        assert all(type(x) is int for row in E for x in row) and type(d) is int
        assert d == lcm(*(x.denominator for row in R for x in row)), M
        assert [[Fraction(x, d) for x in row] for row in E] == R, M
        assert ra.rref(M) == (R, pivots), M
        K = ra.kernel(M)
        assert all(type(x) is int for v in K for x in v)
        assert K == [[d * x for x in v] for v in ref.kernel(M)], M
        m, n, r = len(M), len(M[0]), len(pivots)
        kinds = {"wide": n > m, "tall": m > n, "rank-deficient": r < min(m, n), "zero": r == 0, "one-row": m == 1}
        seen.update(kind for kind, hit in kinds.items() if hit)
        seen.add(type(M[0][0]).__name__)
    assert seen == {"wide", "tall", "rank-deficient", "zero", "one-row", "int", "Fraction"}


def _hnf_parity_cases():
    """Seeded integer matrices of each shape the library hands to ``hnf``."""
    rng = random.Random(1993)
    cases = {"column": [], "I - A": [], "refinement": [], "projection": []}
    for _ in range(150):  # k x 1 columns z K, as ``lattices._kernel_step`` sends
        cases["column"].append([[rng.choice([0, rng.randint(-60, 60)])] for _ in range(rng.randint(1, 6))])
    for _ in range(150):  # n x n I - A, A a signed permutation times a unimodular shear
        n = rng.randint(1, 6)
        perm = rng.sample(range(n), n)
        A = [[rng.choice((-1, 1)) * (j == perm[i]) for j in range(n)] for i in range(n)]
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            A[i] = [a + rng.randint(-2, 2) * b for a, b in zip(A[i], A[j])]
        cases["I - A"].append([[int(i == j) - A[i][j] for j in range(n)] for i in range(n)])
    for _ in range(150):  # (n + t) x n stacks d I over t translation numerators, as ``normalize`` refines
        n, d, t = rng.randint(1, 6), rng.choice([2, 3, 4, 6, 8, 12]), rng.randint(1, 5)
        stack = [[d * (i == j) for j in range(n)] for i in range(n)]
        cases["refinement"].append(stack + [[rng.randrange(d) for _ in range(n)] for _ in range(t)])
    for _ in range(150):  # n x m of rank at most m, as ``collapse`` projects
        n = rng.randint(1, 6)
        m = rng.randint(1, n)
        k = rng.randint(0, m)
        X = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(n)]
        Y = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(k)]
        # k = 0 gives the zero matrix
        cases["projection"].append([[sum(x * y for x, y in zip(row, col)) for col in zip(*Y)] or [0] * m for row in X])
    return cases


def _invariant_form_systems(monkeypatch):
    """The tall integer systems ``reps.invariant_form_dim`` hands to ``hnf``, over the catalog holonomies."""
    from flatorb import reps
    from flatorb.catalog import catalog_get, catalog_list

    tables = [catalog_get(key).group.holonomy().class_table for key in catalog_list()]
    sent, hnf = [], ra.hnf
    monkeypatch.setattr(ra, "hnf", lambda M, **kw: sent.append([list(row) for row in M]) or hnf(M, **kw))
    for cl in tables:
        reps.invariant_form_dim([cl.mats[g] for g in cl.generators], len(cl.mats[0]))
    monkeypatch.undo()
    return sent


def test_hnf_matches_the_reference_with_and_without_its_transform(monkeypatch):
    cases = _hnf_parity_cases()
    cases["invariant forms"] = _invariant_form_systems(monkeypatch)
    # one system per catalog holonomy, tall wherever its class table has two or more generators (19 do)
    assert len(cases["invariant forms"]) == 49 and sum(len(M) > len(M[0]) for M in cases["invariant forms"] if M) == 19
    for shape, Ms in cases.items():
        for M in Ms:
            H, U = ref.hnf(M)
            assert ra.hnf(M) == (H, U), (shape, M)
            assert ra.hnf(M, transform=False) == (H, None), (shape, M)


upper_triangular = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.integers(1, 9).flatmap(lambda p: st.sampled_from([p, -p])), min_size=n, max_size=n),
        st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=0, max_size=4),
    )
)


@given(upper_triangular)
@settings(max_examples=150, deadline=None)
def test_right_divide_solves_x_h_equals_s(case):
    entries, diagonal, X = case
    n = len(diagonal)
    H = [[diagonal[i] if i == j else entries[i][j] * (j > i) for j in range(n)] for i in range(n)]
    S = [[sum(x * H[k][j] for k, x in enumerate(row)) for j in range(n)] for row in X]
    got = ra.right_divide(S, H)
    assert got == X and all(type(x) is int for row in got for x in row)


def test_right_divide_rejects_a_non_integral_quotient_and_a_non_triangular_divisor():
    with pytest.raises(ValueError, match="not integral"):
        ra.right_divide([[4, 1]], [[2, 0], [0, 3]])  # x = (2, 1/3)
    with pytest.raises(ValueError, match="not integral"):
        ra.right_divide([[1, 0], [0, 4]], [[2, 1], [0, 2]])
    for H in ([[1, 0], [1, 1]], [[1, 1], [0, 0]], [[1, 0, 0], [0, 1, 0]]):
        with pytest.raises(ValueError, match="upper triangular"):
            ra.right_divide([[1, 0]], H)
