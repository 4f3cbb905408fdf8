from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatorb import rational as ra


def test_hnf_already_reduced():
    H, U = ra.hnf([[2, 0], [0, 3]])
    assert H == [[2, 0], [0, 3]]
    assert U == [[1, 0], [0, 1]]


def test_hnf_standard_example():
    H, U = ra.hnf([[1, 2], [3, 4]])
    assert H == [[1, 0], [0, 2]]
    UM = ra.mat_mul(ra.mat(U), ra.mat([[1, 2], [3, 4]]))
    assert UM == ra.mat(H)


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
    assert abs(ra.det(ra.mat(U))) == 1
    assert ra.mat_mul(ra.mat(U), ra.mat(M)) == ra.mat(H)
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
    x = ra.solve(ra.identity(2), ra.vec([1, 2]))
    assert x == ra.vec([1, 2])
    assert ra.kernel(ra.identity(2)) == []


def test_solve_underdetermined():
    A = ra.mat([[1, 1]])
    x = ra.solve(A, ra.vec([0]))
    assert x is not None
    assert ra.mat_vec(A, x) == ra.vec([0])
    ker = ra.kernel(A)
    assert len(ker) == 1
    k = ker[0]
    assert k[0] == -k[1] and k[0] != 0


def test_solve_inconsistent():
    assert ra.solve(ra.mat([[1, 0], [1, 0]]), ra.vec([0, 1])) is None


def test_solve_dim_mismatch():
    with pytest.raises(ValueError):
        ra.solve(ra.mat([[1, 0]]), ra.vec([1, 2]))


@given(small_int_mats, st.lists(st.integers(-5, 5), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_solve_postconditions(M, bvals):
    A = ra.mat(M)
    b = ra.vec(bvals[: len(M)] + [0] * max(0, len(M) - len(bvals)))
    x = ra.solve(A, b)
    if x is None:
        return
    assert ra.mat_vec(A, x) == b
    for k in ra.kernel(A):
        assert ra.mat_vec(A, k) == [Fraction(0)] * len(M)


def test_char_poly_and_order():
    A = ra.mat([[0, -1], [1, -1]])  # order 3
    assert ra.matrix_order(A) == 3
    # x^2 + x + 1
    assert ra.char_poly(A) == ra.vec([1, 1, 1])
    shift = ra.mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert ra.matrix_order(shift) == 3
    assert ra.char_poly(shift) == ra.vec([-1, 0, 0, 1])


def test_positive_definite():
    assert ra.is_positive_definite(ra.mat([[1, "-1/2"], ["-1/2", 1]]))
    assert not ra.is_positive_definite(ra.mat([[1, 2], [2, 1]]))


def test_frac_parsing():
    assert ra.frac("3/2") == Fraction(3, 2)
    assert ra.frac(0.25) == Fraction(1, 4)
    assert ra.frac(0.1) == Fraction(1, 10)
    assert ra.frac(-2) == Fraction(-2)
