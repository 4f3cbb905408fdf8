"""Exact linear algebra over the rationals for small dense systems.

Matrices are lists (or tuples) of rows and vectors are lists.  A rational
matrix enters integer arithmetic in one place, ``clear_denominators``;
``lowest_terms`` takes an integer matrix over d to its least denominator.
The two products, ``mat_mul`` and ``mat_vec`` (and ``groups._int_mul``,
which is ``mat_mul`` on tuples), take every entry as
sum(map(mul, row, col)).  Integer matrices stay in Python integers:
products, ``char_poly``, ``adjugate``, ``matrix_order``, ``hnf`` and
``unimodular_inverse`` never leave them, and the last five reject a
non-integral entry of any type, comparing the rows with their int() values;
the group layer, ``wallpaper`` and ``collapse`` eliminate through these
alone.  Elimination over the rationals divides, so ``rref``, ``det`` and
everything built on them (``rank``, ``kernel``, ``solve``, ``inverse``)
return ``Fraction`` entries, whether they were given ints or Fractions.
The library calls ``rref`` for the reduced bases of
``collapse._span_basis``, ``reps._eigenspaces`` and
``lattices.rational_span``, and ``kernel`` for those of
``collapse._sublattice_basis``; ``rank``, ``det``, ``inverse`` and
``solve`` are references for the tests.  Sizes stay tiny (n <= 8), so the
routines favour clarity and exactness over asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

Vec = list[Fraction]
Mat = list[list[Fraction]]


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/2' or '0.25', and Fractions exactly."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        # decimal literal semantics: 0.1 -> 1/10, not the binary expansion
        return Fraction(repr(x))
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def vec(xs) -> Vec:
    return [frac(x) for x in xs]


def mat(rows) -> Mat:
    return [[frac(x) for x in row] for row in rows]


def identity(n: int) -> Mat:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(m: int, n: int) -> Mat:
    return [[Fraction(0)] * n for _ in range(m)]


def transpose(M: Mat) -> Mat:
    return [list(col) for col in zip(*M)]


def mat_mul(A: Mat, B: Mat) -> Mat:
    if len(A[0]) != len(B):
        raise ValueError("dimension mismatch in matrix product")
    Bt = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in Bt] for row in A]


def mat_vec(A: Mat, v: Vec) -> Vec:
    if len(A[0]) != len(v):
        raise ValueError("dimension mismatch in matrix-vector product")
    return [sum(map(mul, row, v)) for row in A]


def vec_add(u: Vec, v: Vec) -> Vec:
    return [a + b for a, b in zip(u, v)]


def vec_sub(u: Vec, v: Vec) -> Vec:
    return [a - b for a, b in zip(u, v)]


def clear_denominators(M) -> tuple[list[list[int]], int]:
    """(d M, d) with d the lcm of the denominators of M's entries: d M is integral."""
    Q = [[x if type(x) is int else frac(x) for x in row] for row in M]
    d = lcm(*(x.denominator for row in Q for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in Q], d


def lowest_terms(M, d: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The integer matrix M over d > 0 as (M / g, d / g), g = gcd(d, M): d / g is the least denominator."""
    g = gcd(d, *(x for row in M for x in row))
    return tuple(tuple(x // g for x in row) for row in M), d // g


def primitive(v) -> list[int]:
    """The primitive integer vector on the line of a nonzero rational v.

    Its first nonzero entry is positive; ValueError on a zero vector.
    """
    (w,), _ = clear_denominators([v])
    g = gcd(*w)
    if g == 0:
        raise ValueError("a zero vector has no primitive multiple")
    if next(x for x in w if x) < 0:
        g = -g
    return [x // g for x in w]


def _int_rows(M) -> list[list[int]]:
    """The entries of M as Python integers; ValueError on a non-integral one."""
    rows = [list(map(int, row)) for row in M]
    if rows != list(map(list, M)):
        raise ValueError("integer matrix required")
    return rows


def rref(M: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    R = mat(M)
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if R[i][c] != 0), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = 1 / R[r][c]
        R[r] = [x * inv for x in R[r]]
        for i in range(rows):
            if i != r and R[i][c] != 0:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def rank(M: Mat) -> int:
    return len(rref(M)[1])


def det(M: Mat) -> Fraction:
    n = len(M)
    A = mat(M)
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if A[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            d = -d
        d *= A[c][c]
        inv = 1 / A[c][c]
        for i in range(c + 1, n):
            if A[i][c] != 0:
                f = A[i][c] * inv
                A[i] = [x - f * y for x, y in zip(A[i], A[c])]
    return d


def inverse(M: Mat) -> Mat:
    n = len(M)
    A = [list(row) + ident_row for row, ident_row in zip(M, identity(n))]
    R, pivots = rref(A)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in R]


def solve(A: Mat, b: Vec) -> Vec | None:
    """Particular solution of A x = b, or None if inconsistent."""
    if len(A) != len(b):
        raise ValueError("dimension mismatch in solve")
    n = len(A[0])
    aug = [list(row) + [bv] for row, bv in zip(A, b)]
    R, pivots = rref(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        x[c] = R[r][n]
    return x


def kernel(A: Mat) -> list[Vec]:
    """Basis of the right kernel of A."""
    n = len(A[0]) if A else 0
    if not A:
        return [e for e in identity(n)]
    R, pivots = rref(A)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -R[r][f]
        basis.append(v)
    return basis


def hnf(M) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form H = U @ M with U unimodular.

    Pivots are positive, entries above a pivot are reduced into [0, pivot).
    Zero matrices are fine (H = 0, U = I).
    """
    H = _int_rows(M)
    m = len(H)
    cols = len(H[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]

    def rowop_sub(i, j, q):
        # row_i -= q * row_j
        H[i] = [a - q * b for a, b in zip(H[i], H[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    r = 0
    for c in range(cols):
        while True:
            nz = [i for i in range(r, m) if H[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(H[i][c]))
            progressed = False
            for i in nz:
                if i == i0:
                    continue
                q = H[i][c] // H[i0][c]
                rowop_sub(i, i0, q)
                progressed = True
            if not progressed:
                break
        nz = [i for i in range(r, m) if H[i][c] != 0]
        if not nz:
            continue
        i0 = nz[0]
        if i0 != r:
            H[r], H[i0] = H[i0], H[r]
            U[r], U[i0] = U[i0], U[r]
        if H[r][c] < 0:
            H[r] = [-x for x in H[r]]
            U[r] = [-x for x in U[r]]
        for i in range(r):
            q = H[i][c] // H[r][c]
            if q:
                rowop_sub(i, r, q)
        r += 1
        if r == m:
            break
    return H, U


def unimodular_inverse(M) -> list[list[int]]:
    """Inverse of a square integer matrix of determinant +-1, in integers.

    The Hermite form of a unimodular matrix is I, so its transform U, with
    U M = I, is the inverse; ValueError for any other matrix.
    """
    H, U = hnf(M)
    if H != [[int(i == j) for j in range(len(M))] for i in range(len(M))]:
        raise ValueError("matrix is not unimodular")
    return U


def quotient_map(W: list[Vec], n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Integer quotient map of R^n onto R^n / span(W), with a right inverse.

    Returns (A, R): A is m x n with A Z^n = Z^m and A w = 0 for every w in
    W, so x -> A x identifies R^n / span(W) with R^m and Z^n with Z^m; R is
    n x m with A R = I.  Both come from one Hermite transform H = U W^T:
    the rows of U against zero rows of H form A, and since U is unimodular
    the matching columns of U^-1 form R.  W may be empty (A = R = I).
    """
    Wi, _ = clear_denominators(W)
    H, U = hnf([[w[j] for w in Wi] for j in range(n)])
    rows = [i for i in range(n) if not any(H[i])]
    Uinv = unimodular_inverse(U)
    return [U[i] for i in rows], [[Uinv[r][i] for i in rows] for r in range(n)]


def _faddeev_leverrier(M) -> tuple[list[int], list[list[int]]]:
    """(c, N): char_poly(M) and the matrix N of the last step, with M N = -c_0 I."""
    M = _int_rows(M)
    n = len(M)
    c = [0] * n + [1]
    A = N = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        N, A = A, mat_mul(M, A)
        c[n - k] = -sum(A[i][i] for i in range(n)) // k  # exact: every c_k is an integer
        for i in range(n):
            A[i][i] += c[n - k]
    return c, N


def char_poly(M) -> list[int]:
    """Coefficients [c_0 .. c_n] with p(x) = sum c_k x^k, monic, of an integer matrix M."""
    return _faddeev_leverrier(M)[0]


def adjugate(M) -> tuple[list[list[int]], int]:
    """(adj M, det M) = (-(-1)^n N, (-1)^n c_0) of an integer M; ValueError when singular."""
    c, N = _faddeev_leverrier(M)
    if c[0] == 0:
        raise ValueError("matrix is singular")
    sign = (-1) ** len(N)
    return [[-sign * x for x in row] for row in N], sign * c[0]


def matrix_order(M, cap: int = 64) -> int | None:
    """Multiplicative order of the integer matrix M, or None if it exceeds cap."""
    M = _int_rows(M)
    I = [[int(i == j) for j in range(len(M))] for i in range(len(M))]
    P = M
    for k in range(1, cap + 1):
        if P == I:
            return k
        P = mat_mul(P, M)
    return None


def fraction_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
