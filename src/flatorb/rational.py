"""Exact linear algebra over the rationals for small dense systems.

Matrices are lists (or tuples) of rows and vectors are lists.  A rational
matrix enters integer arithmetic in one place, ``clear_denominators``;
``lowest_terms`` takes an integer matrix over d to its least denominator.
The two products, ``mat_mul`` and ``mat_vec`` (and ``groups._int_mul``,
which is ``mat_mul`` on tuples), take every entry as
sum(map(mul, row, col)).  Integer matrices stay in Python integers:
products, ``char_poly``, ``leading_minors``, ``adjugate``,
``matrix_order``, ``hnf`` and ``unimodular_inverse`` never leave them, and
the last six reject a non-integral entry of any type, comparing the rows
with their int() values; the group layer, ``wallpaper`` and ``collapse``
eliminate through these alone.  Elimination over the rationals is integral too: ``echelon``
(fraction-free Gauss-Jordan, Bareiss 1968; Cohen 1993, section 2.2) gives
the reduced row echelon form as an integer matrix over its least
denominator, ``kernel`` reads integer vectors off it, and ``rref`` and
``rank`` are ``Fraction`` views over it for the bases documented as
reduced row echelon (``collapse._span_basis``, ``lattices.rational_span``);
``reps`` keeps the integer form.  Sizes stay tiny (n <= 8), so the
routines favour clarity and exactness over asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

Vec = list[Fraction]
Mat = list[list[Fraction]]


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/2' or '0.25', and Fractions exactly.

    A string is read by ``int`` first, which accepts exactly the integer
    literals ``Fraction`` does and skips its regular expression; any other
    string goes to ``Fraction``.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(_literal(x))
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        # decimal literal semantics: 0.1 -> 1/10, not the binary expansion
        return Fraction(repr(x))
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _literal(s: str) -> int | Fraction:
    """The string s as an int when it is an integer literal, else as a Fraction."""
    try:
        return int(s)
    except ValueError:
        return Fraction(s)


def vec(xs) -> Vec:
    return [frac(x) for x in xs]


def identity(n: int) -> Mat:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(m: int, n: int) -> Mat:
    return [[Fraction(0)] * n for _ in range(m)]


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


def clear_denominators(M) -> tuple[list[list[int]], int]:
    """(d M, d) with d the lcm of the denominators of M's entries: d M is integral."""
    Q = [[x if type(x) is int else _literal(x) if type(x) is str else frac(x) for x in row] for row in M]
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


def echelon(M) -> tuple[list[list[int]], int, list[int]]:
    """(E, d, pivots) with E / d the reduced row echelon form of M, E integral, d > 0 least.

    Fraction-free Gauss-Jordan (Bareiss, Math. Comp. 1968) takes every other
    row x to (p x - x[c] y) / prev for the pivot row y, its pivot p and the
    last pivot prev: the division is exact, every entry being a minor of the
    cleared M.  The gcd of the entries, signed by the pivot, is divided out last.
    """
    E, _ = clear_denominators(M)
    pivots: list[int] = []
    prev = 1
    for c in range(len(E[0]) if E else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(E)) if E[i][c]), None)
        if piv is None:
            continue
        E[r], E[piv] = E[piv], E[r]
        y, p = E[r], E[r][c]
        E = [x if i == r else [(p * a - x[c] * b) // prev for a, b in zip(x, y)] for i, x in enumerate(E)]
        prev = p
        pivots.append(c)
    g = (gcd(*(x for row in E for x in row)) or 1) * (1 if prev > 0 else -1)
    return [[x // g for x in row] for row in E], prev // g, pivots


def rref(M) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and pivot column indices: ``echelon`` over its denominator."""
    E, d, pivots = echelon(M)
    return [[Fraction(x, d) for x in row] for row in E], pivots


def rank(M) -> int:
    return len(rref(M)[1])


def kernel(A) -> list[list[int]]:
    """Integer right-kernel basis of A: per free column f, d at f and -E[r][f] at the pivot of row r."""
    E, d, pivots = echelon(A)
    row = {c: r for r, c in enumerate(pivots)}
    n = len(A[0]) if A else 0
    return [[-E[row[j]][f] if j in row else d * (j == f) for j in range(n)] for f in range(n) if f not in row]


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


def leading_minors(M):
    """The leading principal minors of the square integer matrix M, up to the first zero one.

    Fraction-free elimination without row exchanges (Bareiss, Math. Comp.
    1968): pivot k is the k-th leading minor, and every later row x goes to
    (p x - x[k] y) // prev for the pivot row y, its pivot p and the last
    pivot prev, an exact division.  A generator, so a caller may stop early.
    """
    E = _int_rows(M)
    prev = 1
    for k in range(len(E)):
        y = E[k]
        p = y[k]
        yield p
        if p == 0:
            return
        E[k + 1 :] = [[(p * a - x[k] * b) // prev for a, b in zip(x, y)] for x in E[k + 1 :]]
        prev = p


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
