"""Reference linear algebra over the rationals, in plain ``Fraction`` arithmetic.

The tests check the library's integer routines against these: ``rref`` is
the textbook Gauss-Jordan elimination that ``rational.echelon`` replaces,
and ``det``, ``inverse`` and ``solve`` are built on the same elimination.
``positive_definite`` is the characteristic-polynomial test that
``CrystalGroup.validate`` replaced by Sylvester's criterion.  Nothing in
the library calls them.
"""

from fractions import Fraction

from flatorb import rational as ra

Vec = list[Fraction]
Mat = list[list[Fraction]]


def mat(rows) -> Mat:
    return [[ra.frac(x) for x in row] for row in rows]


def transpose(M: Mat) -> Mat:
    return [list(col) for col in zip(*M)]


def vec_sub(u: Vec, v: Vec) -> Vec:
    return [a - b for a, b in zip(u, v)]


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


def kernel(A: Mat) -> list[Vec]:
    """Basis of the right kernel of A, read off ``rref``: 1 at a free column."""
    n = len(A[0]) if A else 0
    R, pivots = rref(A)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -R[r][f]
        basis.append(v)
    return basis


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
    A = [list(row) + ident_row for row, ident_row in zip(M, ra.identity(n))]
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


def positive_definite(G) -> bool:
    """A symmetric integer G is positive definite iff its eigenvalues, all real,
    are positive, iff the coefficients of its characteristic polynomial
    alternate strictly in sign."""
    return all(c * (-1) ** k > 0 for k, c in enumerate(reversed(ra.char_poly(G))))
