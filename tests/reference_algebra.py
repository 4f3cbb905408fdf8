"""Reference linear algebra over the rationals, in plain ``Fraction`` arithmetic.

The tests check the library's integer routines against these: ``rref`` is
the textbook Gauss-Jordan elimination that ``rational.echelon`` replaces,
and ``det``, ``inverse`` and ``solve`` are built on the same elimination.
``positive_definite`` is the characteristic-polynomial test that
``CrystalGroup.validate`` replaced by Sylvester's criterion.  The int64
class tables at the end are the numpy builder and decomposition that
``reps`` replaced by Python integers.  Nothing in the library calls them.
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


# -- int64 class tables ----------------------------------------------------
#
# The numpy class-table builder and decomposition that ``reps`` replaced by
# index permutations and Python integers: every element is multiplied by
# each greedy generator, conjugated by matrix products, and the characters
# are ``Fraction``s.  ``test_reps`` compares the library's tables,
# components and signatures with these.

# Entry bound for the int64 arithmetic: with n * |H| < 2^23 no product below can reach 2^63.
ENTRY_CAP = 2**20


def _int64(rows):
    import numpy as np

    arr = np.array(rows, dtype=object)
    if arr.size and np.abs(arr).max() > ENTRY_CAP:
        raise ValueError(f"matrix entries exceed the cap {ENTRY_CAP} of the int64 class sums")
    return arr.astype(np.int64)


def conjugacy_classes(elements) -> dict:
    """mats, generators, classes, sums, square and rational, as ``reps._Classes`` holds them, in int64."""
    import math

    import numpy as np

    mats = _int64([[[int(x) for x in row] for row in A] for A in elements])
    h, n = len(mats), len(elements[0])
    index = {m.tobytes(): i for i, m in enumerate(mats)}

    def lookup(products) -> list[int]:
        return [index[p.tobytes()] for p in products]

    ident = lookup([np.eye(n, dtype=np.int64)])[0]
    right: dict[int, list[int]] = {}
    reached = {ident}
    for g in range(h):
        if g in reached:
            continue
        right[g] = lookup(mats @ mats[g])
        frontier = list(reached)
        while frontier:
            new = []
            for i in frontier:
                for perm in right.values():
                    if perm[i] not in reached:
                        reached.add(perm[i])
                        new.append(perm[i])
            frontier = new
    conj = [lookup(mats[g] @ mats @ mats[perm.index(ident)]) for g, perm in right.items()]

    label = [-1] * h
    classes: list[list[int]] = []
    for i in range(h):
        if label[i] >= 0:
            continue
        members = [i]
        label[i] = len(classes)
        for x in members:
            for perm in conj:
                if label[perm[x]] < 0:
                    label[perm[x]] = len(classes)
                    members.append(perm[x])
        classes.append(members)

    square, rational, merged = [], [], set()
    for ci, members in enumerate(classes):
        g = mats[members[0]]
        powers = [members[0]]
        P = g
        while powers[-1] != ident:
            P = P @ g
            powers.extend(lookup([P]))
        order = len(powers)
        square.append(label[powers[1 % order]])
        if ci not in merged:
            rclass = sorted({label[powers[k - 1]] for k in range(1, order + 1) if math.gcd(k, order) == 1})
            merged.update(rclass)
            rational.append(tuple(rclass))
    sums = np.array([mats[c].sum(axis=0) for c in classes])
    return {
        "mats": mats, "generators": tuple(right), "classes": classes, "sums": sums,
        "square": tuple(square), "rational": tuple(rational),
    }


def _restrict(Z, piece):
    E, _, pivots = piece
    return (Z @ _int64(E).T)[..., pivots, :]


def _is_scalar(M) -> bool:
    import numpy as np

    return bool(np.all(M == M[..., :1, :1] * np.eye(M.shape[-1], dtype=M.dtype)))


def _rank(rows) -> int:
    return sum(1 for h in ra.hnf(list(rows))[0] if any(h))


def _eigenspaces(Z, bound, piece):
    E, delta, _ = piece
    M = _restrict(Z, piece)
    if _is_scalar(M):
        return [piece]
    Mt = M.T.tolist()
    poly = ra.char_poly(Mt)
    pieces = []
    for lam in range(-bound, bound + 1):
        if sum(c * (lam * delta) ** k for k, c in enumerate(poly)) != 0:
            continue
        H, U = ra.hnf([[x - lam * delta if i == j else x for j, x in enumerate(row)] for i, row in enumerate(Mt)])
        R, d, pivots = ra.echelon(ra.mat_mul([u for h, u in zip(H, U) if not any(h)], E))
        pieces.append((R[: len(pivots)], d, pivots))
    assert sum(len(p[0]) for p in pieces) == len(E)
    return pieces


def _q_components(cl):
    n = cl["mats"].shape[1]
    pieces = [([[int(i == j) for j in range(n)] for i in range(n)], 1, list(range(n)))]
    for rclass in cl["rational"]:
        Z = cl["sums"][list(rclass)].sum(axis=0)
        bound = sum(len(cl["classes"][c]) for c in rclass)
        pieces = [sub for piece in pieces for sub in _eigenspaces(Z, bound, piece)]
    return pieces


def rational_components(elements) -> list[Mat]:
    """The reduced row echelon bases of the Q-isotypic components, from the int64 tables."""
    return [[[Fraction(x, d) for x in row] for row in E] for E, d, _ in _q_components(conjugacy_classes(elements))]


def _whole(q: Fraction) -> int:
    assert q.denominator == 1 and q >= 0, q
    return int(q)


def isotypic_signature(elements) -> tuple:
    """Sorted (irreducible dim, multiplicity, type, factor dim) of the real components, with Fraction characters."""
    import math

    factor_dim = {"R": lambda m: m * (m + 1) // 2, "C": lambda m: m * m, "H": lambda m: m * (2 * m - 1)}
    cl = conjugacy_classes(elements)
    h = len(cl["mats"])
    out = []
    for piece in _q_components(cl):
        E, delta, _ = piece
        reps = cl["mats"][[c[0] for c in cl["classes"]]]
        chi = [Fraction(int(M.trace()), delta) for M in _restrict(reps, piece)]
        sizes = [len(c) for c in cl["classes"]]
        c = _whole(sum(size * x * x for size, x in zip(sizes, chi)) / h)
        s = _whole(sum(size * (x * x + chi[sq]) for size, x, sq in zip(sizes, chi, cl["square"])) / (2 * h))
        restricted = _restrict(cl["sums"], piece)
        d = 1 if _is_scalar(restricted) else _rank(M.ravel() for M in restricted)
        if 2 * s > c:
            dtype, k, m = "R", d, _whole(Fraction(c, 2 * s - c))
        elif 2 * s == c:
            dtype, k, m = "C", d // 2, math.isqrt(c // d)
        else:
            dtype, k, m = "H", d, _whole(Fraction(c, 2 * c - 4 * s))
        out += [(_whole(Fraction(len(E), k * m)), m, dtype, factor_dim[dtype](m))] * k
    return tuple(sorted(out))
