"""Exact isotypic decomposition of a finite group of integer matrices.

The Q-isotypic components are the joint eigenspaces of the rational class
sums Z_R, the sum of all g in a rational class R (a conjugacy class merged
with the classes of the powers g^k, k coprime to the order of g).  Z_R acts
on a Q-irreducible constituent as the scalar sum of |C| chi(g) / chi(1)
over the classes C in R; that scalar is an algebraic integer fixed by
Galois, hence an integer in [-|R|, |R|], so the eigenvalues are integer
roots of the characteristic polynomial, each eigenspace is an integer
kernel read off a Hermite transform, and every step is exact (Serre,
*Linear Representations of Finite Groups*, sections 12-13).

For a component V with character chi, take c = <chi, chi> (the commutant
dimension), s = (1/|H|) sum (chi(g)^2 + chi(g^2)) / 2 (the invariant
symmetric forms) and d = the rank of the class sums restricted to V (the
degree of the character field).  Over R, V splits into k Galois-conjugate
components of one division type:

    type R if s/c > 1/2, C if s/c = 1/2, H if s/c < 1/2;
    k = d, except k = d/2 for type C;
    multiplicity m = c / (2s - c) (R), m^2 = c / d (C), m = c / (2c - 4s) (H),

and the deformation-space dimension of one real component of
multiplicity m is

    m(m+1)/2   real type,
    m^2        complex type,
    m(2m-1)    quaternionic type.

Every step runs on Python integers.  The class table is built once per
holonomy (``HolonomyData.class_table``, which ``CrystalGroup.betti`` and
``CrystalGroup.is_torsion_free`` read too): right multiplication by each
greedy generator is an index permutation, the only matrix products being
the |H| right products per generator; left multiplication L_g is read off
a breadth-first tree of words, conjugation by g is R_g^-1 L_g, and the
powers of a class representative follow its word (Holt, Eick and
O'Brien, *Handbook of Computational Group Theory*, 2005, section 4.2).
The table keeps each class's power map, the classes of g, g^2, ...,
g^order = 1: the square map, the rational classes, the power traces of
the Betti numbers and the element orders of the torsion test are read
off it.  A subspace is carried as
the integer rows of its ``rational.echelon`` form over one denominator
delta, on which the class sums act as integer matrices; a character is
kept as the integer trace of delta times a class representative, so c, s
and the multiplicities are integer sums divided once.  ``Fraction`` rows
appear only in the reduced row echelon bases that ``rational_components``
returns.  A real component is known by these numbers alone.  The summed
factor dimensions are checked against the dimension of the invariant
symmetric forms, read off independently over a generating set from the
rank of an integer system by HNF.  Nothing is drawn at random, so the same
group always gives the same report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import rational as ra
from .groups import CrystalGroup, FlatOrbError, HolonomyData, IntMat, _freeze_int_mat, _int_identity, _int_mul

FACTOR_DIM = {
    "R": lambda m: m * (m + 1) // 2,
    "C": lambda m: m * m,
    "H": lambda m: m * (2 * m - 1),
}


@dataclass(frozen=True)
class IsotypicComponent:
    irreducible_dim: int
    multiplicity: int
    division_type: str  # 'R', 'C' or 'H'
    factor_dim: int

    def signature(self) -> tuple[int, int, str, int]:
        return (self.irreducible_dim, self.multiplicity, self.division_type, self.factor_dim)


@dataclass(frozen=True)
class IsotypicReport:
    n: int
    components: tuple[IsotypicComponent, ...]
    total_dim: int
    invariant_form_dim: int

    def signature(self) -> tuple:
        return tuple(sorted(c.signature() for c in self.components))

    def summary(self) -> str:
        parts = ",".join(
            f"(m={c.multiplicity},{c.division_type},d={c.factor_dim})" for c in self.components
        )
        return f"components: {parts}; dim {self.total_dim}"


# -- invariant forms in integers ---------------------------------------------


def _rank(rows) -> int:
    """Rank of integer rows: the nonzero rows of their Hermite form."""
    return sum(1 for h in ra.hnf(list(rows), transform=False)[0] if any(h))


def invariant_form_dim(elements, n: int) -> int:
    """Dimension of the symmetric S with A^T S A = S for every element.

    That is n(n+1)/2 minus the rank of the integer system in S_kl, k <= l,
    by HNF: with a, b the columns i, j of A, the row of (A^T S A - S)_ij has
    a_k b_l + a_l b_k at S_kl (a_k b_k at S_kk), less 1 at S_ij.
    """
    pairs = [(k, l) for k in range(n) for l in range(k, n)]
    rows: list[list[int]] = []
    for A in elements:
        cols = list(zip(*A))
        for p, (i, j) in enumerate(pairs):
            a, b = cols[i], cols[j]
            row = [a[k] * b[l] + a[l] * b[k] if k != l else a[k] * b[k] for k, l in pairs]
            row[p] -= 1
            rows.append(row)
    return len(pairs) - _rank(rows)


# -- conjugacy classes ---------------------------------------------------------


@dataclass(frozen=True)
class _Classes:
    mats: tuple[IntMat, ...]  # the |H| integer elements
    generators: tuple[int, ...]  # element indices, picked greedily
    classes: tuple[tuple[int, ...], ...]  # element indices per conjugacy class
    sums: tuple[IntMat, ...]  # class sums, one n x n integer matrix per class
    powers: tuple[tuple[int, ...], ...]  # per class, the classes of g, g^2, ..., g^order = 1
    rational: tuple[tuple[int, ...], ...]  # class indices per rational class

    @property
    def square(self) -> tuple[int, ...]:
        """The class of g^2 for g in each class, read off ``powers``."""
        return tuple(p[1 % len(p)] for p in self.powers)


def _mat_sum(mats) -> IntMat:
    return tuple(tuple(map(sum, zip(*rows))) for rows in zip(*mats))


def _conjugacy_classes(mats: tuple[IntMat, ...]) -> _Classes:
    """The class table of the finite group ``mats``; L_g(y) = R_s(L_g(p)) for y = p s in the tree of words."""
    h, n = len(mats), len(mats[0])
    index = {A: i for i, A in enumerate(mats)}

    def lookup(A) -> int:
        try:
            return index[A]
        except KeyError:
            raise FlatOrbError("the matrices do not form a group") from None

    ident = lookup(_int_identity(n))
    right: dict[int, list[int]] = {}  # generator g -> (i -> index of mats[i] g)
    tree: dict[int, tuple[int, int]] = {ident: (ident, ident)}  # y -> (p, s) with y = p s, parents first
    for g in range(h):
        if g in tree:
            continue
        right[g] = [lookup(_int_mul(A, mats[g])) for A in mats]
        if len(set(right[g])) < h:  # g is singular, or an element is listed twice
            raise FlatOrbError("the matrices do not form a group")
        frontier = list(tree)
        while frontier:
            new = []
            for i in frontier:
                for s, perm in right.items():
                    if perm[i] not in tree:
                        tree[perm[i]] = (i, s)
                        new.append(perm[i])
            frontier = new
    words = list(tree.items())[1:]
    conj = []
    for g, perm in right.items():
        left = [0] * h
        left[ident] = g
        for y, (p, s) in words:
            left[y] = right[s][left[p]]
        undo = [0] * h  # R_g^-1
        for i, j in enumerate(perm):
            undo[j] = i
        conj.append([undo[x] for x in left])

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

    power_map, rational, merged = [], [], set()
    for ci, members in enumerate(classes):
        word, y = [], members[0]
        while y != ident:
            y, s = tree[y]
            word.append(right[s])
        powers = [members[0]]  # g, g^2, ..., g^order = 1
        while powers[-1] != ident:
            P = powers[-1]
            for perm in reversed(word):
                P = perm[P]
            powers.append(P)
        order = len(powers)
        power_map.append(tuple(label[P] for P in powers))
        if ci not in merged:
            rclass = sorted({label[powers[k - 1]] for k in range(1, order + 1) if math.gcd(k, order) == 1})
            merged.update(rclass)
            rational.append(tuple(rclass))
    sums = tuple(_mat_sum(mats[i] for i in c) for c in classes)
    return _Classes(mats, tuple(right), tuple(map(tuple, classes)), sums, tuple(power_map), tuple(rational))


def _class_table(elements) -> _Classes:
    """The cached table of a ``HolonomyData``, or a new one for a list of elements."""
    if isinstance(elements, HolonomyData):
        return elements.class_table
    return _conjugacy_classes(tuple(_freeze_int_mat(A) for A in elements))


# -- exact Q-isotypic components ----------------------------------------------


_Piece = tuple[list[list[int]], int, list[int]]  # nonzero rows of rational.echelon: (E, delta, pivots)


def _restrict(Z, piece: _Piece) -> list[list[int]]:
    """delta times the transpose of Z on the subspace: row j holds the pivot entries of Z e_j, e_j row j of E."""
    E, _, pivots = piece
    rows = [Z[p] for p in pivots]
    return [[sum(map(mul, r, e)) for r in rows] for e in E]


def _trace(Z, piece: _Piece) -> int:
    """delta times the trace of Z on the subspace: the diagonal of ``_restrict`` alone."""
    E, _, pivots = piece
    return sum(sum(map(mul, Z[p], e)) for p, e in zip(pivots, E))


def _is_scalar(M) -> bool:
    d = M[0][0]
    return all(x == (d if i == j else 0) for i, row in enumerate(M) for j, x in enumerate(row))


def _eigenspaces(Z, bound: int, piece: _Piece) -> list[_Piece]:
    """Eigenspaces of Z on the piece; the eigenvalues are integers in [-bound, bound]."""
    E, delta, _ = piece
    Mt = _restrict(Z, piece)
    if _is_scalar(Mt):
        return [piece]
    poly = ra.char_poly(Mt)  # roots delta * lambda
    pieces = []
    for lam in range(-bound, bound + 1):
        if sum(c * (lam * delta) ** k for k, c in enumerate(poly)) != 0:
            continue
        # the rows of U on zero rows of H = U (M^T - lambda delta I) span the kernel of M - lambda delta I
        H, U = ra.hnf([[x - lam * delta if i == j else x for j, x in enumerate(row)] for i, row in enumerate(Mt)])
        R, d, pivots = ra.echelon(ra.mat_mul([u for h, u in zip(H, U) if not any(h)], E))
        pieces.append((R[: len(pivots)], d, pivots))
    if sum(len(p[0]) for p in pieces) != len(E):
        raise FlatOrbError("a class sum is not diagonalisable over Q; the matrices do not form a finite group")
    return pieces


def _q_components(cl: _Classes) -> list[_Piece]:
    n = len(cl.mats[0])
    pieces = [([[int(i == j) for j in range(n)] for i in range(n)], 1, list(range(n)))]
    for rclass in cl.rational:
        Z = _mat_sum(cl.sums[c] for c in rclass)
        bound = sum(len(cl.classes[c]) for c in rclass)
        pieces = [sub for piece in pieces for sub in _eigenspaces(Z, bound, piece)]
    return pieces


def rational_components(elements) -> list[ra.Mat]:
    """Exact Q-isotypic components of a finite group of integer matrices.

    ``elements`` is the complete list of group elements, or a
    ``HolonomyData``, whose cached class table is read.  Each component is
    returned as the reduced row echelon basis of its span.
    """
    pieces = _q_components(_class_table(elements))
    return [[[Fraction(x, d) for x in row] for row in E] for E, d, _ in pieces]


# -- real components and their types -------------------------------------------


def _whole(num: int, den: int, what: str) -> int:
    """num / den, for den > 0, when it is a nonnegative integer."""
    q, r = divmod(num, den)
    if r or q < 0:
        raise FlatOrbError(f"character sums give a non-integral {what}")
    return q


def _real_components(cl: _Classes, piece: _Piece) -> list[IsotypicComponent]:
    """The real components of one Q-isotypic piece; the character of class C is ``_trace`` / delta."""
    E, delta, _ = piece
    t = [_trace(cl.mats[c[0]], piece) for c in cl.classes]
    sizes = [len(c) for c in cl.classes]
    den = len(cl.mats) * delta * delta
    c = _whole(sum(size * x * x for size, x in zip(sizes, t)), den, "commutant dimension")
    s = _whole(
        sum(size * (x * x + delta * t[sq]) for size, x, sq in zip(sizes, t, cl.square)),
        2 * den,
        "number of invariant forms",
    )
    restricted = [_restrict(S, piece) for S in cl.sums]
    d = 1 if all(map(_is_scalar, restricted)) else _rank([x for row in M for x in row] for M in restricted)
    if 2 * s > c:
        dtype, k, m = "R", d, _whole(c, 2 * s - c, "multiplicity")
    elif 2 * s == c:
        dtype, k, m = "C", d // 2, math.isqrt(c // d)
        if d % 2 or m * m * d != c:
            raise FlatOrbError("character sums give an inconsistent complex-type component")
    else:
        dtype, k, m = "H", d, _whole(c, 2 * c - 4 * s, "multiplicity")
    irreducible_dim = _whole(len(E), k * m, "irreducible dimension")
    return [IsotypicComponent(irreducible_dim, m, dtype, FACTOR_DIM[dtype](m))] * k


def isotypic_decompose(elements, gram) -> IsotypicReport:
    """Decompose the action into real isotypic components, exactly.

    ``elements`` is the complete list of point-group matrices (integer
    entries) preserving ``gram``, or a ``HolonomyData``, whose cached class
    table is read.  The summed factor dimensions are checked against the
    invariant-form dimension, read off over a generating set from the rank
    of an integer system by HNF.
    """
    n = len(gram)
    cl = _class_table(elements)
    comps = [comp for piece in _q_components(cl) for comp in _real_components(cl, piece)]
    comps.sort(key=lambda c: (c.irreducible_dim, c.multiplicity, c.division_type))
    total = sum(c.factor_dim for c in comps)
    exact = invariant_form_dim([cl.mats[g] for g in cl.generators], n)
    if total != exact:
        raise FlatOrbError(
            f"character sums give {total} invariant forms, the integer system {exact}"
        )
    return IsotypicReport(
        n=n, components=tuple(comps), total_dim=total, invariant_form_dim=exact
    )


def teich_report(group: CrystalGroup) -> IsotypicReport:
    """Holonomy, then decomposition; enforces the reducibility consequences."""
    grp = group.normalize()
    hol = grp.holonomy()
    report = isotypic_decompose(hol, grp.gram_int[0])
    if grp.is_torsion_free().torsion_free and hol.order > 1:
        if len(report.components) < 2 or report.total_dim < 2:
            raise FlatOrbError(
                "torsion-free group produced an irreducible decomposition; "
                "this contradicts the reducibility of such holonomy actions"
            )
    return report
