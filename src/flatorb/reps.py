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

No step uses floats.  A subspace is carried as the integer rows of its
``rational.echelon`` form over one denominator, and the class sums act on
it as integer matrices; ``Fraction`` rows appear only in the reduced row
echelon bases that ``rational_components`` returns.  A real component is
known by these numbers alone.  The summed factor dimensions are checked
against the dimension of the invariant symmetric forms, read off
independently over a generating set from the rank of an integer system by
HNF.  Nothing is drawn at random, so the same group always gives the same
report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from . import rational as ra
from .groups import CrystalGroup, FlatOrbError, _freeze_int_mat

if TYPE_CHECKING:
    import numpy as np

# numpy is imported inside the functions that build the int64 class tables,
# so the exact verbs that never reach them do not load it.

# Entry bound for the int64 arithmetic on elements, class sums and scaled
# bases: with n * |H| < 2^23 no product below can reach 2^63.
ENTRY_CAP = 2**20

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
    """Rank of integer rows, given as lists or arrays: the nonzero rows of their Hermite form."""
    return sum(1 for h in ra.hnf(list(rows))[0] if any(h))


def invariant_form_dim(elements, n: int) -> int:
    """Dimension of the symmetric S with A^T S A = S for every element.

    That is n(n+1)/2 minus the rank of the integer system in S_ij, i <= j, by HNF.
    """
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {p: k for k, p in enumerate(pairs)}
    rows: list[list[int]] = []
    for A in elements:
        for i, j in pairs:
            row = [0] * len(pairs)
            # (A^T S A - S)_{ij} = sum_{k,l} A_ki S_kl A_lj - S_ij
            for k in range(n):
                for l in range(n):
                    key = (k, l) if k <= l else (l, k)
                    row[index[key]] += A[k][i] * A[l][j]
            row[index[(i, j)]] -= 1
            rows.append(row)
    return len(pairs) - _rank(rows)


# -- conjugacy classes ---------------------------------------------------------


def _int64(rows) -> np.ndarray:
    import numpy as np

    arr = np.array(rows, dtype=object)
    if arr.size and np.abs(arr).max() > ENTRY_CAP:
        raise FlatOrbError(f"matrix entries exceed the cap {ENTRY_CAP} of the exact int64 class sums")
    return arr.astype(np.int64)


@dataclass(frozen=True)
class _Classes:
    mats: np.ndarray  # (|H|, n, n) integer elements
    generators: tuple[int, ...]  # element indices, picked greedily
    classes: tuple[tuple[int, ...], ...]  # element indices per conjugacy class
    sums: np.ndarray  # class sums, one n x n integer matrix per class
    square: tuple[int, ...]  # class of g^2 for g in each class
    rational: tuple[tuple[int, ...], ...]  # class indices per rational class


def _conjugacy_classes(elements) -> _Classes:
    import numpy as np

    mats = _int64([_freeze_int_mat(A) for A in elements])
    h, n = len(mats), len(elements[0])
    index = {m.tobytes(): i for i, m in enumerate(mats)}

    def lookup(products) -> list[int]:
        try:
            return [index[p.tobytes()] for p in products]
        except KeyError:
            raise FlatOrbError("the matrices do not form a group") from None

    ident = lookup([np.eye(n, dtype=np.int64)])[0]
    right: dict[int, list[int]] = {}  # generator -> (i -> index of mats[i] @ g)
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
        powers = [members[0]]  # g, g^2, ..., g^order = 1
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
    return _Classes(mats, tuple(right), tuple(map(tuple, classes)), sums, tuple(square), tuple(rational))


# -- exact Q-isotypic components ----------------------------------------------


_Piece = tuple[list[list[int]], int, list[int]]  # nonzero rows of rational.echelon: (E, delta, pivots)


def _restrict(Z: np.ndarray, piece: _Piece) -> np.ndarray:
    """delta times the matrices Z (stacked or single) on the subspace: the rows ``pivots`` of Z @ E^T."""
    E, _, pivots = piece
    return (Z @ _int64(E).T)[..., pivots, :]


def _is_scalar(M: np.ndarray) -> bool:
    import numpy as np

    return bool(np.all(M == M[..., :1, :1] * np.eye(M.shape[-1], dtype=M.dtype)))


def _eigenspaces(Z: np.ndarray, bound: int, piece: _Piece) -> list[_Piece]:
    """Eigenspaces of Z on the piece; the eigenvalues are integers in [-bound, bound]."""
    E, delta, _ = piece
    M = _restrict(Z, piece)
    if _is_scalar(M):
        return [piece]
    Mt = M.T.tolist()
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
    n = cl.mats.shape[1]
    pieces = [([[int(i == j) for j in range(n)] for i in range(n)], 1, list(range(n)))]
    for rclass in cl.rational:
        Z = cl.sums[list(rclass)].sum(axis=0)
        bound = sum(len(cl.classes[c]) for c in rclass)
        pieces = [sub for piece in pieces for sub in _eigenspaces(Z, bound, piece)]
    return pieces


def rational_components(elements) -> list[ra.Mat]:
    """Exact Q-isotypic components of a finite group of integer matrices.

    ``elements`` is the complete list of group elements.  Each component is
    returned as the reduced row echelon basis of its span.
    """
    pieces = _q_components(_conjugacy_classes(list(elements)))
    return [[[Fraction(x, d) for x in row] for row in E] for E, d, _ in pieces]


# -- real components and their types -------------------------------------------


def _whole(q: Fraction, what: str) -> int:
    if q.denominator != 1 or q < 0:
        raise FlatOrbError(f"character sums give a non-integral {what}")
    return int(q)


def _real_components(cl: _Classes, piece: _Piece) -> list[IsotypicComponent]:
    h = len(cl.mats)
    E, delta, _ = piece
    reps = cl.mats[[c[0] for c in cl.classes]]
    chi = [Fraction(int(M.trace()), delta) for M in _restrict(reps, piece)]
    sizes = [len(c) for c in cl.classes]
    c = _whole(sum(size * x * x for size, x in zip(sizes, chi)) / h, "commutant dimension")
    s = _whole(
        sum(size * (x * x + chi[sq]) for size, x, sq in zip(sizes, chi, cl.square)) / (2 * h),
        "number of invariant forms",
    )
    restricted = _restrict(cl.sums, piece)
    d = 1 if _is_scalar(restricted) else _rank(M.ravel() for M in restricted)
    if 2 * s > c:
        dtype, k, m = "R", d, _whole(Fraction(c, 2 * s - c), "multiplicity")
    elif 2 * s == c:
        dtype, k, m = "C", d // 2, math.isqrt(c // d)
        if d % 2 or m * m * d != c:
            raise FlatOrbError("character sums give an inconsistent complex-type component")
    else:
        dtype, k, m = "H", d, _whole(Fraction(c, 2 * c - 4 * s), "multiplicity")
    irreducible_dim = _whole(Fraction(len(E), k * m), "irreducible dimension")
    return [IsotypicComponent(irreducible_dim, m, dtype, FACTOR_DIM[dtype](m))] * k


def isotypic_decompose(elements, gram) -> IsotypicReport:
    """Decompose the action into real isotypic components, exactly.

    ``elements`` is the complete list of point-group matrices (integer
    entries) preserving ``gram``.  The summed factor dimensions are checked
    against the invariant-form dimension, read off over a generating set
    from the rank of an integer system by HNF.
    """
    elements = list(elements)
    n = len(gram)
    cl = _conjugacy_classes(elements)
    comps = [comp for piece in _q_components(cl) for comp in _real_components(cl, piece)]
    comps.sort(key=lambda c: (c.irreducible_dim, c.multiplicity, c.division_type))
    total = sum(c.factor_dim for c in comps)
    exact = invariant_form_dim([elements[g] for g in cl.generators], n)
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
    report = isotypic_decompose(hol.elements, grp.gram)
    if grp.is_torsion_free().torsion_free and hol.order > 1:
        if len(report.components) < 2 or report.total_dim < 2:
            raise FlatOrbError(
                "torsion-free group produced an irreducible decomposition; "
                "this contradicts the reducibility of such holonomy actions"
            )
    return report
