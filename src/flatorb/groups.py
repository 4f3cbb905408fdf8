"""Crystallographic groups in lattice coordinates.

A group is stored as a set of affine generators over a provisional
translation lattice Z^n, together with a rational Gram form encoding the
flat metric.  ``normalize`` absorbs any hidden pure translations the
generators produce, refines the lattice so translations are exactly Z^n,
and rewrites everything in the new basis.  All group arithmetic is exact:
linear parts compose in Python integers, and one coset closure serves
both ``normalize`` and ``holonomy``.

Conventions:
  * an element (A, v) acts by x -> A x + v, composition
    (A, v) * (B, w) = (A B, A w + v), inverse (A^-1, -A^-1 v);
  * linear parts are integer matrices in lattice coordinates; a matrix A
    is an isometry of the metric iff A^T G A = G;
  * coset representatives v_A are reduced into the half-open box [0,1)^n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from . import rational as ra

POINT_GROUP_CAP = 10_000


class FlatOrbError(Exception):
    """Base class for domain errors raised by this package."""


class NotCrystallographicError(FlatOrbError):
    pass


class CapExceededError(FlatOrbError):
    """A resource cap was reached; the message names what was counted."""


class GroupNotNormalizedError(FlatOrbError):
    pass


class InvalidGroupError(FlatOrbError, ValueError):
    """A group description that names no crystallographic group."""


IntMat = tuple[tuple[int, ...], ...]
FracVec = tuple[Fraction, ...]


def _freeze_int_mat(M) -> IntMat:
    out = []
    for row in M:
        frozen = []
        for x in row:
            f = ra.frac(x)
            if f.denominator != 1:
                raise ValueError("linear parts must be integer matrices")
            frozen.append(int(f))
        out.append(tuple(frozen))
    return tuple(out)


def _freeze_vec(v) -> FracVec:
    return tuple(ra.frac(x) for x in v)


def _int_identity(n: int) -> IntMat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _int_mul(A: IntMat, B: IntMat) -> IntMat:
    """Product of two integer matrices, kept in Python integers."""
    cols = tuple(zip(*B))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in A)


@dataclass(frozen=True)
class AffineElement:
    """Affine isometry (A, v) in lattice coordinates."""

    linear: IntMat
    translation: FracVec

    @staticmethod
    def of(linear, translation) -> "AffineElement":
        return AffineElement(_freeze_int_mat(linear), _freeze_vec(translation))

    @staticmethod
    def identity(n: int) -> "AffineElement":
        return AffineElement(_int_identity(n), (Fraction(0),) * n)

    @property
    def dim(self) -> int:
        return len(self.translation)

    def is_translation(self) -> bool:
        return self.linear == _int_identity(self.dim)

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in composition")
        w = other.translation
        v = tuple(
            sum((a * x for a, x in zip(row, w) if a), t)
            for row, t in zip(self.linear, self.translation)
        )
        return AffineElement(_int_mul(self.linear, other.linear), v)

    def inverse(self) -> "AffineElement":
        Ainv = ra.unimodular_inverse(self.linear)
        v = tuple(-x for x in ra.mat_vec(Ainv, self.translation))
        return AffineElement(tuple(map(tuple, Ainv)), v)

    def apply(self, point) -> list[Fraction]:
        return ra.vec_add(ra.mat_vec(self.linear, ra.vec(point)), list(self.translation))


def _frac_part(v: FracVec) -> FracVec:
    return tuple(x - math.floor(x) for x in v)


@dataclass(frozen=True)
class HolonomyData:
    """The finite point group together with coset translations v_A mod Z^n."""

    n: int
    elements: tuple[IntMat, ...]
    translations: dict[IntMat, FracVec] = field(compare=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    def items(self):
        return [(A, self.translations[A]) for A in self.elements]

    def cocycle_defects(self) -> list[tuple[IntMat, IntMat]]:
        """Pairs violating v_{AB} = A v_B + v_A (mod Z^n); empty when valid."""
        bad = []
        for A, vA in self.items():
            for B, vB in self.items():
                AB = AffineElement(A, vA) * AffineElement(B, vB)
                if _frac_part(self.translations[AB.linear]) != _frac_part(AB.translation):
                    bad.append((A, B))
        return bad


def _coset_closure(
    n: int, generators: tuple[AffineElement, ...], basis: ra.Mat | None
) -> tuple[dict[IntMat, FracVec] | None, ra.Vec | None]:
    """Close the generator cosets modulo the lattice spanned by ``basis``.

    ``basis`` holds the lattice basis as columns; ``None`` stands for Z^n.
    Each coset translation is reduced into the half-open cell of the basis.
    Returns ``(table, None)``, the reduced translation v_A of every linear
    part A, or ``(None, t)`` with ``t`` the first pure translation found
    outside the lattice: two cosets with one linear part differ by one.

    Right multiplication by the generators alone reaches every coset: a
    validated generator g preserves a positive definite form, so it has
    finite order k, g^-1 = g^(k-1), and g^k arrives as a pure translation
    that is checked against the identity coset like any other.
    """
    if basis is None:
        reduce = _frac_part
    else:
        basis_inv = ra.inverse(basis)

        def reduce(v):
            coords = ra.mat_vec(basis_inv, list(v))
            return tuple(ra.mat_vec(basis, [c - math.floor(c) for c in coords]))

    table: dict[IntMat, FracVec] = {_int_identity(n): (Fraction(0),) * n}
    queue = list(generators)
    while queue:
        g = queue.pop()
        v = reduce(g.translation)
        seen = table.get(g.linear)
        if seen is not None:
            if seen != v:
                return None, ra.vec_sub(list(v), list(seen))
            continue
        table[g.linear] = v
        if len(table) > POINT_GROUP_CAP:
            raise CapExceededError(f"point group has more than {POINT_GROUP_CAP} elements")
        coset = AffineElement(g.linear, v)
        queue.extend(coset * h for h in generators)
    return table, None


def _fixed_point(A: IntMat, v) -> tuple[FracVec, FracVec] | None:
    """A translate (A, w) of (A, v) by Z^n and a point it fixes, or None.

    Some translate fixes a point iff v lies in im(I - A) + Z^n.  With
    (Q, R) the integer quotient map of R^n onto R^n / im(I - A), that holds
    iff Q v is integral; then w = v - R Q v lies in im(I - A), and
    (I - A) x = w gives the fixed point x.
    """
    n = len(v)
    ImA = [[int(i == j) - A[i][j] for j in range(n)] for i in range(n)]
    Q, R = ra.quotient_map(ra.transpose(ImA), n)
    qv = [sum(q * x for q, x in zip(row, v)) for row in Q]
    if any(c.denominator != 1 for c in qv):
        return None
    w = tuple(x - sum(r * c for r, c in zip(row, qv)) for x, row in zip(v, R))
    return w, tuple(ra.solve(ImA, list(w)))


@dataclass(frozen=True)
class TorsionReport:
    torsion_free: bool
    witness: AffineElement | None = None
    fixed_point: FracVec | None = None


@dataclass
class CrystalGroup:
    """A crystallographic group: generators over Z^n plus a Gram form."""

    n: int
    generators: tuple[AffineElement, ...]
    gram: tuple[tuple[Fraction, ...], ...]
    name: str | None = None
    normalized: bool = False
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        self.generators = tuple(
            g if isinstance(g, AffineElement) else AffineElement.of(*g) for g in self.generators
        )
        self.gram = tuple(tuple(ra.frac(x) for x in row) for row in self.gram)
        self._holonomy_cache: HolonomyData | None = None

    @staticmethod
    def make(n, generators=(), gram=None, name=None) -> "CrystalGroup":
        gens = tuple(
            g if isinstance(g, AffineElement) else AffineElement.of(g[0], g[1]) for g in generators
        )
        G = ra.mat(gram) if gram is not None else ra.identity(n)
        return CrystalGroup(n=n, generators=gens, gram=tuple(tuple(r) for r in G), name=name)

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        """Check the Gram form and that each generator is an isometry of it.

        The form must be a symmetric positive definite n x n matrix; each
        generator's linear part must be a unimodular n x n integer matrix A
        with A^T G A = G.  That last check runs in Python integers, on the
        form scaled once by the common denominator of its entries.
        """
        G = ra.mat(self.gram)
        if len(G) != self.n or any(len(r) != self.n for r in G):
            raise InvalidGroupError("gram form has the wrong shape")
        if not ra.is_symmetric(G):
            raise InvalidGroupError("gram form must be symmetric")
        if not ra.is_positive_definite(G):
            raise InvalidGroupError("gram form must be positive definite")
        d = math.lcm(*(x.denominator for row in G for x in row))
        Gi = tuple(tuple(int(x * d) for x in row) for row in G)
        for g in self.generators:
            A = g.linear
            if g.dim != self.n or len(A) != self.n or any(len(r) != self.n for r in A):
                raise InvalidGroupError("generator dimension mismatch")
            if abs(ra.det(A)) != 1:
                raise InvalidGroupError("generator linear part is not unimodular")
            if _int_mul(_int_mul(tuple(zip(*A)), Gi), A) != Gi:
                raise InvalidGroupError("generator does not preserve the gram form")

    # -- normalization -------------------------------------------------

    def normalize(self) -> "CrystalGroup":
        """Absorb hidden pure translations and rescale the lattice to Z^n.

        When the lattice is refined, ``notes["basis_change"]`` holds the new
        basis as columns in the old coordinates; an unchanged lattice has no
        such note.
        """
        if self.normalized:
            return self
        self.validate()
        n = self.n
        notes = {k: v for k, v in self.notes.items() if k != "basis_change"}
        basis = None  # columns: current lattice basis in original coords; None is Z^n
        while True:
            table, translation = _coset_closure(n, self.generators, basis)
            if translation is None:
                break
            rows = ra.transpose(basis) if basis else ra.identity(n)
            basis = ra.transpose(ra.lattice_basis(rows + [translation]))
        if basis is None:
            # an unchanged lattice keeps the linear parts and the form, and
            # the closure is already the holonomy
            holonomy = HolonomyData(n, tuple(sorted(table)), table)
            rewritten = [AffineElement(g.linear, _frac_part(g.translation)) for g in self.generators]
            gram = self.gram
        else:
            holonomy = None
            Binv = ra.inverse(basis)
            rewritten = []
            for g in self.generators:
                A = ra.mat_mul(Binv, ra.mat_mul(g.linear, basis))
                v = ra.mat_vec(Binv, list(g.translation))
                if any(x.denominator != 1 for row in A for x in row):
                    raise NotCrystallographicError("refined lattice is not invariant under a generator")
                rewritten.append(AffineElement.of(A, _frac_part(tuple(v))))
            gram = ra.mat_mul(ra.transpose(basis), ra.mat_mul(self.gram, basis))
            notes["basis_change"] = [[ra.fraction_str(x) for x in row] for row in basis]
        # drop the identity and repeats, keeping the first of each
        gens = dict.fromkeys(g for g in rewritten if not (g.is_translation() and not any(g.translation)))
        out = CrystalGroup(
            n=n,
            generators=tuple(gens),
            gram=tuple(tuple(r) for r in gram),
            name=self.name,
            normalized=True,
            notes=notes,
        )
        if holonomy is None:
            out.validate()  # every matrix was rewritten in the refined basis
        out._holonomy_cache = holonomy
        return out

    # -- holonomy ------------------------------------------------------

    def holonomy(self) -> HolonomyData:
        if not self.normalized:
            raise GroupNotNormalizedError("call normalize() before holonomy()")
        if self._holonomy_cache is not None:
            return self._holonomy_cache
        table, _ = _coset_closure(self.n, self.generators, None)
        if table is None:
            raise GroupNotNormalizedError("pure fractional translation found; group is not normalized")
        self._holonomy_cache = HolonomyData(self.n, tuple(sorted(table)), table)
        return self._holonomy_cache

    # -- invariants ----------------------------------------------------

    def is_torsion_free(self) -> TorsionReport:
        """Exact fixed-point test per holonomy class.

        Some translate (A, v_A + l), l in Z^n, fixes a point iff
        v_A lies in im(I - A) + Z^n; the first class that passes gives the
        witness and its fixed point (see ``_fixed_point``).
        """
        hol = self.holonomy()
        for A in hol.elements:
            if A == _int_identity(self.n):
                continue
            found = _fixed_point(A, hol.translations[A])
            if found is not None:
                w, x = found
                return TorsionReport(False, AffineElement.of(A, w), x)
        return TorsionReport(True)

    def volume(self) -> float:
        hol = self.holonomy()
        return math.sqrt(float(ra.det(self.gram))) / hol.order

    def betti(self, k: int) -> int:
        """Dimension of the holonomy-fixed subspace of the k-th exterior power.

        That is the character sum (1/|H|) sum_A tr(Lambda^k A), where
        tr(Lambda^k A) = (-1)^k c_{n-k}(A) for the characteristic
        polynomial sum_j c_j(A) x^j of A.
        """
        if not 0 <= k <= self.n:
            raise ValueError("degree out of range")
        order = self.holonomy().order
        total = (-1) ** k * self._char_poly_sum[self.n - k]
        if total % order:
            raise FlatOrbError(f"Betti character sum {total} is not divisible by the holonomy order {order}")
        return total // order

    @cached_property
    def _char_poly_sum(self) -> list[int]:
        """Coefficientwise sum of the characteristic polynomials of the holonomy."""
        polys = [ra.char_poly(A) for A in self.holonomy().elements]
        return [sum(coeffs) for coeffs in zip(*polys)]


# -- JSON interchange ---------------------------------------------------


def group_to_dict(group: CrystalGroup) -> dict:
    d = {
        "dimension": group.n,
        "gram": [[ra.fraction_str(x) for x in row] for row in group.gram],
        "generators": [
            {
                "linear": [list(row) for row in g.linear],
                "translation": [ra.fraction_str(x) for x in g.translation],
            }
            for g in group.generators
        ],
    }
    if group.name:
        d["name"] = group.name
    return d


def group_from_dict(d: dict) -> CrystalGroup:
    try:
        n = d["dimension"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"dimension {n!r} is not a positive integer")
        gram = d.get("gram")
        gens = [(g["linear"], g["translation"]) for g in d.get("generators", [])]
        return CrystalGroup.make(n, gens, gram=gram, name=d.get("name"))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise InvalidGroupError(f"bad group description: {detail}") from None


def load_group(path: str | Path) -> CrystalGroup:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except ValueError as exc:
            raise InvalidGroupError(f"{path} is not JSON: {exc}") from None
    return group_from_dict(d)


def dump_group(group: CrystalGroup, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(group_to_dict(group), fh, indent=2, sort_keys=True)
        fh.write("\n")


def holonomy_signature(group: CrystalGroup) -> tuple:
    """Canonical (matrix, coset) signature used to compare normalized groups."""
    hol = group.holonomy()
    return tuple(sorted((A, _frac_part(hol.translations[A])) for A in hol.elements))
