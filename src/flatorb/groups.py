"""Crystallographic groups in lattice coordinates.

A group is stored as a set of affine generators over a provisional
translation lattice Z^n, together with a rational Gram form G encoding the
flat metric, held as the integer form d G over its least denominator d,
which ``CrystalGroup.make`` reads from outside input once and ``normalize``
and ``collapse`` pass on in integers.  ``normalize`` absorbs any hidden
pure translations the generators produce, refines the lattice so
translations are exactly Z^n, and rewrites everything in the new basis.
All group arithmetic is exact and runs in Python integers, and the
normalized group keeps the holonomy its last coset closure built.

One closure finds every hidden translation (Schreier's lemma): with a
coset representative r_A for each linear part A, the translation
subgroup T of the group generated by the generators and Z^n is generated
by Z^n and the elements r_A g r_{Ag}^-1 over all cosets A and generators
g.  T is normal, so every linear part maps T onto itself; with B a basis
of T, each B^-1 A B is an integer matrix, and since Z^n lies in T so is
B^-1.  The lattice is therefore refined once, in integers, and a second
closure over the rewritten generators is the holonomy.

Conventions:
  * an element (A, v) acts by x -> A x + v, composition
    (A, v) * (B, w) = (A B, A w + v), inverse (A^-1, -A^-1 v);
  * linear parts are integer matrices in lattice coordinates; a matrix A
    is an isometry of the metric iff A^T G A = G;
  * the closure and the fixed-point test carry a translation v as
    a = N v mod N, N the lcm of the generators' translation denominators,
    so coset translations v_A = a_A / N lie in [0,1)^n; only
    ``AffineElement.translation``, JSON and the properties built on read,
    ``HolonomyData.translations`` and ``CrystalGroup.gram``, hold
    ``Fraction``s.  ``_int_mul`` builds row i of A B as the sum of
    A[i][k] B[k] over the nonzero A[i][k].

The invariants read the holonomy's class table (``reps._Classes``): the
Betti numbers take the traces of each class's powers through Newton's
identities, and the torsion test runs on one element per rational class
of prime order (``CrystalGroup.is_torsion_free``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul
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


class OutOfRangeError(FlatOrbError):
    """An exact quantity whose float value lies outside the double range."""


IntMat = tuple[tuple[int, ...], ...]
IntVec = tuple[int, ...]
FracVec = tuple[Fraction, ...]


def _freeze_int_mat(M) -> IntMat:
    Mi, d = ra.clear_denominators(M)
    if d != 1:
        raise ValueError("linear parts must be integer matrices")
    return tuple(map(tuple, Mi))


def _int_identity(n: int) -> IntMat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _int_mul(A: IntMat, B: IntMat) -> IntMat:
    """Product of two integer matrices in Python integers, row by row.

    Row i of A B is the sum of A[i][k] B[k] over the nonzero A[i][k]: a
    signed permutation row costs one copy of a row of B.
    """
    zero = (0,) * (len(B[0]) if B else 0)
    out = []
    for row in A:
        acc = zero
        for a, b in zip(row, B):
            if a:
                acc = b if acc is zero and a == 1 else [x + a * y for x, y in zip(acc, b)]
        out.append(tuple(acc))
    return tuple(out)


@dataclass(frozen=True)
class AffineElement:
    """Affine isometry (A, v) in lattice coordinates."""

    linear: IntMat
    translation: FracVec

    @staticmethod
    def of(linear, translation) -> "AffineElement":
        return AffineElement(_freeze_int_mat(linear), tuple(map(ra.frac, translation)))

    @staticmethod
    def identity(n: int) -> "AffineElement":
        return AffineElement(_int_identity(n), (Fraction(0),) * n)

    @property
    def dim(self) -> int:
        return len(self.translation)

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in composition")
        v = tuple(sum(map(mul, row, other.translation), t) for row, t in zip(self.linear, self.translation))
        return AffineElement(_int_mul(self.linear, other.linear), v)

    def inverse(self) -> "AffineElement":
        Ainv = ra.unimodular_inverse(self.linear)
        v = tuple(-x for x in ra.mat_vec(Ainv, self.translation))
        return AffineElement(tuple(map(tuple, Ainv)), v)

    def apply(self, point) -> list[Fraction]:
        return ra.vec_add(ra.mat_vec(self.linear, ra.vec(point)), list(self.translation))


@dataclass(frozen=True)
class HolonomyData:
    """The finite point group and its coset translations v_A = a_A / N, a_A in [0, N)^n."""

    n: int
    elements: tuple[IntMat, ...]
    numerators: dict[IntMat, IntVec] = field(compare=False)
    denominator: int = field(compare=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def translations(self) -> dict[IntMat, FracVec]:  # built on each call
        N = self.denominator
        return {A: tuple(Fraction(x, N) for x in self.numerators[A]) for A in self.elements}

    @cached_property
    def class_table(self):
        """The class table (``reps._Classes``) that ``reps`` and ``CrystalGroup.betti`` read, built on first read."""
        from .reps import _conjugacy_classes  # reps imports this module

        return _conjugacy_classes(self.elements)


def _coset_closure(n: int, generators: tuple[AffineElement, ...]) -> tuple[dict[IntMat, IntVec], list[IntVec], int]:
    """Close the generator cosets modulo Z^n, on numerators over N.

    Returns ``(table, translations, N)``, N the lcm of the generators'
    translation denominators, with (A, a) (B, b) = (A B, A b + a mod N):
    ``table`` maps each linear part A to the numerator of a coset
    translation r_A, and ``translations`` lists the numerators of every
    distinct nonzero r_A g r_{Ag}^-1 mod Z^n met on the way, the pure
    translations by which two cosets with one linear part differ.  Every
    pair (A, g) is visited once, so by Schreier's lemma Z^n and
    ``translations`` generate the whole translation subgroup; when
    ``translations`` is empty, Z^n is the translation lattice and
    ``table`` is the holonomy.

    Right multiplication by the generators alone reaches every coset: a
    validated generator g preserves a positive definite form, so it has
    finite order k, g^-1 = g^(k-1), and g^k arrives as a pure translation
    that is checked against the identity coset like any other.
    """
    T, N = ra.clear_denominators([g.translation for g in generators])
    gens = [(g.linear, tuple(x % N for x in t)) for g, t in zip(generators, T)]
    table: dict[IntMat, IntVec] = {_int_identity(n): (0,) * n}
    translations: dict[IntVec, None] = {}
    queue = list(gens)
    while queue:
        A, a = queue.pop()
        seen = table.get(A)
        if seen is not None:
            if seen != a:
                translations[tuple((x - y) % N for x, y in zip(a, seen))] = None
            continue
        table[A] = a
        if len(table) > POINT_GROUP_CAP:
            raise CapExceededError(f"point group has more than {POINT_GROUP_CAP} elements")
        queue.extend((_int_mul(A, B), tuple((sum(map(mul, row, b)) + t) % N for row, t in zip(A, a))) for B, b in gens)
    return table, list(translations), N


def _fixed_point(A: IntMat, a: IntVec, N: int) -> tuple[FracVec, FracVec] | None:
    """A translate (A, w) of (A, a / N) by Z^n and a point it fixes, or None.

    Some translate fixes a point iff a / N lies in im(I - A) + Z^n, that is
    iff U a = 0 (mod N) on the zero rows of the Hermite form H = U (I - A).
    Only then does back-substitution on the other rows of H x = U a / N,
    with the non-pivot entries of x set to 0, give the point x and the
    witness w = (I - A) x; a zero translation fixes the origin.
    """
    n = len(a)
    if not any(a):
        return (Fraction(0),) * n, (Fraction(0),) * n
    ImA = [[int(i == j) - A[i][j] for j in range(n)] for i in range(n)]
    H, U = ra.hnf(ImA)
    r = sum(1 for h in H if any(h))
    y = [sum(map(mul, row, a)) for row in U]
    if any(c % N for c in y[r:]):
        return None
    x = [Fraction(0)] * n
    for i in reversed(range(r)):
        c = next(j for j, h in enumerate(H[i]) if h)
        x[c] = (Fraction(y[i], N) - sum(map(mul, H[i], x))) / H[i][c]  # x[c] is still 0
    return tuple(sum(map(mul, row, x)) for row in ImA), tuple(x)


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
    gram_int: tuple[IntMat, int]  # (Gi, d): G = Gi / d, d the least denominator
    name: str | None = None

    def __post_init__(self):
        self._holonomy: HolonomyData | None = None  # set by normalize()
        self.Binv: IntMat | None = None  # set by normalize() when it refines the lattice

    @staticmethod
    def make(n, generators=(), gram=None, name=None) -> "CrystalGroup":
        gens = tuple(g if isinstance(g, AffineElement) else AffineElement.of(*g) for g in generators)
        Gi, d = ra.clear_denominators(ra.identity(n) if gram is None else gram)
        return CrystalGroup(n, gens, (tuple(map(tuple, Gi)), d), name)

    @property
    def gram(self) -> tuple[FracVec, ...]:  # built on each read
        Gi, d = self.gram_int
        return tuple(tuple(Fraction(x, d) for x in row) for row in Gi)

    @property
    def normalized(self) -> bool:
        """True for a group ``normalize`` built; only such a group has its holonomy."""
        return self._holonomy is not None

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        """Check the Gram form and that each generator is an isometry of it.

        Every test runs in Python integers, on the form Gi of ``gram_int``.
        Gi must be symmetric and positive definite, which for a symmetric
        form is Sylvester's criterion: every leading principal minor, read
        off the fraction-free pivots of ``ra.leading_minors``, is positive;
        the pivots stop at the first that is not.  Each generator's n x n
        integer linear part A must satisfy A^T Gi A = Gi, which forces
        det A = (-1)^n c_0(A) = +-1, so only a failing A is tested for that.
        """
        Gi, _ = self.gram_int
        if len(Gi) != self.n or any(len(r) != self.n for r in Gi):
            raise InvalidGroupError("gram form has the wrong shape")
        if Gi != tuple(zip(*Gi)):
            raise InvalidGroupError("gram form must be symmetric")
        if any(m <= 0 for m in ra.leading_minors(Gi)):
            raise InvalidGroupError("gram form must be positive definite")
        for g in self.generators:
            A = g.linear
            if g.dim != self.n or len(A) != self.n or any(len(r) != self.n for r in A):
                raise InvalidGroupError("generator dimension mismatch")
            if _int_mul(_int_mul(tuple(zip(*A)), Gi), A) != Gi:
                if abs(ra.char_poly(A)[0]) != 1:
                    raise InvalidGroupError("generator linear part is not unimodular")
                raise InvalidGroupError("generator does not preserve the gram form")

    # -- normalization -------------------------------------------------

    def normalize(self) -> "CrystalGroup":
        """Absorb hidden pure translations and rescale the lattice to Z^n.

        One closure lists the translations r_A g r_{Ag}^-1 that generate
        the translation lattice T together with Z^n, as numerators over its
        denominator d.  If there are any, T has the Hermite basis B = H^T / d,
        H the Hermite form of d Z^n and those numerators.  B^-1 is an integer
        matrix since Z^n lies in T: (B^-1)^T = d H^-1, the right division of
        d I by the upper triangular H[:n] (``rational.right_divide``), so no
        Hermite transform is built.
        Each linear part is rewritten as B^-1 A B = (B^-1 A H^T) / d,
        integral since T is normal, and the Gram form as B^T G B =
        H Gi H^T / (d_G d^2) with Gi = d_G G, in lowest terms; an unchanged
        lattice keeps (Gi, d_G).  The closure of the rewritten generators,
        with its own denominator, is the holonomy.

        When the lattice is refined, the result's ``Binv`` holds the integer
        B^-1, which maps old lattice coordinates to new ones; on an
        unchanged lattice it is None.
        """
        if self.normalized:
            return self
        self.validate()
        n, Binv = self.n, None
        table, translations, d = _coset_closure(n, self.generators)
        if not translations:
            gens = [AffineElement(g.linear, tuple(x % 1 for x in g.translation)) for g in self.generators]
            gram = self.gram_int
        else:
            dI = [[d * int(i == j) for j in range(n)] for i in range(n)]
            H, _ = ra.hnf(dI + translations, transform=False)
            Ht = tuple(zip(*H[:n]))  # d B
            Binv = tuple(zip(*ra.right_divide(dI, H[:n])))
            gens = []
            for g in self.generators:
                M = _int_mul(_int_mul(Binv, g.linear), Ht)
                if any(x % d for row in M for x in row):
                    raise NotCrystallographicError("refined lattice is not invariant under a generator")
                v = tuple(sum(map(mul, row, g.translation)) % 1 for row in Binv)
                gens.append(AffineElement(tuple(tuple(x // d for x in row) for row in M), v))
            Gi, dg = self.gram_int
            gram = ra.lowest_terms(_int_mul(_int_mul(H[:n], Gi), Ht), dg * d**2)
            table, translations, d = _coset_closure(n, tuple(gens))
            if translations:
                raise NotCrystallographicError("refined lattice misses a translation of the group")
        # drop the identity and repeats, keeping the first of each
        one = AffineElement.identity(n)
        out = CrystalGroup(n, tuple(g for g in dict.fromkeys(gens) if g != one), gram, self.name)
        out._holonomy = HolonomyData(n, tuple(sorted(table)), table, d)
        out.Binv = Binv
        return out

    # -- holonomy ------------------------------------------------------

    def holonomy(self) -> HolonomyData:
        if self._holonomy is None:
            raise GroupNotNormalizedError("call normalize() before holonomy()")
        return self._holonomy

    # -- invariants ----------------------------------------------------

    def is_torsion_free(self) -> TorsionReport:
        """Exact fixed-point test, one element per rational class of prime order, computed once per group.

        Some translate (A, v_A + l), l in Z^n, fixes a point iff v_A lies
        in im(I - A) + Z^n (see ``_fixed_point``).  A torsion element has a
        power of prime order, and an element of finite order fixes a point
        and has the order of its linear part.  Conjugation and powers
        coprime to the order keep "some translate fixes a point", so it
        holds on whole rational classes (``reps._Classes``), and one
        representative per rational class of prime order decides.  The
        first that passes gives the witness and its fixed point.
        """
        return self._torsion

    @cached_property
    def _torsion(self) -> TorsionReport:
        hol = self.holonomy()
        cl = hol.class_table
        for rclass in cl.rational:
            order = len(cl.powers[rclass[0]])
            if order < 2 or any(order % p == 0 for p in range(2, math.isqrt(order) + 1)):
                continue
            A = cl.mats[cl.classes[rclass[0]][0]]
            found = _fixed_point(A, hol.numerators[A], hol.denominator)
            if found is not None:
                w, x = found
                return TorsionReport(False, AffineElement.of(A, w), x)
        return TorsionReport(True)

    def volume(self) -> float:
        """sqrt(det G) / |H|; det G = 4^k r is split exactly, so only r near 1 meets ``sqrt``.

        A group with a holonomy was validated by ``normalize``, so every
        leading minor of Gi is positive and the last is det Gi.
        """
        order = self.holonomy().order
        Gi, d = self.gram_int
        *_, det_Gi = ra.leading_minors(Gi)
        det = Fraction(det_Gi, d**self.n)
        k = (det.numerator.bit_length() - det.denominator.bit_length()) // 2
        try:
            vol = math.ldexp(math.sqrt(det / Fraction(4) ** k), k) / order
        except OverflowError:
            vol = math.inf
        if not 0 < vol < math.inf:
            raise OutOfRangeError(f"the volume sqrt(det G) / {order} lies outside the double range")
        return vol

    def betti(self, k: int) -> int:
        """Dimension of the holonomy-fixed subspace of the k-th exterior power.

        That is the character sum (1/|H|) sum_A tr(Lambda^k A), where
        tr(Lambda^k A) = e_k(A), the k-th elementary symmetric function of
        the eigenvalues of A.  It is a class function, so the sum takes one
        per conjugacy class of the holonomy's class table, weighted by the
        class size (see ``_exterior_traces``).
        """
        if not 0 <= k <= self.n:
            raise ValueError("degree out of range")
        order = self.holonomy().order
        total = self._exterior_traces[k]
        if total % order:
            raise FlatOrbError(f"Betti character sum {total} is not divisible by the holonomy order {order}")
        return total // order

    @cached_property
    def _exterior_traces(self) -> list[int]:
        """sum_A e_k(A) over the holonomy, k = 0..n, by Newton's identities per class.

        With the power traces p_i = tr(A^i), k e_k = sum_{i=1}^k (-1)^(i-1)
        e_{k-i} p_i.  A^i lies in the class ``powers[c][(i - 1) % order]``
        of the class table, so each p_i is the trace of a class
        representative and no characteristic polynomial is formed.
        """
        n, cl = self.n, self.holonomy().class_table
        trace = [sum(cl.mats[c[0]][i][i] for i in range(n)) for c in cl.classes]
        sums = [0] * (n + 1)
        for members, powers in zip(cl.classes, cl.powers):
            p = [trace[powers[i % len(powers)]] for i in range(n)]  # p[i] = tr(A^(i+1))
            e = [1]
            for k in range(1, n + 1):
                e.append(sum((-1) ** i * e[k - 1 - i] * p[i] for i in range(k)) // k)
            sums = [s + len(members) * x for s, x in zip(sums, e)]
        return sums


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


def holonomy_signature(group: CrystalGroup) -> tuple:
    """Canonical (matrix, coset) signature used to compare normalized groups."""
    return tuple(sorted(group.holonomy().translations.items()))
