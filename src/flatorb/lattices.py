"""Lattice reduction and flat-torus geometry at desk scale.

Implements the canonical "special basis" (the lexicographic minimum, by
non-increasing norm tuples, of all angle-bounded bases inside the closed
ball of radius R0), the covering radius, the diameter lower bound
diam >= beta_n |u1|, the rational span of float vectors (from
their integer relations, by LLL), and the limits of collapsing families of
lattices: read off a schedule for any family, or taken directly for one
that shrinks a span.

The angle constant is theta_n = arcsin(2^(-n(n-1)/4)) and
beta_n = min(1/2, sin(2 theta_n)); in particular beta_2 = beta_3 = 1/2.
An LLL basis (delta = 3/4) satisfies |det B| >= 2^(-n(n-1)/4) prod |b_j|,
and sin angle(b_i, rest) >= |det B| / prod |b_j|, so it is angle-bounded
and R0 is at most its longest norm.  The special basis comes from one
exhaustive search over the short vectors of that ball: u_1 scans upward
in norm, and the first norm at which it completes an angle-bounded basis
is R0.  This is what these desk-scale inputs (n <= 4) need.

The ball is enumerated once, Fincke-Pohst style, in the norm-sorted LLL
basis, which stays well conditioned when the input basis is not; the
innermost coordinate comes out as a whole integer interval, the outer ones
on Python floats.  Each public call reduces once: one frame of that basis
serves all its balls.  The candidates are arrays (coefficients, vectors,
norms, coordinates) in one order, by norm rounded to 12 digits and then by
coordinates, so ties between equal norms never depend on the input basis.
The search decides in integers which candidates can complete a basis:
each prefix of coefficient rows carries an integer basis K of its kernel,
and a row z extends it exactly when z K is a primitive vector.

The covering radius of L (the diameter of R^n / L) is the largest norm of
a Voronoi vertex; the same enumeration, centred, finds the cell's facets in
one call with one small ball per class of L / 2L, each with its own radius
and its own ENUM_CAP count (one ball at the largest class radius passes
ENUM_CAP at collapse scales), tests all classes at once, and then finds
that vertex's lattice distance.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from typing import Callable, Sequence

import numpy as np

from . import rational as ra
from .groups import FlatOrbError

ENUM_CAP = 1_000_000
COMBO_CAP = 2_000_000
VERTEX_CAP = 100_000
ANGLE_SLACK = 1e-9
RELATION_SCALES = (2.0**30, 2.0**24)
RELATION_TOL = 1e-14
FRACTION_DEN = 10**6
FRACTION_TOL = 1e-15
TIE_TOL = 1e-9
LLL_DELTA = 0.75
SINGULAR_TOL = 1e-12  # least |det B| / prod |b_j| of a nonsingular basis
VANISH_TOL = 1e-2  # sequence_limit: a vanishing norm ends below this
CONV_TOL = 1e-6  # sequence_limit: a convergent vector's last three values agree within this


class LatticeEnumerationError(FlatOrbError):
    pass


class InvalidLatticeError(FlatOrbError, ValueError):
    """A basis, schedule or direction set that describes no lattice family."""


class NoLimitError(FlatOrbError):
    pass


def theta_n(n: int) -> float:
    if n < 2:
        return math.pi / 2
    return math.asin(2.0 ** (-n * (n - 1) / 4.0))


def beta_n(n: int) -> float:
    return min(0.5, math.sin(2 * theta_n(n)))


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice given by basis column vectors."""

    basis: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.basis, dtype=float)
        object.__setattr__(self, "basis", B)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise InvalidLatticeError("basis must be a square matrix of column vectors")
        with np.errstate(over="ignore", invalid="ignore"):
            G = B.T @ B
            finite = np.isfinite(B).all() and np.isfinite(G).all()
        if not finite:
            raise InvalidLatticeError("basis entries and their inner products must be finite")
        # Hadamard: det(B^T B) <= prod diag(B^T B), with equality for
        # orthogonal columns, so |det B| / prod |b_j|, the determinant of
        # the basis scaled to unit columns, tests singularity at any scale
        sq = np.diag(G)
        if not (sq > 0).all():
            raise InvalidLatticeError("basis is singular or its inner products underflow")
        if abs(np.linalg.det(B / np.sqrt(sq))) < SINGULAR_TOL:
            raise InvalidLatticeError("basis is singular")

    @staticmethod
    def from_rows(rows) -> "Lattice":
        return Lattice(np.asarray(rows, dtype=float).T)

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def gram(self) -> np.ndarray:
        return self.basis.T @ self.basis


@dataclass(frozen=True)
class SpecialBasis:
    vectors: tuple[np.ndarray, ...]  # ordered by non-increasing norm
    coefficients: np.ndarray  # integer matrix, columns express vectors in the input basis
    R0: float
    theta: float
    beta: float

    @cached_property
    def norms(self) -> tuple[float, ...]:
        return tuple(float(np.linalg.norm(v)) for v in self.vectors)

    def matrix(self) -> np.ndarray:
        return np.column_stack(self.vectors)


_Frame = namedtuple("_Frame", "seed U R")  # LLL basis by norm, basis @ U = seed, R^T R = seed^T seed


def _frame(lattice: Lattice, angle_bound: float | None = None) -> _Frame:
    """The frame every ball of one public call reads; U comes from LLL, ``angle_bound`` checks the seed."""
    seed, U = lll_reduce(lattice.basis)
    order = np.argsort(np.linalg.norm(seed, axis=0), kind="stable")
    seed, U = seed[:, order], U[:, order]
    if angle_bound is not None and _min_sine(seed) < angle_bound - ANGLE_SLACK:
        raise LatticeEnumerationError("LLL basis is not angle-bounded")
    return _Frame(seed, U, np.linalg.cholesky(seed.T @ seed).T)


def _ball(frame: _Frame, queries: Sequence[tuple[float, np.ndarray | None]]) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients, in the input basis, of the lattice vectors v with |v - S centre| <= r.

    One call answers a list of (r, centre) queries and returns the stacked
    coefficient rows, query by query, with the query index of each row.  S
    is the frame's seed and ``centre`` is in its coordinates.  A centre of
    None asks for the nonzero vectors of the r-ball, one row per +-pair,
    listed by the member whose last nonzero seed coordinate is positive.
    Fincke-Pohst with bounds from the frame's Cholesky factor: the outer
    coordinates recurse on Python floats; the innermost one is a whole
    integer interval, kept as a run (query, lo, count, prefix), and all
    runs are expanded once by ``np.repeat``.  ``ENUM_CAP`` bounds each
    query's vectors, both signs counted, before each run is kept; an
    interval wider than the cap (in an LLL seed it holds more vectors) is
    reported before it is walked.
    """
    n = len(frame.R)
    cols = frame.R.T.tolist()  # cols[k] is column k of R
    runs: list[list[int]] = []

    def recurse(k: int, partial: list[float], budget: float, prefix: tuple[int, ...]):
        nonlocal count
        rkk, pk = cols[k][k], partial[k]
        span = math.sqrt(max(budget, 0.0)) / abs(rkk)
        if span > ENUM_CAP:
            raise LatticeEnumerationError(
                f"short-vector enumeration cap exceeded: a coordinate range {2 * span:.3g} integers wide"
                f" passes ENUM_CAP = {ENUM_CAP}"
            )
        lo = math.ceil(-pk / rkk - span - 1e-12)
        hi = math.floor(-pk / rkk + span + 1e-12)
        if half and not any(prefix):  # every later coordinate is zero: keep the positive member
            lo = max(lo, 1 if k == 0 else 0)
        if k == 0:
            while lo <= hi and budget - (pk + rkk * lo) ** 2 < -1e-12:
                lo += 1
            while hi >= lo and budget - (pk + rkk * hi) ** 2 < -1e-12:
                hi -= 1
            if lo > hi:
                return
            count += (2 if half else 1) * (hi - lo + 1)
            if count > ENUM_CAP:
                raise LatticeEnumerationError(
                    f"short-vector enumeration cap exceeded: {count} vectors listed, more than ENUM_CAP = {ENUM_CAP}"
                )
            runs.append([q, lo, hi - lo + 1, *prefix])
            return
        for zk in range(lo, hi + 1):
            left = budget - (pk + rkk * zk) ** 2
            if left < -1e-12:
                continue
            recurse(k - 1, [p + c * zk for p, c in zip(partial, cols[k])], left, (zk, *prefix))

    for q, (r, centre) in enumerate(queries):  # recurse reads q, half and count
        half, count = centre is None, 0
        recurse(n - 1, [0.0] * n if half else (-frame.R @ centre).tolist(), r * r * (1 + 1e-12), ())
    runs_ = np.array(runs, dtype=np.int64).reshape(-1, n + 2)
    lo, counts = runs_[:, 1], runs_[:, 2]
    Y = np.repeat(runs_[:, 2:], counts, axis=0)  # column 0, the counts, becomes lo, ..., hi
    Y[:, 0] = np.arange(len(Y)) + np.repeat(lo - np.cumsum(counts) + counts, counts)
    return Y @ frame.U.T, np.repeat(runs_[:, 0], counts)


def short_vectors(lattice: Lattice, r: float) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """All nonzero lattice vectors with |v| <= r, both signs included.

    Pairs of input-basis coefficients and vectors, sorted by (norm,
    coefficients).  A view of the enumeration ``special_basis`` runs.
    """
    if not 0 <= r < math.inf:
        raise ValueError("radius must be finite and nonnegative")
    half, _ = _ball(_frame(lattice), [(r, None)])
    Z = np.concatenate([half, -half])
    V = Z @ lattice.basis.T
    order = np.lexsort((*Z.T[::-1], np.linalg.norm(V, axis=1)))
    return [(tuple(Z[i].tolist()), V[i]) for i in order]


def _min_sine(cols: np.ndarray) -> float:
    """min over i of sin(angle(v_i, span of the others)), for n independent columns.

    Row i of the inverse is orthogonal to every other column and has inner
    product 1 with column i, so the residual of v_i off the others has
    length 1 / |row i|.
    """
    rows = np.linalg.inv(cols)
    return float(np.min(1.0 / (np.linalg.norm(cols, axis=0) * np.linalg.norm(rows, axis=1))))


def _candidates(lattice: Lattice, r: float, frame: _Frame):
    """The half set of the closed r-ball as arrays in one tie-stable order.

    Returns (Z, V, lengths, coords): input-basis coefficient rows, vectors
    whose first coordinate beyond 1e-12 is positive, their norms and their
    coordinates rounded to 9, sorted by (norms rounded to 12 digits,
    coords).  Equal-norm ties thus break on coordinates alone.
    """
    Z, _ = _ball(frame, [(r, None)])
    V = Z @ lattice.basis.T
    big = np.abs(V) > 1e-12
    lead = V[np.arange(len(V)), np.argmax(big, axis=1)]
    sign = np.where(big.any(axis=1) & (lead < 0), -1, 1)
    Z, V = Z * sign[:, None], V * sign[:, None]
    lengths = np.linalg.norm(V, axis=1)
    coords = np.round(V, 9)
    order = np.lexsort((*coords.T[::-1], np.round(lengths, 12)))
    return Z[order], V[order], lengths[order], coords[order]


def _primitive(Z: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Indices of the rows z of Z that keep a primitive prefix P primitive.

    P (k rows extending to a basis of Z^n) maps Z^n onto Z^k, with kernel
    basis K; P and z map onto Z^(k+1) iff z K has gcd 1 (z K = 0 in P's span).
    """
    return np.flatnonzero(np.gcd.reduce(Z @ K, axis=1) == 1)


def _kernel_step(K: np.ndarray, z: np.ndarray) -> np.ndarray:
    """K updated for the row z: T (z K)^T = (g, 0, ..., 0), so T's later rows span z K's kernel."""
    T = ra.hnf([[int(c)] for c in z @ K])[1]
    return K @ np.array(T, dtype=np.int64)[1:].T


def _search_bases(Z, V, lengths, coords, *, angle_bound, start):
    """Pruned DFS for the lexicographically least angle-bounded basis.

    The candidates (``_candidates``) ascend by (norm, coords); a basis is
    built in canonical order u_1, ..., u_n with strictly decreasing
    candidate indices, i.e. non-increasing (norm, coords).  Every pool holds
    only the candidates that keep the prefix primitive (``_primitive``), so
    a full n-tuple is a basis of Z^n and only its angle bound is tested.
    u_1 scans upward from index ``start`` and every deeper pool holds earlier
    candidates, ascending, so each depth stops at the first prefix whose
    norms exceed the best key's.  The key starts with |u_1|, hence the first
    u_1 norm that completes a basis is R0 and the scan ends past it.
    ``COMBO_CAP`` bounds the primitive prefixes this search visits, and it
    is the only search per ``special_basis`` call.  Returns the winning
    candidate indices (u_1 first) or None.
    """
    n = V.shape[1]
    rounded = np.round(lengths, 12).tolist()
    best_key = None
    best_combo = None
    nodes = 0

    def dfs(pool, combo, K):
        nonlocal best_key, best_combo, nodes
        depth = len(combo)
        for idx in pool:
            nodes += 1
            if nodes > COMBO_CAP:
                raise LatticeEnumerationError(
                    f"basis search cap exceeded: {nodes} primitive prefixes visited, more than COMBO_CAP = {COMBO_CAP}"
                )
            if best_key is not None:
                prefix = tuple(rounded[i] for i in combo) + (rounded[idx],)
                if prefix > best_key[0][: depth + 1]:
                    break  # the pool ascends in norm: no later candidate can help
            combo.append(idx)
            if depth + 1 < n:
                Ki = _kernel_step(K, Z[idx])
                dfs(_primitive(Z[:idx], Ki).tolist(), combo, Ki)
            elif _min_sine(V[combo].T) >= angle_bound - ANGLE_SLACK:
                key = (tuple(rounded[i] for i in combo), tuple(coords[combo].ravel().tolist()))
                if best_key is None or key < best_key:
                    best_key = key
                    best_combo = list(combo)
            combo.pop()

    K = np.eye(n, dtype=np.int64)
    dfs((start + _primitive(Z[start:], K)).tolist(), [], K)
    return best_combo


def lll_reduce(basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classic LLL reduction on column vectors (floats, desk scale).

    A ``LLL_DELTA`` = 3/4 reduced basis has orthogonality defect at most
    2^(n(n-1)/4), hence satisfies both the determinant inequality and the
    angle bound used throughout this module.  A size reduction of column k
    leaves the Gram-Schmidt rows before k current, a swap those before
    k - 1, and each stale row is recomputed when the loop next reads it,
    with the same dot products as a full recomputation, so the basis does
    not depend on how much is recomputed.  Returns B and U, the same column
    operations applied to the identity in Python ints (basis @ U = B up to
    rounding), as int64; LatticeEnumerationError if U does not fit.
    """
    B = np.array(basis, dtype=float)
    n = B.shape[1]
    U = [[int(i == j) for i in range(n)] for j in range(n)]  # the columns, in Python ints
    Bs, mu, sq = np.zeros_like(B), np.zeros((n, n)), np.zeros(n)  # sq[j] = |b*_j|^2

    def gso(start: int, stop: int):
        """Gram-Schmidt rows start, ..., stop - 1; the rows before start are current."""
        for i in range(start, stop):
            Bs[:, i] = B[:, i]
            for j in range(i):
                mu[i, j] = (B[:, i] @ Bs[:, j]) / sq[j]
                Bs[:, i] -= mu[i, j] * Bs[:, j]
            sq[i] = Bs[:, i] @ Bs[:, i]

    k = 1
    current = 0  # rows before this are current
    steps = 0
    while k < n:
        steps += 1
        if steps > 10_000:
            raise LatticeEnumerationError("LLL did not converge")
        gso(current, k + 1)
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q:
                B[:, k] -= q * B[:, j]
                U[k] = [a - q * b for a, b in zip(U[k], U[j])]
                gso(k, k + 1)
        if sq[k] >= (LLL_DELTA - mu[k, k - 1] ** 2) * sq[k - 1]:
            current, k = k + 1, k + 1
        else:
            B[:, [k - 1, k]] = B[:, [k, k - 1]]
            U[k - 1], U[k] = U[k], U[k - 1]
            current, k = k - 1, max(k - 1, 1)
    if max(abs(c) for col in U for c in col) >= 2**63:
        raise LatticeEnumerationError("LLL transform exceeds 64-bit integers")
    return B, np.array(U, dtype=np.int64).T


def _relations_at(y: np.ndarray, scale: float) -> list[list[int]]:
    """LLL rows a of [I | scale y] that pass |a . y| <= RELATION_TOL |a|, for a unit vector y."""
    n = len(y)
    B = lll_reduce(np.vstack([np.eye(n), scale * y]))[0]
    return [[int(c) for c in a] for a in np.rint(B[:n].T) if abs(a @ y) <= RELATION_TOL * np.linalg.norm(a)]


def _float_span(y: np.ndarray) -> list[list[int]]:
    """R(y) for one nonzero float vector: an integer basis of the kernel of its integer relations.

    Found by LLL on the rows of [I | C y] with y a unit vector
    (Lenstra-Lenstra-Lovasz 1982; Hastad-Just-Lagarias-Schnorr 1989): a
    row is a relation when |a . y| <= 1e-14 |a|.  Each kernel is the
    integer quotient map of its relations (``rational.quotient_map``), whose
    rows span the kernel's lattice of integer points, so two kernels are
    equal iff their Hermite forms are.  The kernel found at C = 2^30 counts
    only if C = 2^24 finds the same one; otherwise y sits too close to a
    relation for double precision, and FlatOrbError is raised rather than
    a guess returned.
    """
    y = y / np.abs(y).max()  # first into the unit cube, so that the norm cannot overflow
    y = y / np.linalg.norm(y)
    fine, coarse = (ra.quotient_map(_relations_at(y, scale), len(y))[0] for scale in RELATION_SCALES)
    if ra.hnf(fine)[0] != ra.hnf(coarse)[0]:
        raise FlatOrbError("cannot decide the rational closure at double precision")
    return fine


def rational_span(X) -> list[ra.Vec]:
    """Basis of R(X), the smallest rational subspace holding every column of X.

    R(X) is the sum of the spans R(x) of the columns.  A column whose every
    coordinate is within 1e-15 (relative) of a fraction with denominator
    <= 10^6 is read as those fractions, as a typed decimal is.  Any other
    column x gives R(x) from its integer relations (``_float_span``); these
    are seen up to a height of about 2^(24/d) for d coordinates (4096 for
    d = 2, 256 for d = 3), and a longer one goes unseen, so that R(x) comes
    out larger.  Raises FlatOrbError for a column that is zero or not
    finite, or that double precision cannot decide.
    """
    X = np.asarray(X, dtype=float)
    span: list[ra.Vec] = []
    for x in X.T:
        top = np.abs(x).max(initial=0.0)
        if not (math.isfinite(top) and top):
            raise FlatOrbError("a rational span needs finite nonzero vectors")
        read = [Fraction(c).limit_denominator(FRACTION_DEN) for c in x.tolist()]
        if all(abs(float(f) - c) <= FRACTION_TOL * abs(c) for f, c in zip(read, x.tolist())):
            span.append(read)
        else:
            span.extend(_float_span(x))
    R, pivots = ra.rref(span)
    return R[: len(pivots)]


def _spanning_index(Z: np.ndarray) -> int:
    """Index of the candidate row that first brings the span to dimension n.

    No basis can use only earlier candidates, so this is where the scan
    of u_1 starts; its norm is the successive minimum lambda_n.  Each step
    takes the first later row z off the span so far, the first with z K != 0.
    """
    K = np.eye(Z.shape[1], dtype=np.int64)
    idx = -1
    for _ in range(Z.shape[1]):
        later = np.flatnonzero((Z[idx + 1 :] @ K).any(axis=1))
        if len(later) == 0:
            raise LatticeEnumerationError("candidate list does not span the lattice")
        idx += 1 + int(later[0])
        K = _kernel_step(K, Z[idx])
    return idx


def special_basis(lattice: Lattice) -> SpecialBasis:
    """The canonical angle-bounded basis inside the closed R0-ball.

    R0 is the smallest radius whose closed ball contains an angle-bounded
    basis; among all such bases (ordered by non-increasing norm) the
    lexicographically minimal norm tuple wins, with a deterministic
    coordinate tie-break between equal-norm bases.  The LLL basis is
    angle-bounded, so the ball of its longest vector holds the answer.
    """
    return _special_basis(lattice)[0]


def _special_basis(lattice: Lattice) -> tuple[SpecialBasis, _Frame]:
    """``special_basis`` and the enumeration frame it built."""
    n = lattice.n
    bound = math.sin(theta_n(n))
    frame = _frame(lattice, bound)
    radius = float(np.linalg.norm(frame.seed[:, -1]))
    Z, V, lengths, coords = _candidates(lattice, radius * (1 + 1e-12), frame)
    combo = _search_bases(Z, V, lengths, coords, angle_bound=bound, start=_spanning_index(Z))
    if combo is None:
        raise LatticeEnumerationError("no angle-bounded basis within the LLL radius")
    vectors = tuple(lattice.basis @ Z[i] for i in combo)  # each exactly B z for its coefficients z
    return SpecialBasis(
        vectors=vectors,
        coefficients=Z[combo].T.copy(),
        R0=float(np.linalg.norm(vectors[0])),
        theta=theta_n(n),
        beta=beta_n(n),
    ), frame


# -- covering radius ------------------------------------------------------


def _relevant_vectors(lattice: Lattice, frame: _Frame) -> np.ndarray:
    """The Voronoi-relevant vectors of the lattice L, both signs, as rows.

    v is relevant iff +-v are the only shortest vectors of v + 2L (Voronoi;
    Conway-Sloane, SPLAG ch. 2 and 21).  Class S c + 2L, c in {0, 1}^n in
    the seed basis S, is 2y + S c for the y in L with |y + S c / 2| <= r / 2,
    r the norm of its shortest member with seed coordinates in {-1, 0, 1}.
    One pass over the 3^n such members gives every r, and one ``_ball`` call
    lists all 2^n - 1 nonzero classes, each centred with its own radius.  A
    class's shortest member w (the first listed, on a tie) is kept when
    (v - w).(v + w) > TIE_TOL |v - w| |v + w| for every other member v, both
    factors taken from integer coefficients; that test runs on all classes
    at once.
    """
    n, B, (seed, U, _) = lattice.n, lattice.basis, frame
    reps = np.array(list(product((-1, 0, 1), repeat=n)))
    radii = np.full(2**n, np.inf)  # by class code, first coordinate most significant
    np.minimum.at(radii, reps % 2 @ (1 << np.arange(n)[::-1]), np.linalg.norm(reps @ seed.T, axis=1))
    C = np.array(list(product((0, 1), repeat=n)))[1:]  # the nonzero classes
    K, cls = _ball(frame, [(r / 2 * (1 + 1e-9), -c / 2) for r, c in zip(radii[1:], C)])
    K = 2 * K + (C @ U.T)[cls]
    order = np.lexsort((np.linalg.norm(K @ B.T, axis=1), cls))  # stable: first listed on a tie
    shortest = order[np.searchsorted(cls, np.arange(len(C)))]  # cls ascends, query by query
    K0 = K[shortest][cls]
    others = ~((K == K0).all(axis=1) | (K == -K0).all(axis=1))
    minus, plus = (K - K0)[others] @ B.T, (K + K0)[others] @ B.T
    gap = np.sum(minus * plus, axis=1)  # |v|^2 - |w|^2
    tied = ~(gap > TIE_TOL * np.linalg.norm(minus, axis=1) * np.linalg.norm(plus, axis=1))
    relevant = [B @ K[i] for i in np.delete(shortest, cls[others][tied])]
    if np.linalg.matrix_rank(np.array(relevant)) < n:
        raise LatticeEnumerationError("the relevant vectors found do not span the space")
    return np.concatenate([relevant, np.negative(relevant)])


def covering_radius(lattice: Lattice, eps: float) -> tuple[float, float]:
    """Enclosure (lo, hi) of the covering radius mu, the diameter of R^n / L.

    hi is the largest norm of a point where the facet planes 2 v.x = |v|^2
    of n relevant vectors meet and that keeps every facet inequality (to
    1e-9 |v|^2); the farthest Voronoi vertex, at mu, is among them.  lo is
    that point's lattice distance, so lo <= mu, and hi - lo is rounding only
    (0 is a nearest lattice point of a vertex).  A lost relevant vector only
    widens the enclosure, as every lattice vector's half-space holds the
    cell.  Raises LatticeEnumerationError if hi - lo > ``eps``, or past
    ``VERTEX_CAP`` n-subsets (C(30, 4) for n = 4, C(62, 5) in 5-D).
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    return _covering_radius(lattice, eps, _frame(lattice))


def _covering_radius(lattice: Lattice, eps: float, frame: _Frame) -> tuple[float, float]:
    P = _relevant_vectors(lattice, frame)
    sq = np.sum(P * P, axis=1)
    if math.comb(len(P), lattice.n) > VERTEX_CAP:
        raise LatticeEnumerationError(f"covering-radius vertex cap exceeded: {len(P)} relevant vectors")
    subsets = np.array(list(combinations(range(len(P)), lattice.n)))
    subsets = subsets[np.linalg.det(P[subsets]) != 0]  # a +-pair or coplanar vectors meet in no point
    X = np.linalg.solve(2 * P[subsets], sq[subsets][..., None])[..., 0]
    X = X[(2 * X @ P.T - sq <= 1e-9 * sq).all(axis=1)]
    radii = np.linalg.norm(X, axis=1)
    far, hi = X[np.argmax(radii)], float(radii.max())
    Z, _ = _ball(frame, [(hi * (1 + 1e-9), np.linalg.solve(frame.seed, far))])
    lo = float(np.linalg.norm(far - Z @ lattice.basis.T, axis=1).min())
    if hi - lo > eps:
        raise LatticeEnumerationError(f"covering-radius enclosure [{lo}, {hi}] is wider than {eps}")
    return lo, hi


@dataclass(frozen=True)
class DiameterReport:
    diam_lo: float
    diam_hi: float
    bound: float
    holds: bool
    trivial_upper: float
    trivial_upper_ok: bool
    special: SpecialBasis


def check_diameter_bound(lattice: Lattice) -> DiameterReport:
    """Verify diam(R^n / L) >= beta_n |u1|; the diameter is the covering radius."""
    sb, frame = _special_basis(lattice)
    bound = sb.beta * sb.norms[0]
    trivial_upper = 0.5 * sum(sb.norms)
    lo, hi = _covering_radius(lattice, 0.05 * sb.norms[0], frame)
    return DiameterReport(
        diam_lo=lo,
        diam_hi=hi,
        bound=bound,
        holds=lo >= bound - 1e-12,
        trivial_upper=trivial_upper,
        trivial_upper_ok=lo <= trivial_upper + 1e-9,
        special=sb,
    )


# -- collapsing sequences --------------------------------------------------


@dataclass(frozen=True)
class TorusLimit:
    limit_dim: int
    limit_basis: np.ndarray  # n x m columns spanning the limit lattice
    vanishing_directions: np.ndarray  # n x (n - m) unit columns

    @property
    def circumferences(self) -> tuple[float, ...]:
        return tuple(float(np.linalg.norm(self.limit_basis[:, j])) for j in range(self.limit_basis.shape[1]))


def check_schedule(ts: Sequence[float]) -> None:
    """Reject a schedule of fewer than three values or one not finite, positive and strictly decreasing."""
    if len(ts) < 3:
        raise InvalidLatticeError("schedule needs at least three values")
    if not (all(b < a for a, b in zip(ts, ts[1:])) and ts[-1] > 0 and math.isfinite(ts[0])):
        raise InvalidLatticeError("schedule must be finite, positive and strictly decreasing")


def sequence_limit(
    family: Callable[[float], Lattice | np.ndarray],
    t_schedule: Sequence[float],
) -> TorusLimit:
    """Classify special-basis vectors of a shrinking family into limits.

    A basis vector is *vanishing* when its norms strictly decrease along
    the schedule and end below ``VANISH_TOL`` (1e-2); it is *convergent*
    when its last three values agree within ``CONV_TOL`` (1e-6).  Anything
    else aborts with ``NoLimitError``.
    """
    ts = list(t_schedule)
    check_schedule(ts)
    bases = []
    for t in ts:
        L = family(t)
        if not isinstance(L, Lattice):
            L = Lattice(np.asarray(L, dtype=float))
        bases.append(special_basis(L).matrix())
    n = bases[0].shape[0]
    norms = np.array([[np.linalg.norm(B[:, j]) for j in range(n)] for B in bases])
    diam_proxy = 0.5 * norms.sum(axis=1)
    if np.max(diam_proxy) > 10 * diam_proxy[0] + 1:
        raise NoLimitError("diameters grow along the schedule; no limit detected")
    convergent, vanishing = [], []
    for j in range(n):
        col = norms[:, j]
        tail = [bases[k][:, j] for k in range(len(ts) - 3, len(ts))]
        cauchy = all(
            np.linalg.norm(tail[a] - tail[b]) < CONV_TOL for a in range(3) for b in range(a + 1, 3)
        )
        shrinking = all(col[k + 1] < col[k] - 1e-15 for k in range(len(ts) - 1)) and col[-1] < VANISH_TOL
        if cauchy:
            convergent.append(j)
        elif shrinking:
            vanishing.append(j)
        else:
            raise NoLimitError("no limit detected along schedule")
    B_last = bases[-1]
    m = len(convergent)
    limit = B_last[:, convergent] if m else np.zeros((n, 0))
    vdirs = []
    for j in vanishing:
        v = B_last[:, j]
        nv = np.linalg.norm(v)
        vdirs.append(v / nv if nv > 0 else v)
    vmat = np.column_stack(vdirs) if vdirs else np.zeros((n, 0))
    return TorusLimit(limit_dim=m, limit_basis=limit, vanishing_directions=vmat)


def _directions(lattice: Lattice, directions) -> np.ndarray:
    """``directions`` as the columns of an n x k array, checked independent and finite."""
    D = np.asarray(directions, dtype=float)
    if D.ndim == 1:
        D = D[:, None]
    if (
        D.ndim != 2
        or D.shape[0] != lattice.n
        or not np.isfinite(D).all()
        or np.linalg.matrix_rank(D) != D.shape[1]
    ):
        raise InvalidLatticeError(f"directions must be independent finite vectors of length {lattice.n}")
    return D


def axis_scaling_family(lattice: Lattice, directions: np.ndarray) -> Callable[[float], Lattice]:
    """Family L_t that scales the span of ``directions`` (columns) by t."""
    B = lattice.basis
    Q, _ = np.linalg.qr(_directions(lattice, directions))
    P = Q @ Q.T

    def fam(t: float) -> Lattice:
        M = (np.eye(lattice.n) - P) + t * P
        return Lattice(M @ B)

    return fam


def scaling_limit(lattice: Lattice, directions) -> TorusLimit:
    """Limit of ``axis_scaling_family(lattice, directions)`` as t -> 0, taken directly.

    With B the basis, the collapsing subspace is B W for W = R(B^-1 D), the
    rational span of the directions in lattice coordinates
    (``rational_span``): an irrational direction collapses its whole
    rational closure.  With A and R from ``rational.quotient_map(W)``, the
    limit lattice is the projection of B R Z^m orthogonal to B W, whose
    Gram is (A G^-1 A^T)^-1 for G = B^T B.  ``limit_basis`` is its special
    basis and ``vanishing_directions`` an orthonormal basis of B W.
    """
    B = lattice.basis
    n = lattice.n
    W = rational_span(np.linalg.solve(B, _directions(lattice, directions)))
    A, R = ra.quotient_map(W, n)
    k, m = len(W), len(A)
    Q, _ = np.linalg.qr(B @ np.array(W, dtype=float).reshape(k, n).T, mode="complete")
    if m == 0:
        return TorusLimit(limit_dim=0, limit_basis=np.zeros((n, 0)), vanishing_directions=Q[:, :k])
    perp = Q[:, k:]
    sb = special_basis(Lattice(perp.T @ B @ np.array(R, dtype=float)))
    return TorusLimit(limit_dim=m, limit_basis=perp @ sb.matrix(), vanishing_directions=Q[:, :k])
