import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from flatorb import lattices
from flatorb import rational as ra
from flatorb.groups import FlatOrbError
from flatorb.lattices import (
    InvalidLatticeError,
    Lattice,
    LatticeEnumerationError,
    NoLimitError,
    axis_scaling_family,
    beta_n,
    check_diameter_bound,
    covering_radius,
    lll_reduce,
    rational_span,
    scaling_limit,
    sequence_limit,
    short_vectors,
    special_basis,
    theta_n,
)

import reference_algebra as ref

HEX = Lattice.from_rows([[1.0, 0.0], [0.5, math.sqrt(3) / 2]])


def test_constants():
    assert theta_n(2) == pytest.approx(math.pi / 4, abs=1e-15)
    assert beta_n(2) == pytest.approx(0.5, abs=1e-15)
    assert beta_n(3) == pytest.approx(0.5, abs=1e-15)
    assert beta_n(4) == pytest.approx(math.sin(2 * theta_n(4)), abs=1e-15)


def test_short_vectors_z2():
    vs = short_vectors(Lattice(np.eye(2)), 1.0)
    assert len(vs) == 4
    assert {v[0] for v in vs} == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_short_vectors_hexagonal_kissing():
    vs = short_vectors(HEX, 1.0 + 1e-9)
    assert len(vs) == 6


def test_short_vectors_z3_sqrt2():
    vs = short_vectors(Lattice(np.eye(3)), math.sqrt(2) + 1e-9)
    assert len(vs) == 18


def test_special_basis_z2():
    sb = special_basis(Lattice(np.eye(2)))
    assert sb.R0 == pytest.approx(1.0)
    assert sb.norms == pytest.approx((1.0, 1.0))


def test_special_basis_hexagonal():
    sb = special_basis(HEX)
    assert sb.R0 == pytest.approx(1.0)
    assert sb.norms == pytest.approx((1.0, 1.0))


def test_special_basis_shear():
    sb = special_basis(Lattice.from_rows([[1.0, 0.0], [10.0, 1.0]]))
    # the lattice is just Z^2 in disguise
    assert sb.R0 == pytest.approx(1.0)
    assert sb.norms == pytest.approx((1.0, 1.0))


def _oracle_special(rows):
    """Independent brute force over integer combinations up to a box bound."""
    B = np.asarray(rows, dtype=float)
    n = B.shape[0]
    bound = math.sin(theta_n(n))
    Z = 12
    vecs = []
    for a in range(-Z, Z + 1):
        for b in range(-Z, Z + 1):
            if (a, b) == (0, 0):
                continue
            v = a * B[0] + b * B[1]
            vecs.append(((a, b), v))
    # canonical halves
    half = {}
    for z, v in vecs:
        zc = z if (z[0], z[1]) > (0, 0) or (z[0] > 0) or (z[0] == 0 and z[1] > 0) else (-z[0], -z[1])
        if zc not in half:
            half[zc] = v if zc == z else -v
    items = list(half.items())
    best = None
    best_r0 = None
    for (za, va), (zb, vb) in [(items[i], items[j]) for i in range(len(items)) for j in range(i + 1, len(items))]:
        if abs(za[0] * zb[1] - za[1] * zb[0]) != 1:
            continue
        cols = np.column_stack([va, vb])
        s = min(
            np.linalg.norm(va - vb * (va @ vb) / (vb @ vb)) / np.linalg.norm(va),
            np.linalg.norm(vb - va * (va @ vb) / (va @ va)) / np.linalg.norm(va if False else vb),
        )
        if s < bound - 1e-9:
            continue
        r = max(np.linalg.norm(va), np.linalg.norm(vb))
        if best_r0 is None or r < best_r0 - 1e-12:
            best_r0 = r
            best = None
        if abs(r - best_r0) <= 1e-12:
            def sgn(v):
                for x in v:
                    if x > 1e-12:
                        return v
                    if x < -1e-12:
                        return -v
                return v

            ordered = sorted([sgn(va.copy()), sgn(vb.copy())], key=lambda v: (-np.linalg.norm(v), tuple(np.round(v, 9))))
            key = (
                tuple(round(float(np.linalg.norm(v)), 12) for v in ordered),
                tuple(np.round(np.concatenate(ordered), 9)),
            )
            if best is None or key < best[0]:
                best = (key, ordered)
    return best_r0, best[0][0]


def test_special_basis_against_oracle_random_2d():
    rng = random.Random(5)
    done = 0
    while done < 50:
        rows = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        if abs(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) == 0:
            continue
        sb = special_basis(Lattice.from_rows(rows))
        r0, norms = _oracle_special(rows)
        assert sb.R0 == pytest.approx(r0, abs=1e-9)
        assert sb.norms == pytest.approx(norms, abs=1e-9)
        done += 1


def _oracle_special_3d(rows):
    """Brute force over a coefficient box that provably holds the search ball.

    Any LLL basis has longest norm at most 2^((n-1)/2) lambda_n <= 2 max|row|
    for n = 3, and R0 is at most that, so every vector of a special basis
    has coefficients bounded by ||B^-1|| times this radius.
    """
    B = np.asarray(rows, dtype=float)  # rows are basis vectors
    bound = math.sin(theta_n(3))
    radius = 2 * max(np.linalg.norm(B, axis=1))
    Z = math.ceil(np.linalg.norm(np.linalg.inv(B), 2) * radius)
    rng_ = np.arange(-Z, Z + 1)
    coeffs = np.stack(np.meshgrid(rng_, rng_, rng_, indexing="ij"), -1).reshape(-1, 3)
    # one of each +-pair: first nonzero coefficient positive
    first = coeffs[np.arange(len(coeffs)), np.argmax(coeffs != 0, axis=1)]
    coeffs = coeffs[first > 0]
    vecs = coeffs @ B
    norms = np.linalg.norm(vecs, axis=1)
    keep = norms <= radius + 1e-9
    coeffs, vecs, norms = coeffs[keep], vecs[keep], norms[keep]
    order = np.argsort(norms, kind="stable")
    coeffs, vecs, norms = coeffs[order], vecs[order], norms[order]

    def admissible(i, j, k):
        if abs(round(np.linalg.det(coeffs[[i, j, k]]))) != 1:
            return False
        a, b, c = vecs[i], vecs[j], vecs[k]
        vol = abs(np.dot(a, np.cross(b, c)))
        sines = (
            vol / (np.linalg.norm(a) * np.linalg.norm(np.cross(b, c))),
            vol / (np.linalg.norm(b) * np.linalg.norm(np.cross(a, c))),
            vol / (np.linalg.norm(c) * np.linalg.norm(np.cross(a, b))),
        )
        return min(sines) >= bound - 1e-9

    best = None
    for k in range(len(vecs)):  # k carries the longest vector u1
        if best is not None and norms[k] > best[0] + 1e-9:
            break
        for j in range(k):
            for i in range(j):
                if admissible(i, j, k):
                    key = (norms[k], norms[j], norms[i])
                    if best is None or key < best:
                        best = key
    return best[0], best


def test_special_basis_against_oracle_random_3d():
    rng = random.Random(11)
    done = 0
    while done < 24:
        rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        if abs(np.linalg.det(np.asarray(rows, dtype=float))) < 0.5:
            continue
        sb = special_basis(Lattice.from_rows(rows))
        r0, norms = _oracle_special_3d(rows)
        assert sb.R0 == pytest.approx(r0, abs=1e-9)
        assert sb.norms == pytest.approx(norms, abs=1e-9)
        done += 1


def test_special_basis_rejects_a_seed_that_is_not_angle_bounded(monkeypatch):
    # a 2-D basis at angle ~6 degrees is far below theta_2 = 45 degrees
    monkeypatch.setattr(lattices, "lll_reduce", lambda B: (np.array([[1.0, 0.9], [0.0, 0.1]]), np.eye(2, dtype=np.int64)))
    with pytest.raises(LatticeEnumerationError, match="not angle-bounded"):
        special_basis(Lattice(np.eye(2)))


@pytest.mark.parametrize(
    "rows",
    [
        [[1.0, 0.0], [1.0, 0.0]],
        [[1.0, 0.0], [0.0, math.nan]],
        [[1.0, 0.0], [0.0, math.inf]],
        [[1.0, 0.0], [0.0, 1e300]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        [[1e-200, 0.0], [0.0, 1.0]],
    ],
)
def test_lattice_rejects_bad_bases(rows):
    with pytest.raises(InvalidLatticeError):
        Lattice.from_rows(rows)


@pytest.mark.parametrize("basis", [np.diag([1e-7, 1e-6]), 1e-4 * np.eye(4)])
def test_lattice_singularity_test_is_scale_invariant(basis):
    L = Lattice(basis)
    assert sorted(special_basis(L).norms) == pytest.approx(sorted(np.diag(basis)))


def test_sequence_limit_rejects_bad_schedules_and_directions():
    fam = axis_scaling_family(Lattice(np.eye(2)), np.array([0.0, 1.0]))
    for sched in ([1, 0.5], [0.1, 0.5, 1], [1, 0.5, 0.0], [1, math.nan, 0.1]):
        with pytest.raises(InvalidLatticeError):
            sequence_limit(fam, sched)
    for directions in (np.array([0.0, 1.0, 0.0]), np.zeros(2), np.array([[1.0, 2.0], [0.0, 0.0]])):
        with pytest.raises(InvalidLatticeError):
            axis_scaling_family(Lattice(np.eye(2)), directions)


def test_covering_radius_zn_closed_form():
    for n in (1, 2, 3):
        lo, hi = covering_radius(Lattice(np.eye(n)), 1e-6)
        assert lo == hi == pytest.approx(math.sqrt(n) / 2)


def test_covering_radius_rectangular():
    lo, hi = covering_radius(Lattice(np.diag([2.0, 3.0])), 1e-6)
    assert lo == hi == pytest.approx(math.sqrt(4 + 9) / 2)


def test_covering_radius_hexagonal():
    lo, hi = covering_radius(HEX, 1e-4)
    mu = 1 / math.sqrt(3)
    assert lo <= mu + 1e-12
    assert hi >= mu - 1e-12
    assert hi - lo <= 1e-4 + 1e-12


def test_diameter_bound_z2():
    rep = check_diameter_bound(Lattice(np.eye(2)))
    assert rep.holds
    assert rep.bound == pytest.approx(0.5)
    assert rep.trivial_upper_ok


def _encloses(enclosure, mu):
    lo, hi = enclosure
    return lo <= mu * (1 + 1e-12) and hi >= mu * (1 - 1e-12)


D4_ROWS = [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 1, 1]]
D4_DUAL_ROWS = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0.5, 0.5, 0.5, 0.5]]


@pytest.mark.parametrize(
    "rows, mu",
    [
        ([[1.0, 0.0], [0.5, math.sqrt(3) / 2]], 1 / math.sqrt(3)),
        ([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]], 0.5),
        ([[0.5, 0.5, 0.5], [0.5, -0.5, 0.5], [0.5, 0.5, -0.5]], math.sqrt(5) / 4),
        (D4_ROWS, 1.0),
        (D4_DUAL_ROWS, math.sqrt(2) / 2),
    ],
    ids=["hexagonal", "fcc", "bcc", "D4", "D4*"],
)
def test_covering_radius_of_known_lattices_in_seeded_bases(rows, mu):
    # deep holes: fcc (1/2, 0, 0), bcc (1/2, 1/4, 0) for cube side 1, D4 (1, 0, 0, 0)
    g = np.random.default_rng(5)
    rng = random.Random(5)
    B = np.asarray(rows, dtype=float).T
    n = B.shape[0]
    for _ in range(3):
        L = Lattice(_rotation(g, n) @ B @ _unimodular(rng, n))
        assert _encloses(covering_radius(L, 1e-9), mu)


def _circumradius_2d(rows):
    """Covering radius of a plane lattice: the circumradius of the acute
    triangle (0, u, v) of its Lagrange-reduced basis."""
    u, v = (np.asarray(r, dtype=float) for r in rows)
    while True:
        if u @ u > v @ v:
            u, v = v, u
        m = round((u @ v) / (u @ u))
        if m == 0:
            break
        v = v - m * u
    if u @ v < 0:
        v = -v
    w = u - v
    return math.sqrt((u @ u) * (v @ v) * (w @ w)) / (2 * abs(u[0] * v[1] - u[1] * v[0]))


def test_covering_radius_against_the_2d_circumradius():
    rng = random.Random(17)
    checked = 0
    while checked < 60:
        rows = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
        if rows[0][0] * rows[1][1] == rows[0][1] * rows[1][0]:
            continue
        assert _encloses(covering_radius(Lattice.from_rows(rows), 1e-9), _circumradius_2d(rows)), rows
        checked += 1


@pytest.mark.parametrize("t", [1e-2, 3e-3, 1e-3, 3e-4])
def test_covering_radius_of_a_thin_box_in_a_sheared_basis(t):
    # the box (1, t, t): its relevant vectors are the three sides, and every
    # face-diagonal class has four shortest members
    L = Lattice.from_rows([[1, 0, 0], [1, t, 0], [0, t, t]])
    assert _encloses(covering_radius(L, 1e-3), 0.5 * math.sqrt(1 + 2 * t * t))


def test_covering_radius_past_the_vertex_cap_is_reported():
    # a generic 5-D lattice has 31 relevant pairs: C(62, 5) vertex candidates
    L = Lattice(np.random.default_rng(3).normal(size=(5, 5)))
    with pytest.raises(LatticeEnumerationError, match="vertex cap"):
        covering_radius(L, 1e-3)


def test_covering_radius_enclosure_holds_without_a_relevant_vector(monkeypatch):
    # every lattice vector's half-space holds the Voronoi cell, so a lost
    # relevant vector widens [lo, hi] instead of moving it off the radius
    found = lattices._relevant_vectors
    monkeypatch.setattr(lattices, "_relevant_vectors", lambda L, seed: np.delete(found(L, seed), [0, 3], axis=0))
    lo, hi = covering_radius(HEX, 1.0)
    assert lo <= 1 / math.sqrt(3) <= hi and hi - lo > 0.5
    with pytest.raises(LatticeEnumerationError, match="wider"):
        covering_radius(HEX, 1e-3)


def test_diameter_bound_at_a_collapse_scale():
    # the hexagonal lattice shrunk along e2 by 1e-4; every vertex of its
    # Voronoi hexagon lies at the circumradius of (0, (1/2, h), (1/2, -h))
    h = math.sqrt(3) / 2 * 1e-4
    rep = check_diameter_bound(Lattice.from_rows([[1, 0], [0.5, h]]))
    assert rep.holds
    assert rep.diam_lo == pytest.approx(math.sqrt((0.25 - h * h) ** 2 + h * h), rel=1e-12)


def test_diameter_bound_of_the_hexagonal_lattice_at_1e_5():
    # one centred ball per class of L / 2L stays below ENUM_CAP at this scale,
    # where a single ball at the largest class radius does not
    h = math.sqrt(3) / 2 * 1e-5
    rep = check_diameter_bound(Lattice.from_rows([[1, 0], [0.5, h]]))
    assert rep.holds
    assert rep.diam_lo == pytest.approx(math.sqrt((0.25 - h * h) ** 2 + h * h), rel=1e-12)


@pytest.mark.parametrize("eps", [math.nan, 0.0, -1.0])
def test_covering_radius_rejects_an_eps_that_is_not_positive(eps):
    with pytest.raises(ValueError, match="eps must be positive"):
        covering_radius(HEX, eps)


@pytest.mark.parametrize("r", [math.nan, math.inf, -1.0])
def test_short_vectors_rejects_a_radius_that_is_not_finite_and_nonnegative(r):
    with pytest.raises(ValueError, match="radius must be"):
        short_vectors(Lattice(np.eye(2)), r)


def test_short_vectors_past_the_enumeration_cap_is_reported():
    # r * r overflows at 1e200; the coordinate interval is reported as the cap
    with pytest.raises(LatticeEnumerationError, match="enumeration cap"):
        short_vectors(Lattice(np.eye(2)), 1e200)


@pytest.mark.parametrize("rows", [[[2, 1], [1, 3]], [[1, 0, 0], [1, 2, 0], [0, 1, 3]]], ids=["2d", "3d"])
def test_check_diameter_bound_reduces_once_and_factors_once(monkeypatch, rows):
    # one enumeration frame serves the special basis and all 2^n covering
    # balls, and three enumeration calls (the special-basis ball, every class
    # of L / 2L at once and the vertex ball) read it
    calls = {"lll": 0, "cholesky": 0, "ball": 0}
    lll, cholesky, ball = lattices.lll_reduce, np.linalg.cholesky, lattices._ball

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(lattices, "lll_reduce", counted("lll", lll))
    monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", cholesky))
    monkeypatch.setattr(lattices, "_ball", counted("ball", ball))
    assert check_diameter_bound(Lattice.from_rows(rows)).holds
    assert calls == {"lll": 1, "cholesky": 1, "ball": 3}


def _reference_ball(lattice, r, seed, centre=None):
    """The enumeration kernel that the shared frame and the float kernel replaced.

    It solves for U, checks det U and factors the Gram matrix on every call,
    takes its centre in Cartesian coordinates and keeps a numpy prefix per
    node, with one tiled block per innermost interval.
    """
    n = lattice.n
    U = np.rint(np.linalg.solve(lattice.basis, seed)).astype(np.int64)
    assert abs(round(np.linalg.det(U))) == 1
    R = np.linalg.cholesky(seed.T @ seed).T
    half = centre is None
    start = np.zeros(n) if half else -R @ np.linalg.solve(seed, centre)
    y = np.zeros(n, dtype=np.int64)
    chunks = []

    def recurse(k, partial, budget, leading):
        rkk = R[k, k]
        center = -partial[k] / rkk
        span = math.sqrt(max(budget, 0.0)) / abs(rkk)
        lo = math.ceil(center - span - 1e-12)
        hi = math.floor(center + span + 1e-12)
        if leading:
            lo = max(lo, 1 if k == 0 else 0)
        rem = lambda zk: budget - (partial[k] + rkk * zk) ** 2
        if k == 0:
            while lo <= hi and rem(lo) < -1e-12:
                lo += 1
            while hi >= lo and rem(hi) < -1e-12:
                hi -= 1
            if lo <= hi:
                block = np.tile(y, (hi - lo + 1, 1))
                block[:, 0] = np.arange(lo, hi + 1)
                chunks.append(block)
            return
        for zk in range(lo, hi + 1):
            left = rem(zk)
            if left < -1e-12:
                continue
            y[k] = zk
            recurse(k - 1, partial + R[:, k] * zk, left, leading and zk == 0)
        y[k] = 0

    recurse(n - 1, start, r * r * (1 + 1e-12), half)
    Y = np.concatenate(chunks) if chunks else np.zeros((0, n), dtype=np.int64)
    return Y @ U.T


def test_ball_kernel_matches_the_per_call_reference():
    # the half ball, every class-centred ball and a random centre give the same
    # coefficient rows in the same order, on integer and perturbed bases with
    # one row scaled by 10^-k; the centred balls are asked for in one call
    rng = random.Random(23)
    g = np.random.default_rng(23)
    cases = 0
    for n, perturbed, k, _ in itertools.product((2, 3, 4), (False, True), range(4), range(3)):
        while True:
            rows = np.array([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], dtype=float)
            if abs(np.linalg.det(rows)) >= 0.5:
                break
        if perturbed:
            rows += g.uniform(-0.3, 0.3, size=(n, n))
        rows[rng.randrange(n)] *= 10.0**-k
        L = Lattice.from_rows(rows)
        frame = lattices._frame(L)
        seed = frame.seed
        r = float(np.linalg.norm(seed[:, -1]))
        got, which = lattices._ball(frame, [(r, None)])
        assert np.array_equal(got, _reference_ball(L, r, seed)) and got.dtype == np.int64
        assert not which.any()
        # one call for every class-centred ball and a random centre; each
        # query's rows come out in its own block
        classes = np.array(list(itertools.product((0, 1), repeat=n)))
        centre = seed @ g.uniform(-2, 2, size=n)
        queries = [(r / 2 * (1 + 1e-9), -c / 2) for c in classes] + [(r, np.linalg.solve(seed, centre))]
        expected = [_reference_ball(L, r / 2 * (1 + 1e-9), seed, -(seed @ c) / 2) for c in classes]
        expected.append(_reference_ball(L, r, seed, centre))
        got, which = lattices._ball(frame, queries)
        assert np.array_equal(got, np.concatenate(expected))
        assert np.array_equal(which, np.repeat(np.arange(len(queries)), [len(e) for e in expected]))
        cases += 1
    assert cases == 72


def _reference_relevant(lattice, frame):
    """The per-class relevant-vector search that the one-pass version replaced.

    One ``_ball`` call per class of L / 2L, its radius read off a mask of the
    {-1, 0, 1} seed combinations, and its shortest member and tie test taken
    on that class's rows alone.
    """
    n, B, (seed, U, _) = lattice.n, lattice.basis, frame
    reps = np.array(list(itertools.product((-1, 0, 1), repeat=n)))
    parity, lengths = reps % 2, np.linalg.norm(reps @ seed.T, axis=1)
    relevant = []
    for c in np.array(list(itertools.product((0, 1), repeat=n)))[1:]:
        r = lengths[(parity == c).all(axis=1)].min()
        K = 2 * lattices._ball(frame, [(r / 2 * (1 + 1e-9), -c / 2)])[0] + U @ c
        K0 = K[np.argmin(np.linalg.norm(K @ B.T, axis=1))]
        others = K[~((K == K0).all(axis=1) | (K == -K0).all(axis=1))]
        minus, plus = (others - K0) @ B.T, (others + K0) @ B.T
        gap = np.sum(minus * plus, axis=1)
        if (gap > lattices.TIE_TOL * np.linalg.norm(minus, axis=1) * np.linalg.norm(plus, axis=1)).all():
            relevant.append(B @ K0)
    assert np.linalg.matrix_rank(np.array(relevant)) == n
    return np.concatenate([relevant, np.negative(relevant)])


def _box(t):
    return [[1, 0, 0], [1, t, 0], [0, t, t]]


# lattices whose classes of L / 2L tie: several shortest members, or a +-pair
# listed with its negative first
TIE_ROWS = {
    "Z2": np.eye(2),
    "Z3": np.eye(3),
    "Z4": np.eye(4),
    "rectangle": [[1, 0], [0, 2]],
    "box": [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
    "hexagonal": [[1.0, 0.0], [0.5, math.sqrt(3) / 2]],
    "fcc": [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]],
    "bcc": [[0.5, 0.5, 0.5], [0.5, -0.5, 0.5], [0.5, 0.5, -0.5]],
    "D4": D4_ROWS,
    "box-1e-2": _box(1e-2),
    "box-1e-3": _box(1e-3),
}


def test_relevant_vectors_match_the_per_class_reference():
    # one stacked pass over L / 2L gives the same rows, in the same order and
    # to the last bit, as one ball and one test per class: on the tie-heavy
    # lattices as given and in a seeded basis, and on seeded integer bases,
    # exact or perturbed by 1e-7, with one row scaled by 10^-k
    rng = random.Random(29)
    g = np.random.default_rng(29)
    inputs = []
    for rows in TIE_ROWS.values():
        B = np.asarray(rows, dtype=float).T
        inputs += [B, B @ _unimodular(rng, len(B))]
    for n, perturbed, k, _ in itertools.product((2, 3, 4), (False, True), range(4), range(3)):
        while True:
            rows = np.array([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], dtype=float)
            if abs(np.linalg.det(rows)) >= 0.5:
                break
        if perturbed:
            rows += g.uniform(-1e-7, 1e-7, size=(n, n))
        rows[rng.randrange(n)] *= 10.0**-k
        inputs.append(rows.T)
    for B in inputs:
        L = Lattice(B)
        frame = lattices._frame(L)
        got, expected = lattices._relevant_vectors(L, frame), _reference_relevant(L, frame)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), B.tolist()


def _reference_lll(basis):
    """The LLL that recomputed the whole Gram-Schmidt basis after every step."""
    B = np.array(basis, dtype=float)
    n = B.shape[1]

    def gso(B):
        Bs = np.zeros_like(B)
        mu = np.zeros((n, n))
        for i in range(n):
            Bs[:, i] = B[:, i]
            for j in range(i):
                mu[i, j] = (B[:, i] @ Bs[:, j]) / (Bs[:, j] @ Bs[:, j])
                Bs[:, i] -= mu[i, j] * Bs[:, j]
        return Bs, mu

    Bs, mu = gso(B)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k, j])
            if q:
                B[:, k] -= q * B[:, j]
                Bs, mu = gso(B)
        if Bs[:, k] @ Bs[:, k] >= (lattices.LLL_DELTA - mu[k, k - 1] ** 2) * (Bs[:, k - 1] @ Bs[:, k - 1]):
            k += 1
        else:
            B[:, [k - 1, k]] = B[:, [k, k - 1]]
            Bs, mu = gso(B)
            k = max(k - 1, 1)
    return B


def test_lll_matches_the_full_recomputation():
    # the in-place Gram-Schmidt update gives the same bases to the last bit:
    # seeded 2-6-D integer bases with one column scaled by 10^-k, and the
    # relation matrices [I | C y] of Gaussian and known-span vectors
    rng = np.random.default_rng(31)
    bases = []
    for n, k, _ in itertools.product(range(2, 7), range(4), range(5)):
        B = np.zeros((n, n))
        while abs(np.linalg.det(B)) < 0.5:
            B = rng.integers(-9, 10, size=(n, n)).astype(float)
        B[:, rng.integers(n)] *= 10.0**-k
        bases.append(B)
    for n, _ in itertools.product(range(2, 7), range(20)):
        for x in (rng.standard_normal(n), _blocks_input(rng, n)[0]):
            y = x / np.abs(x).max()
            y = y / np.linalg.norm(y)
            bases += [np.vstack([np.eye(n), scale * y]) for scale in lattices.RELATION_SCALES]
    assert len(bases) == 500
    for B in bases:
        got, expected = lll_reduce(B)[0], _reference_lll(B)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), B.tolist()


def test_special_basis_properties_random():
    rng = random.Random(41)
    # D4*: its four shortest independent vectors e_i span only Z^4, index 2
    d4_dual = Lattice.from_rows(np.vstack([np.eye(4)[:3], [0.5] * 4]))
    inputs = [HEX, Lattice.from_rows([[1.0, 0.0], [0.9, 0.1]]), d4_dual]
    while len(inputs) < 28:
        n = rng.choice([2, 3])
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        M = np.asarray(rows, dtype=float)
        if abs(np.linalg.det(M)) < 0.5:
            continue
        inputs.append(Lattice.from_rows(rows))
    for L in inputs:
        n = L.n
        sb = special_basis(L)
        # unimodular in the input basis
        assert abs(round(np.linalg.det(sb.coefficients))) == 1
        # angle bound with the stated slack
        assert lattices._min_sine(sb.matrix()) >= math.sin(sb.theta) - 1e-9
        # norms non-increasing and |u1| = R0
        assert all(a >= b - 1e-12 for a, b in zip(sb.norms, sb.norms[1:]))
        assert sb.norms[0] == sb.R0
        # the LLL seed meets the determinant inequality the search relies on
        B = lll_reduce(L.basis)[0]
        det = abs(np.linalg.det(B))
        prod = np.prod(np.linalg.norm(B, axis=0))
        assert det / prod >= 2 ** (-n * (n - 1) / 4.0) - 1e-12


def test_diameter_bound_random_battery():
    rng = random.Random(23)
    checked = 0
    while checked < 30:
        n = rng.choice([2, 3])
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        M = np.asarray(rows, dtype=float)
        if abs(np.linalg.det(M)) < 0.5:
            continue
        rep = check_diameter_bound(Lattice.from_rows(rows))
        assert rep.holds, (rows, rep)
        assert rep.trivial_upper_ok
        checked += 1


def test_sequence_limit_shrinking_axis():
    fam = lambda t: Lattice(np.diag([1.0, t]))
    lim = sequence_limit(fam, [1, 0.5, 0.1, 0.01, 0.001])
    assert lim.limit_dim == 1
    assert lim.circumferences[0] == pytest.approx(1.0, abs=1e-6)


def test_sequence_limit_halfstep_lattice():
    def fam(t):
        return Lattice.from_rows([[1.0, 0.0], [0.5, t]])

    # the surviving vector is (1/2, t): the tail spacing must sit inside the
    # convergence tolerance for the Cauchy test to see the limit
    sched = [0.4, 0.1, 0.01, 0.000101, 0.0001005, 0.0001]
    lim = sequence_limit(fam, sched)
    assert lim.limit_dim == 1
    assert lim.circumferences[0] == pytest.approx(0.5, abs=1e-6)


def test_sequence_limit_constant():
    lim = sequence_limit(lambda t: Lattice(np.eye(2)), [1, 0.5, 0.1, 0.01])
    assert lim.limit_dim == 2


def test_sequence_limit_no_limit_detected():
    # norms oscillate: neither vanishing nor Cauchy
    def fam(t):
        wiggle = 1.0 + 0.2 * math.sin(1.0 / t)
        return Lattice(np.diag([wiggle, 1.0]))

    with pytest.raises(NoLimitError):
        sequence_limit(fam, [1, 0.5, 0.3, 0.2, 0.1])


def test_axis_scaling_family():
    fam = axis_scaling_family(Lattice(np.eye(2)), np.array([0.0, 1.0]))
    lim = sequence_limit(fam, [1, 0.5, 0.1, 0.01, 0.001])
    assert lim.limit_dim == 1
    assert lim.vanishing_directions.shape == (2, 1)
    assert abs(lim.vanishing_directions[1, 0]) == pytest.approx(1.0)


# -- integer relations and direct limits --------------------------------------


def _same_span(U, V) -> bool:
    return ra.rank(ref.mat(U)) == ra.rank(ref.mat(V)) == ra.rank(ref.mat(list(U) + list(V)))


@pytest.mark.parametrize(
    "columns,span",
    [
        ([[1.0, math.sqrt(2), 0.0]], [[1, 0, 0], [0, 1, 0]]),
        ([[0.3, 0.6, math.sqrt(2)]], [[1, 2, 0], [0, 0, 1]]),
        ([[1.0, 2.0, 3.0]], [[1, 2, 3]]),
        ([[0.5, 0.1, 0.3333333333333333]], [[15, 3, 10]]),
        ([[1.0, math.sqrt(2), 0.0, 0.0], [0.0, 0.0, 1.0, math.sqrt(5)]], ra.identity(4)),
        # decimals are read as fractions: (218107, -41152, 0) is far too
        # long a relation for LLL at double precision
        ([[0.123456, 0.654321, 0.0]], [[123456, 654321, 0]]),
        ([[0.3 * math.sqrt(2), 0.6 * math.sqrt(2), 0.25]], [[1, 2, 0], [0, 0, 1]]),
    ],
)
def test_rational_span(columns, span):
    assert _same_span(rational_span(np.array(columns).T), span)


@pytest.mark.parametrize("x", [[0.0, 0.0], [1.0, math.nan], [1.0, math.inf]])
def test_rational_span_rejects_zero_and_non_finite_columns(x):
    with pytest.raises(FlatOrbError, match="finite nonzero"):
        rational_span(np.array(x)[:, None])


def test_rational_span_raises_when_the_scales_disagree():
    # a Gaussian vector with a spurious relation (577, -191, -288) below the
    # 2^30 threshold, which 2^24 does not confirm
    with pytest.raises(FlatOrbError, match="double precision"):
        rational_span(np.array([[1.0526119461752061], [2.972934919283197], [0.1372448727777209]]))


def _blocks_input(rng, n):
    """A vector of known rational span: rational vectors of height <= 4 on
    disjoint coordinate blocks, every block but the first times a Gaussian.
    Returns the vector and a basis of its rational span (one row per block)."""
    cuts = sorted(rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False).tolist())
    x = np.zeros(n)
    span = []
    for b, block in enumerate(np.split(rng.permutation(n), cuts)):
        row = [0] * n
        for i in block:
            row[i] = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5)))
        if not any(row):
            row[block[0]] = Fraction(1)
        scale = 1.0 if b == 0 else rng.standard_normal()
        x += scale * np.array([float(f) for f in row])
        span.append(row)
    return x, span


def test_rational_span_on_seeded_sets():
    # 500 Gaussian vectors (no relation) and 500 vectors of known rational
    # span, n <= 6: a wrong span is never returned, and at most 1 % raise
    rng = np.random.default_rng(7)
    wrong, raised = [], {"gaussian": 0, "rational": 0}
    for kind in raised:
        for _ in range(500):
            n = int(rng.integers(2, 7))
            x, span = (rng.standard_normal(n), ra.identity(n)) if kind == "gaussian" else _blocks_input(rng, n)
            try:
                got = rational_span(x[:, None])
            except FlatOrbError:
                raised[kind] += 1
                continue
            if not _same_span(got, span):
                wrong.append((kind, x.tolist(), got))
    assert not wrong
    assert max(raised.values()) <= 5, raised


# (basis rows, shrinking directions, schedule): every family above, and in
# criterion 7, on which sequence_limit finds a limit
AGREEMENT_FAMILIES = [
    ([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0]], [1, 0.5, 0.1, 0.01, 0.001]),
    ([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0]], [1, 0.5, 0.1, 0.01, 0.001]),
    ([[1.0, 0.0], [0.5, 1.0]], [[0.0, 1.0]], [0.4, 0.1, 0.01, 0.000101, 0.0001005, 0.0001]),
    ([[1.0, 0.0], [0.0, 1.0]], [], [1, 0.5, 0.1, 0.01]),
]


@pytest.mark.parametrize("rows,directions,sched", AGREEMENT_FAMILIES)
def test_scaling_limit_agrees_with_sequence_limit(rows, directions, sched):
    L = Lattice.from_rows(rows)
    D = np.array(directions, dtype=float).reshape(-1, L.n).T
    seq = sequence_limit(axis_scaling_family(L, D), sched)
    direct = scaling_limit(L, D)
    assert direct.limit_dim == seq.limit_dim
    assert sorted(direct.circumferences) == pytest.approx(sorted(seq.circumferences), abs=1e-6)
    assert direct.vanishing_directions.shape == seq.vanishing_directions.shape


def test_scaling_limit_of_an_irrational_direction_is_its_rational_closure():
    lim = scaling_limit(Lattice(np.eye(2)), np.array([1.0, math.sqrt(2)]))
    assert lim.limit_dim == 0 and lim.vanishing_directions.shape == (2, 2)
    with pytest.raises(InvalidLatticeError):
        scaling_limit(Lattice(np.eye(2)), np.array([math.inf, 1.0]))


def test_hausdorff_slack_of_vanishing_part():
    # every point of the final torus lies within half the sum of vanishing
    # norms of the surviving sublattice torus
    fam = lambda t: Lattice(np.diag([1.0, t]))
    sched = [1, 0.5, 0.1, 0.01, 0.001]
    lim = sequence_limit(fam, sched)
    t_last = sched[-1]
    slack = 0.5 * sum(
        np.linalg.norm(np.diag([1.0, t_last]) @ np.array([0, 1]))
        for _ in range(1)
    )
    rng = np.random.default_rng(0)
    B = np.diag([1.0, t_last])
    for _ in range(50):
        f = rng.random(2)
        p = B @ f
        # distance to the 1-d sublattice torus spanned by e1
        d = abs(p[1] - round(p[1] / t_last) * t_last)
        assert d <= slack + 1e-12


def test_short_vectors_match_a_coefficient_box():
    rng = random.Random(3)
    done = 0
    while done < 12:
        n = rng.choice([2, 3])
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        B = np.asarray(rows, dtype=float).T
        if abs(np.linalg.det(B)) < 0.5:
            continue
        r = 1.5 * max(np.linalg.norm(B, axis=0))
        box = math.ceil(np.linalg.norm(np.linalg.inv(B), 2) * r)
        axis = np.arange(-box, box + 1)
        Z = np.stack(np.meshgrid(*(axis,) * n, indexing="ij"), -1).reshape(-1, n)
        nv = np.linalg.norm(Z @ B.T, axis=1)
        expected = sorted(map(tuple, Z[(nv > 0) & (nv <= r)].tolist()))
        got = short_vectors(Lattice(B), r)
        assert expected == sorted(z for z, _ in got)
        norms = [float(np.linalg.norm(v)) for _, v in got]
        assert norms == sorted(norms)
        for z, v in got:
            assert np.allclose(v, B @ np.array(z))
        done += 1


def test_special_basis_of_an_ill_conditioned_input_basis():
    # the hexagonal lattice shrunk along (1, 1) at t = 1e-3, given in a nearly
    # singular basis: an enumeration in this basis can lose an LLL vector at
    # the edge of the ball, and the candidates then do not span
    rows = [[0.5005000000000004, -0.4994999999999998], [-0.1823296891903267, 0.1836957145941117]]
    L = Lattice.from_rows(rows)
    sb = special_basis(L)
    assert abs(round(np.linalg.det(sb.coefficients))) == 1
    assert np.allclose(L.basis @ sb.coefficients, sb.matrix(), rtol=0, atol=1e-12)
    assert lattices._min_sine(sb.matrix()) >= math.sin(sb.theta) - 1e-9
    reference = special_basis(Lattice(lll_reduce(L.basis)[0]))
    assert sb.norms == pytest.approx(reference.norms, rel=1e-9)


@pytest.mark.parametrize(
    "B",
    [
        np.array([[156, -5400, 41], [77, 163, 1], [33635, 2366, 905]]).T,
        [[129, -16, 4947, 304], [-8, 1, -306, -19], [-17, 0, -866, 0], [1400, 25, 0, -474]],
        [[1, 24, 0, -150], [0, 1, 0, -11], [0, -40, 1519, 394], [0, -59, 60727, -1190]],
    ],
    ids=["3d", "4d-span", "4d-norms"],
)
def test_special_basis_of_a_skewed_basis_of_zn(B):
    # bases of Z^n made by column operations with multipliers up to 60: a
    # float solve for the LLL basis's coefficients is off by more than 1/2 on
    # them, so only LLL's own integer transform gives the right ones
    L = Lattice(np.array(B, dtype=float))
    sb = special_basis(L)
    assert sb.norms == (1.0,) * L.n
    assert abs(ref.det(sb.coefficients.tolist())) == 1
    assert np.array_equal(L.basis @ sb.coefficients, sb.matrix())


def _rotation(g, n):
    Q, R = np.linalg.qr(g.normal(size=(n, n)))
    return Q * np.sign(np.diag(R))


def _unimodular(rng, n):
    U = np.eye(n, dtype=int)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        U[i] += rng.choice((-1, 1)) * U[j]
    return U


@pytest.mark.parametrize(
    "basis",
    [
        np.eye(2),
        np.array([[1.0, 0.5], [0.0, math.sqrt(3) / 2]]),
        np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]),
    ],
    ids=["square", "hexagonal", "fcc"],
)
def test_special_basis_does_not_depend_on_the_input_basis(basis):
    # equal-norm ties break on coordinates alone, so a symmetric lattice gets
    # one answer in every input basis
    g = np.random.default_rng(8)
    rng = random.Random(8)
    n = basis.shape[0]
    for _ in range(3):
        RB = _rotation(g, n) @ basis
        answers = [special_basis(Lattice(RB @ _unimodular(rng, n))).matrix() for _ in range(4)]
        for other in answers[1:]:
            assert np.array_equal(np.round(other, 9), np.round(answers[0], 9))


@pytest.mark.parametrize(
    "basis, t, k",
    [
        (np.diag([1.0, 1e-5]), 1e-5, 1),
        (np.array([[1e-5, 0.5e-5], [0.0, math.sqrt(3) / 2]]), 1e-5, 1),
        (np.diag([1.0, 1.0, 1e-3]), 1e-3, 1),
        (np.diag([1.0, 3e-3, 3e-3]), 3e-3, 2),
    ],
    ids=["rectangle-1e-5", "hexagonal-1e-5", "cube-axis-1e-3", "cube-plane-3e-3"],
)
def test_special_basis_at_collapse_scales(basis, t, k):
    # each lattice is a unit-covolume one with k directions scaled by t
    L = Lattice(basis)
    sb = special_basis(L)
    unscaled = abs(np.linalg.det(basis)) / t**k
    assert abs(np.linalg.det(sb.matrix())) == pytest.approx(t**k * unscaled, rel=1e-9)
    assert sb.norms[-k:] == pytest.approx((t,) * k, rel=1e-9)
    assert abs(round(np.linalg.det(sb.coefficients))) == 1


def test_lll_transform_past_64_bits_is_reported():
    # reducing (1, 1) by (1e-19, 0) takes the multiplier 10^19 > 2^63
    with pytest.raises(LatticeEnumerationError, match="64-bit"):
        special_basis(Lattice.from_rows([[1e-19, 0.0], [1.0, 1.0]]))


def test_special_basis_past_the_enumeration_cap_is_reported():
    # the LLL ball of diag(1, 1e-6) holds about 2e6 vectors, past ENUM_CAP
    with pytest.raises(LatticeEnumerationError, match="enumeration cap"):
        special_basis(Lattice(np.diag([1.0, 1e-6])))


def test_cap_errors_name_the_cap_and_the_count(monkeypatch):
    monkeypatch.setattr(lattices, "COMBO_CAP", 3)
    message = "basis search cap exceeded: 4 primitive prefixes visited, more than COMBO_CAP = 3"
    with pytest.raises(LatticeEnumerationError, match=f"^{message}$"):
        special_basis(Lattice.from_rows(SHORT_DIRECTION_4D))
    # the radius-10 ball of Z^2 holds 316 nonzero vectors, each coordinate range only 21 wide
    monkeypatch.setattr(lattices, "ENUM_CAP", 100)
    prefix = "short-vector enumeration cap exceeded: "
    with pytest.raises(LatticeEnumerationError) as exc:
        short_vectors(Lattice(np.eye(2)), 10.0)
    count = int(str(exc.value).removeprefix(prefix).split()[0])
    assert str(exc.value) == f"{prefix}{count} vectors listed, more than ENUM_CAP = 100" and count > 100
    message = "a coordinate range 2e\\+03 integers wide passes ENUM_CAP = 100"
    with pytest.raises(LatticeEnumerationError, match=f"^{prefix}{message}$"):
        short_vectors(Lattice(np.diag([1.0, 1e-3])), 1.0)


# a 4-D lattice with one short direction (LLL norms 0.0036, 1.52, 2.24, 2.95)
SHORT_DIRECTION_4D = [[-2, 1, -2, 3], [0, -3, 3, -1], [0.002, 0, 0, -0.003], [2, 2, -2, 3]]


def test_special_basis_with_one_short_direction_4d(monkeypatch):
    # the R0-ball holds hundreds of multiples and near-multiples of the short
    # vector; only prefixes that extend to a basis of Z^4 are expanded, so the
    # search stays well inside a cap of 10^4 prefixes
    monkeypatch.setattr(lattices, "COMBO_CAP", 10_000)
    L = Lattice.from_rows(SHORT_DIRECTION_4D)
    sb = special_basis(L)
    seed = sorted(np.linalg.norm(lll_reduce(L.basis)[0], axis=0).tolist(), reverse=True)
    assert sb.R0 == seed[0]
    assert sb.norms == pytest.approx(seed, rel=1e-12)
    assert sb.norms == pytest.approx((2.9483, 2.2361, 1.5191, 0.0036), abs=1e-4)


def _oracle_minima_4d(B):
    """Successive minima of the lattice of the columns of B, by brute force.

    The columns are n independent lattice vectors, so lambda_4 <= max |b_j|,
    and coefficient i of a vector that short is at most |row i of B^-1|
    times max |b_j|.
    """
    r = max(np.linalg.norm(B, axis=0))
    box = np.ceil(np.linalg.norm(np.linalg.inv(B), axis=1) * r).astype(int)
    axes = [np.arange(-b, b + 1) for b in box]
    Z = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 4)
    V = Z @ B.T
    norms = np.linalg.norm(V, axis=1)
    keep = (norms > 0) & (norms <= r + 1e-9)
    V, norms = V[keep], norms[keep]
    picked, minima = [], []
    for i in np.argsort(norms, kind="stable"):
        if np.linalg.matrix_rank(np.array(picked + [V[i]]), tol=1e-9) > len(picked):
            picked.append(V[i])
            minima.append(float(norms[i]))
            if len(picked) == 4:
                break
    return tuple(sorted(minima, reverse=True))


def test_special_basis_against_oracle_4d():
    # for n <= 4 a basis attains the successive minima (van der Waerden), and
    # Minkowski's second theorem gives it |det| / prod |b_j| >= 1/2, far above
    # sin theta_4 = 1/8: the special basis is such a basis
    rng = random.Random(29)
    g = np.random.default_rng(29)
    d4_dual = np.vstack([np.eye(4)[:3], [0.5] * 4]).T
    bases = [d4_dual, _rotation(g, 4) @ d4_dual]
    while len(bases) < 14:
        B = np.array([[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)], dtype=float)
        if abs(np.linalg.det(B)) > 0.5:
            bases.append(B)
    # collapse scales: one short direction puts hundreds of its multiples
    # and near-multiples into the R0-ball
    bases.append(np.array(SHORT_DIRECTION_4D).T)
    while len(bases) < 19:
        B = np.array([[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)], dtype=float)
        if abs(np.linalg.det(B)) > 0.5:
            B[:, rng.randrange(4)] *= 1e-3
            bases.append(B)
    for B in bases:
        sb = special_basis(Lattice(B))
        # the oracle's search box is only small in a reduced basis
        assert sb.norms == pytest.approx(_oracle_minima_4d(lll_reduce(B)[0]), abs=1e-9)
        assert abs(round(np.linalg.det(sb.coefficients))) == 1
        assert lattices._min_sine(sb.matrix()) >= 0.5 - 1e-9


def _sines_by_gram(M):
    """sin(angle(m_i, span of the others)) from Gram determinants."""
    G = M.T @ M
    return [
        math.sqrt(np.linalg.det(G) / (G[i, i] * np.linalg.det(np.delete(np.delete(G, i, 0), i, 1))))
        for i in range(M.shape[1])
    ]


def _oracle_search(V, Z, norms, coords, bound):
    """Least key over all 4-subsets of one candidate list, by brute force."""
    best = None
    for S in itertools.combinations(range(len(V)), 4):
        S = tuple(reversed(S))  # u_1 first: descending candidate order
        if abs(round(np.linalg.det(Z[list(S)].astype(float)))) != 1:
            continue
        if min(_sines_by_gram(V[list(S)].T)) < bound - 1e-9:
            continue
        key = (tuple(norms[list(S)]), tuple(coords[list(S)].ravel()))
        if best is None or key < best[0]:
            best = (key, list(S))
    return None if best is None else best[1]


def _search_arrays(vectors):
    """Candidate arrays of Z^4 vectors in the search's order: by norm rounded
    to 12 digits, then coordinates.  The norms are returned unrounded."""
    Z = np.array(sorted(vectors, key=lambda z: (round(math.hypot(*z), 12), z)), dtype=np.int64)
    V = Z.astype(float)
    return Z, V, np.linalg.norm(V, axis=1), np.round(V, 9)


# Lists of Z^4 vectors on which a check of the search binds.  On whole balls
# neither check can bind for n <= 4 (see test_special_basis_against_oracle_4d).
# UNIMODULAR: {e1, e2, e3, 2 e4} ties (2, 1, 1, 1) with the basis
# {e1, e2, e3, (1, 1, 1, 1)} and wins on coordinates, but has index 2.
# ANGLE: {e1, e2, e3, (8, -1, 0, -1)} is unimodular with min sine 1/sqrt(66),
# 0.985 sin theta_4, and nothing else in the list completes a basis.
SEARCH_LISTS = {
    "unimodular": [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2), (1, 1, 1, 1)],
    "angle": [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, -2, 5, 9), (7, -9, -6, 2), (8, -1, 0, -1)],
}


def test_search_bases_against_oracle_4d():
    bound = math.sin(theta_n(4))
    rng = random.Random(17)
    short = [z for z in itertools.product(range(-1, 2), repeat=4) if z > (0, 0, 0, 0)]
    lists = dict(SEARCH_LISTS)
    for k in range(20):
        lists[f"random-{k}"] = rng.sample(short, 7)
    found = {}
    for name, vectors in lists.items():
        Z, V, lengths, coords = _search_arrays(vectors)
        expected = _oracle_search(V, Z, np.round(lengths, 12), coords, bound)
        found[name] = expected
        try:
            start = lattices._spanning_index(Z)
        except LatticeEnumerationError:
            assert expected is None, name
            continue
        assert lattices._search_bases(Z, V, lengths, coords, angle_bound=bound, start=start) == expected, name
    # each check binds on its list: without it the search would return the
    # index-2 set, or the set below the angle bound
    assert found["unimodular"] is not None and found["angle"] is None
