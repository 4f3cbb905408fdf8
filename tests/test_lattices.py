import math
import random

import numpy as np
import pytest

from flatorb import lattices
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
    sequence_limit,
    short_vectors,
    special_basis,
    theta_n,
)

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
    monkeypatch.setattr(lattices, "lll_reduce", lambda B: np.array([[1.0, 0.9], [0.0, 0.1]]))
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
    ],
)
def test_lattice_rejects_bad_bases(rows):
    with pytest.raises(InvalidLatticeError):
        Lattice.from_rows(rows)


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
        B = lll_reduce(L.basis)
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
