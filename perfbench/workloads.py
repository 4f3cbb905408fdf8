"""Seeded op lists for the three benchmark workloads.

An op is one user query, written as a JSON-serialisable dict:

* ``{"id", "kind": "cli", "argv", "check"}`` runs ``flatorb.cli.main(argv)``
  in-process and parses its ``--json`` output;
* ``{"id", "kind": "diameter" | "covering", ...}`` calls the public library
  function for queries that have no CLI verb.

``check`` says how the output is judged (see ``checks.py``).  Ops with fixed
inputs carry a golden snapshot key; seeded ops carry the closed form or the
property that their output must satisfy.  This module imports nothing from
flatorb, so the op list of a seed is known before the program is loaded.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("catalog-verbs", "collapse-survey", "lattice-collapse")
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GROUP_DIR_TOKEN = "{groups}"

THREE_MANIFOLDS = ("G1", "G2", "G3", "G4", "G5", "G6", "B1", "B2", "B3", "B4")

# The hexagonal evidence case of the lattice layer: the true limit is a circle
# of circumference 1/2, and the seed raises NoLimitError on it.  It runs once
# per run as a probe beside the timed ops (see README.md).
HEX_ROWS = [[1.0, 0.0], [0.5, math.sqrt(3) / 2]]
HEX_PROBE = {
    "id": "probe:hex-limit",
    "kind": "cli",
    "argv": [
        "limit-seq",
        "--lattice", "1,0;0.5," + repr(math.sqrt(3) / 2),
        "--subspace", "0,1",
        "--schedule", "1,0.1,0.01,0.001,0.0001",
        "--json",
    ],
    "check": {"type": "limit", "dim": 1, "circumferences": [0.5]},
}


def load_golden(workload: str) -> dict:
    with open(GOLDEN_DIR / f"{workload}.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def build_ops(workload: str, seed: int) -> list[dict]:
    """The op list of one pass: fixed golden ops, then the seeded ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "lattice-collapse":
        return _lattice_ops(rng)
    golden = load_golden(workload)
    fixed = [
        {"id": op_id, "kind": "cli", "argv": entry["argv"], "check": {"type": "golden", "key": op_id}}
        for op_id, entry in golden["ops"].items()
    ]
    seeded = _catalog_seeded_ops(rng) if workload == "catalog-verbs" else _collapse_seeded_ops(rng)
    return fixed + seeded


# -- catalog-verbs ------------------------------------------------------------

# Holonomy orders of the random point groups, per dimension.  Fixing the
# orders keeps the cost of a pass nearly the same from seed to seed, while
# the groups themselves change with the seed.
RANDOM_GROUP_ORDERS = {
    2: (2, 2, 4, 4, 4, 8, 8, 8),
    3: (2, 3, 4, 6, 8, 12, 24, 48),
    4: (2, 4, 6, 8, 12, 16, 24, 48),
}
MAX_DRAWS = 100_000


def _signed_perm(rng: random.Random, n: int) -> tuple[tuple[int, ...], ...]:
    perm = list(range(n))
    rng.shuffle(perm)
    M = [[0] * n for _ in range(n)]
    for i, p in enumerate(perm):
        M[p][i] = rng.choice((1, -1))
    return tuple(map(tuple, M))


def _mat_mul(A, B):
    n = len(A)
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)) for i in range(n))


def closure(gens, limit: int | None = None) -> list:
    """All products of the integer matrices ``gens`` (a finite group).

    Stops early, returning what it has, once more than ``limit`` are found.
    """
    n = len(gens[0])
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for A in frontier:
            for g in gens:
                P = _mat_mul(A, g)
                if P not in seen:
                    seen.add(P)
                    nxt.append(P)
            if limit is not None and len(seen) > limit:
                return sorted(seen)
        frontier = nxt
    return sorted(seen)


def invariant_form_dim(elements) -> int:
    """dim of invariant symmetric forms: (1/|H|) sum ((tr A)^2 + tr(A^2)) / 2."""
    total = 0
    for A in elements:
        tr = sum(A[i][i] for i in range(len(A)))
        tr2 = sum(A[i][k] * A[k][i] for i in range(len(A)) for k in range(len(A)))
        total += tr * tr + tr2
    dim, rem = divmod(total, 2 * len(elements))
    if rem:
        raise ArithmeticError("character sum is not an integer multiple of 2|H|")
    return dim


def _random_point_group(rng: random.Random, n: int, order: int):
    """Generators and elements of a random signed-permutation group of this order."""
    for _ in range(MAX_DRAWS):
        gens = [_signed_perm(rng, n) for _ in range(rng.choice((1, 2)))]
        elements = closure(gens, limit=order)
        if len(elements) == order:
            return gens, elements
    raise RuntimeError(f"no signed-permutation group of order {order} in dimension {n} drawn")


def _catalog_seeded_ops(rng: random.Random) -> list[dict]:
    ops = []
    for n, orders in RANDOM_GROUP_ORDERS.items():
        for i, order in enumerate(orders):
            gens, elements = _random_point_group(rng, n, order)
            name = f"random-{n}d-{i}"
            doc = {
                "dimension": n,
                "name": name,
                "generators": [
                    {"linear": [list(row) for row in g], "translation": ["0"] * n} for g in gens
                ],
            }
            ops.append({
                "id": f"analyze:{name}",
                "kind": "cli",
                "argv": ["analyze", "--group", f"{GROUP_DIR_TOKEN}/{name}.json", "--json"],
                "group": doc,
                "check": {
                    "type": "point-group",
                    "holonomy_order": len(elements),
                    "invariant_form_dim": invariant_form_dim(elements),
                },
            })
    return ops


# -- collapse-survey ----------------------------------------------------------

RANDOM_LINES_PER_GROUP = 3
RANDOM_PLANES_PER_GROUP = 1


def _primitive_vector(rng: random.Random, n: int) -> list[int]:
    while True:
        v = [rng.randint(-3, 3) for _ in range(n)]
        if math.gcd(*v) == 1:
            return v


def _rank2(u, v) -> bool:
    return any(u[i] * v[j] - u[j] * v[i] for i in range(len(u)) for j in range(i + 1, len(u)))


def subspace_arg(vectors) -> str:
    return ";".join(",".join(str(x) for x in v) for v in vectors)


def _collapse_seeded_ops(rng: random.Random) -> list[dict]:
    ops = []
    for key in THREE_MANIFOLDS:
        spans = [[_primitive_vector(rng, 3)] for _ in range(RANDOM_LINES_PER_GROUP)]
        for _ in range(RANDOM_PLANES_PER_GROUP):
            u = _primitive_vector(rng, 3)
            v = _primitive_vector(rng, 3)
            while not _rank2(u, v):
                v = _primitive_vector(rng, 3)
            spans.append([u, v])
        for j, span in enumerate(spans):
            ops.append({
                "id": f"collapse:{key}:random-{j}",
                "kind": "cli",
                "argv": ["collapse", "--catalog", key, "--subspace=" + subspace_arg(span), "--json"],
                "check": {"type": "collapse-dims", "n": 3, "min_collapsed": len(span)},
            })
    return ops


# -- lattice-collapse ---------------------------------------------------------

# 85 + 15 puts the median op well inside the cheap 2-D group, so op_p50_ms
# does not sit on the boundary between two groups of different cost.
DIAMETER_OPS = {2: 85, 3: 15}
# (shape, scales in a seeded rotation, basis and direction, scales in the
# natural basis along the first minimal vector).  The ladder stops where one
# op takes about a second at the seed; the smaller scales are listed as left
# out in README.md.  The costly rungs are fixed, because their cost moves by
# up to 2x with the input basis and the shrinking direction of the same
# lattice, which would make the cost of a pass depend on the seed.
REDUCE_LADDER = (
    ("square", (1e-1, 1e-2), (1e-3, 1e-4)),
    ("hexagonal", (1e-1, 1e-2), (1e-3, 1e-4)),
    ("cubic-line", (1e-1,), (1e-2,)),
    ("cubic-plane", (0.5, 0.2), ()),
)
LIMIT_SCHEDULE_2D = "1,0.5,0.1,0.01,0.001"
LIMIT_SCHEDULE_3D = "1,0.5,0.1,0.05,0.009"
# ten 2-D limits of similar cost straddle the 90th-percentile op
LIMIT_OPS = {2: 10, 3: 2}
COVERING_OPS = {"random-2d": 6, "hexagonal": 2, "fcc": 1, "bcc": 1}
COVERING_EPS = 1e-3


def _rotation(rng: random.Random, n: int) -> list[list[float]]:
    """A seeded rotation: Gram-Schmidt of a random Gaussian matrix."""
    cols: list[list[float]] = []
    while len(cols) < n:
        v = [rng.gauss(0.0, 1.0) for _ in range(n)]
        for c in cols:
            d = sum(a * b for a, b in zip(v, c))
            v = [a - d * b for a, b in zip(v, c)]
        norm = math.sqrt(sum(a * a for a in v))
        if norm > 1e-3:
            cols.append([a / norm for a in v])
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _unimodular(rng: random.Random, n: int) -> list[list[int]]:
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    return U


def _apply(rows, M):
    """Rows of ``rows`` mapped by the linear map M (row vectors times M^T)."""
    return [[sum(M[i][k] * r[k] for k in range(len(r))) for i in range(len(M))] for r in rows]


def _combine(U, rows):
    return [[sum(U[i][k] * rows[k][j] for k in range(len(rows))) for j in range(len(rows[0]))] for i in range(len(U))]


def matrix_arg(rows) -> str:
    return ";".join(",".join(repr(float(x)) for x in r) for r in rows)


def _scale_along(rows, directions, t):
    """Rows with the span of the ambient ``directions`` scaled by t."""
    n = len(rows[0])
    basis: list[list[float]] = []
    for d in directions:
        v = list(map(float, d))
        for b in basis:
            dot = sum(a * c for a, c in zip(v, b))
            v = [a - dot * c for a, c in zip(v, b)]
        norm = math.sqrt(sum(a * a for a in v))
        basis.append([a / norm for a in v])
    out = []
    for r in rows:
        par = [0.0] * n
        for b in basis:
            dot = sum(a * c for a, c in zip(r, b))
            par = [p + dot * c for p, c in zip(par, b)]
        out.append([x - p + t * p for x, p in zip(r, par)])
    return out


SQRT3_2 = math.sqrt(3) / 2


def _base_shape(shape: str):
    """Basis rows of the unscaled lattice, and the symmetric choices of
    minimal lattice vectors to shrink (all of norm 1)."""
    if shape == "square":
        return [[1.0, 0.0], [0.0, 1.0]], [[(1.0, 0.0)], [(0.0, 1.0)]]
    if shape == "hexagonal":
        return [list(r) for r in HEX_ROWS], [[(1.0, 0.0)], [(0.5, SQRT3_2)], [(-0.5, SQRT3_2)]]
    cube = [[float(i == j) for j in range(3)] for i in range(3)]
    if shape == "cubic-line":
        return cube, [[tuple(e)] for e in cube]
    if shape == "cubic-plane":
        return cube, [[tuple(cube[i]), tuple(cube[j])] for i in range(3) for j in range(i + 1, 3)]
    raise ValueError(shape)


def _reduce_ops(rng: random.Random) -> list[dict]:
    ops = []
    for shape, seeded_scales, natural_scales in REDUCE_LADDER:
        base, choices = _base_shape(shape)
        n = len(base)
        for t in seeded_scales + natural_scales:
            if t in seeded_scales:
                shrink = [list(w) for w in rng.choice(choices)]
                R = _rotation(rng, n)
                rows = _apply(base, R)
                shrink = _apply(shrink, R)
                rows = _combine(_unimodular(rng, n), _scale_along(rows, shrink, t))
            else:
                shrink = [list(w) for w in choices[0]]
                rows = _scale_along(base, shrink, t)
            covolume = abs(det(base)) * t ** len(shrink)
            check = {"type": "special-basis", "det": covolume, "shortest": [t] * len(shrink)}
            if n == 2:
                h = abs(det(base))
                check["longest"] = [h, math.sqrt(h * h + (t / 2) ** 2)]
            ops.append({
                "id": f"reduce:{shape}:{t:g}",
                "kind": "cli",
                "argv": ["reduce-lattice", "--json", "--", matrix_arg(rows)],
                "check": check,
            })
    return ops


def det(rows) -> float:
    """Determinant of a 2x2 or 3x3 matrix given by rows."""
    if len(rows) == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _limit_ops(rng: random.Random) -> list[dict]:
    ops = []
    for k in range(LIMIT_OPS[2]):
        # orthogonal integer frame (p, q), (-q, p): shrink the first row; the
        # limit circle has circumference |det B| / |w| = sqrt(p^2 + q^2)
        while True:
            p, q = rng.randint(0, 3), rng.randint(1, 3)
            if math.gcd(p, q) == 1:
                break
        frame = [[float(p), float(q)], [float(-q), float(p)]]
        R = _rotation(rng, 2)
        rows = _apply(frame, R)
        ops.append({
            "id": f"limit:2d-{k}",
            "kind": "cli",
            "argv": ["limit-seq", "--lattice=" + matrix_arg(rows), "--subspace=" + matrix_arg([rows[0]]),
                     "--schedule", LIMIT_SCHEDULE_2D, "--json"],
            "check": {"type": "limit", "dim": 1, "circumferences": [abs(det(frame)) / math.hypot(p, q)]},
        })
    for k in range(LIMIT_OPS[3]):
        # the unit cube in a seeded basis, shrinking one coordinate axis: the
        # limit is the square 2-torus.  Rotated 3-D families are left out
        # (README.md): at this schedule they take 40 s or end in NoLimitError.
        axis = rng.randrange(3)
        rows = _combine(_unimodular(rng, 3), [[float(i == j) for j in range(3)] for i in range(3)])
        ops.append({
            "id": f"limit:3d-{k}",
            "kind": "cli",
            "argv": ["limit-seq", "--lattice=" + matrix_arg(rows),
                     "--subspace=" + ",".join("1.0" if i == axis else "0.0" for i in range(3)),
                     "--schedule", LIMIT_SCHEDULE_3D, "--json"],
            "check": {"type": "limit", "dim": 2, "circumferences": [1.0, 1.0]},
        })
    return ops


def _random_integer_basis(rng: random.Random, n: int) -> list[list[int]]:
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if round(det(rows)) != 0:
            return rows


def _covering_ops(rng: random.Random) -> list[dict]:
    ops = []
    for kind, count in COVERING_OPS.items():
        for k in range(count):
            if kind == "random-2d":
                while True:
                    rows = _random_integer_basis(rng, 2)
                    if sum(a * b for a, b in zip(*rows)) != 0:  # non-rectangular
                        break
                mu = covering_radius_2d(rows)
            elif kind == "hexagonal":
                rows = _combine(_unimodular(rng, 2), _apply(HEX_ROWS, _rotation(rng, 2)))
                mu = 1 / math.sqrt(3)
            else:
                # conventional cube side 1: the fcc deep hole is at (1/2, 0, 0),
                # the bcc one at (1/2, 1/4, 0)
                cell = ([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]] if kind == "fcc"
                        else [[0.5, 0.5, 0.5], [0.5, -0.5, 0.5], [0.5, 0.5, -0.5]])
                rows = _combine(_unimodular(rng, 3), _apply(cell, _rotation(rng, 3)))
                mu = 0.5 if kind == "fcc" else math.sqrt(5) / 4
            ops.append({
                "id": f"covering:{kind}-{k}",
                "kind": "covering",
                "rows": [list(map(float, r)) for r in rows],
                "eps": COVERING_EPS,
                "check": {"type": "covering", "mu": mu},
            })
    return ops


def covering_radius_2d(rows) -> float:
    """Circumradius of the acute triangle (0, u, v) of a Lagrange-reduced basis."""
    u, v = [list(map(float, r)) for r in rows]
    dot = lambda a, b: a[0] * b[0] + a[1] * b[1]
    while True:
        if dot(u, u) > dot(v, v):
            u, v = v, u
        m = round(dot(u, v) / dot(u, u))
        if m == 0:
            break
        v = [v[0] - m * u[0], v[1] - m * u[1]]
    if dot(u, v) < 0:
        v = [-v[0], -v[1]]
    w = [u[0] - v[0], u[1] - v[1]]
    area2 = abs(u[0] * v[1] - u[1] * v[0])
    return math.sqrt(dot(u, u) * dot(v, v) * dot(w, w)) / (2 * area2)


def _diameter_ops(rng: random.Random) -> list[dict]:
    ops = []
    for n, count in DIAMETER_OPS.items():
        for k in range(count):
            ops.append({
                "id": f"diameter:{n}d-{k}",
                "kind": "diameter",
                "rows": _random_integer_basis(rng, n),
                "check": {"type": "diameter", "oracle_r0": n == 2},
            })
    return ops


def _lattice_ops(rng: random.Random) -> list[dict]:
    return _diameter_ops(rng) + _reduce_ops(rng) + _limit_ops(rng) + _covering_ops(rng)
