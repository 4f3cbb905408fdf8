"""Degeneration of flat manifolds and orbifolds along invariant subspaces.

Collapsing a rational, holonomy-invariant subspace W projects R^n
G-orthogonally along W onto its complement, and the lattice onto the
projection of Z^n, taken in its Hermite basis.  The coordinate map A onto
that basis is an integer matrix with A W = 0 and A Z^n = Z^m, so each
generator (M, v) of the group goes to (A M R, A v) with R an integer right
inverse of A, and the metric to the Gram form of the complement.  Scaled
by the determinant of the k x k form that defines it (k = dim W), through
the form's integer adjugate, the projection is an integer matrix.
The quotient is a crystallographic group of dimension n - dim W and is
classified by dimension (point, interval, circle, or a wallpaper class).

``rational_closure`` enlarges a direction that is not rational or not
invariant to the smallest subspace that is both: the span of the images
A v, over the whole point group, of the exact vectors and of the rational
span of the float vectors (``lattices.rational_span``).  The vectors are
scaled to primitive integer vectors first, so the images are integer
vectors; they are echeloned by ``rational.hnf``.  ``collapse`` takes the
nonzero Hermite rows as they are, and only ``rational_closure`` reduces
them to an rref basis.  ``is_invariant`` tests a span against the
generators' linear parts alone, in integers: invariance under the
generators is invariance under the group.
``rational_isotypic_components`` and ``invariant_directions`` read the
exact class-sum decomposition in ``reps.rational_components``; the planes
of ``invariant_directions`` are keyed by their primitive Plücker vectors.

``product_resolution`` builds the block-diagonal flat manifold that
resolves an orbifold against a torsion-free partner with isomorphic
holonomy; collapsing the partner block recovers the orbifold.  The
holonomy isomorphism is searched for by backtracking: the orbifold's
generating set is the first set of at most three holonomy elements, in
element order, that generates, and each generator tries the partner's
elements of its order, in element order.  A full choice of images is
walked out from the identity along right multiplication by the
generators; it is accepted when every edge agrees, phi(x g) = phi(x)
phi(g), and the walk reaches every element of the partner.

``verify_theorem_c`` sweeps every holonomy-invariant rational direction of
the ten flat 3-manifolds (components, bounded-slope lines and planes in
scalar components) plus all iterated collapses of the 2- and 1-dimensional
limits, and compares the resulting label set with the classical claim.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import rational as ra
from .groups import (
    AffineElement,
    CrystalGroup,
    FlatOrbError,
    holonomy_signature,
    IntMat,
    _freeze_int_mat,
    _int_identity,
    _int_mul,
)
# isotypic_decompose is not called here; it stays importable from this module
from .reps import isotypic_decompose, rational_components  # noqa: F401
from .wallpaper import OrbifoldLabel, POINT_LABEL, classify_low_dim

SLOPE_BOUND = 3
MAX_DEPTH = 3  # iterated collapses in the survey
PAIRING_CAP = 48


class NotInvariantError(FlatOrbError):
    pass


class NoIsomorphismError(FlatOrbError):
    pass


class InvalidSubspaceError(FlatOrbError):
    pass


# -- subspaces -------------------------------------------------------------


def _span_basis(vectors) -> list[list[Fraction]]:
    R, pivots = ra.rref(vectors)
    return R[: len(pivots)]


def _hermite_rows(vectors) -> list[list[int]]:
    """Nonzero Hermite rows of the primitive rows: an integer basis of the span."""
    H, _ = ra.hnf([ra.primitive(v) for v in vectors], transform=False)
    return [h for h in H if any(h)]


def _check_vectors(n: int, vectors) -> None:
    if len(vectors) == 0:
        raise InvalidSubspaceError("empty subspace: give at least one vector")
    for v in vectors:
        if len(v) != n:
            raise InvalidSubspaceError(f"subspace vector has {len(v)} entries; the group has dimension {n}")
        if not all(math.isfinite(x) for x in v if isinstance(x, float)):
            raise InvalidSubspaceError("subspace entries must be finite")
        if all((x if isinstance(x, float) else ra.frac(x)) == 0 for x in v):
            raise InvalidSubspaceError("zero vector in subspace")


def _saturate(group: CrystalGroup, vectors) -> list[list[int]]:
    """``rational_closure`` of the vectors as Hermite rows; ``group`` is normalized."""
    _check_vectors(group.n, vectors)
    exact, floats = [], []
    for v in vectors:
        (exact if all(isinstance(x, (int, Fraction, str)) for x in v) else floats).append(v)
    if floats:
        import numpy as np

        from .lattices import rational_span

        exact.extend(rational_span(np.array(floats, dtype=float).T))
    # the images A v over the whole finite point group already span an
    # invariant subspace, since B (A v) = (B A) v; the input is echeloned
    # first, and its Hermite rows, which ``_hermite_rows`` makes primitive,
    # can span more than the primitive inputs do
    rows = _hermite_rows(exact)
    images = dict.fromkeys(
        tuple(sum(a * x for a, x in zip(r, v)) for r in A) for A in group.holonomy().elements for v in rows
    )
    return _hermite_rows(images)


def is_invariant(group: CrystalGroup, basis) -> bool:
    """True when span(basis) is invariant under the point group.

    The linear parts of the generators generate the point group, so it
    suffices that each of them maps the span into itself: in integers,
    every image A v of a Hermite row v of the span reduces to zero against
    the Hermite rows, taken in pivot order.
    """
    echelon = [(u, next(j for j, x in enumerate(u) if x)) for u in _hermite_rows(basis)]
    for g in group.generators:
        for v, _ in echelon:
            w = [sum(a * x for a, x in zip(r, v)) for r in g.linear]
            for u, p in echelon:
                if w[p]:
                    w = [u[p] * x - w[p] * y for x, y in zip(w, u)]
            if any(w):
                return False
    return True


def rational_closure(group: CrystalGroup, vectors) -> list[list[Fraction]]:
    """Smallest holonomy-invariant rational subspace containing the input.

    Exact rational vectors (ints, Fractions, 'p/q' strings) are taken as
    they are; float vectors contribute their rational span R(floats)
    (``lattices.rational_span``), so an irrational line closes to the
    rational subspace it spans and not to whole isotypic components.  The
    result is the saturation of both under the point group, as its reduced
    row echelon basis.  Raises FlatOrbError when double precision cannot
    decide the span.
    """
    return _span_basis(_saturate(group.normalize(), vectors))


# -- collapse ---------------------------------------------------------------


@dataclass(frozen=True)
class CollapseResult:
    quotient: CrystalGroup
    label: OrbifoldLabel
    log: tuple[str, ...]
    subspace: tuple[tuple[int, ...], ...]  # Hermite rows of the collapsed subspace
    coord_map: IntMat  # old lattice coords -> quotient coords

    @property
    def collapsed_dim(self) -> int:
        return len(self.subspace)

    def push_forward(self, vectors) -> list[list[Fraction]]:
        return [ra.mat_vec(self.coord_map, ra.vec(v)) for v in vectors]


def collapse(group: CrystalGroup, subspace, *, closure: bool = True) -> CollapseResult:
    """Collapse a holonomy-invariant rational subspace to its flat limit."""
    grp = group.normalize()
    n = grp.n
    if closure:
        W = _saturate(grp, subspace)
    else:
        _check_vectors(n, subspace)
        W = _hermite_rows(subspace)
        if not is_invariant(grp, W):
            raise NotInvariantError("subspace is not invariant under the holonomy action")
    k = len(W)
    log = [f"collapsing a {k}-dimensional invariant rational subspace of R^{n}"]
    m = n - k
    if m == 0:
        quotient = CrystalGroup.make(0, [], gram=[], name=(grp.name or "") + "/collapse").normalize()
        log.append("everything collapsed: limit is a point")
        return CollapseResult(quotient, POINT_LABEL, tuple(log), tuple(map(tuple, W)), tuple())

    log.append(f"orthogonal complement has dimension {m}")

    # With Gi = q G, WG = W Gi and (a, D) the integer adjugate and determinant
    # of the k x k form WG W^T (D > 0), DP = D I - W^T a WG is D times the
    # G-orthogonal projection P along W onto C = ker WG, whose coordinates are
    # the non-pivot columns of WG.  With S the rows D (P e_i)[free] and U S =
    # [H; 0] their Hermite form, the quotient lattice P Z^n has the Hermite
    # basis H^T / D; the first m columns of U^-1 are S H[:m]^-1, so they map
    # x to Hermite coordinates, and the first m rows of U form a right
    # inverse R.  Since H[:m] is upper triangular, coord_map = (S H[:m]^-1)^T
    # is one right division (rational.right_divide), with no inverse of U.
    # (M, v) acts as (coord_map M R, coord_map v); the Gram form is
    # R^T G P R = U[:m] Gi DP R / (q D).
    Gi, q = grp.gram_int
    WG, Wt = _int_mul(W, Gi), tuple(zip(*W))
    adj, D = ra.adjugate(_int_mul(WG, Wt))
    WaWG = _int_mul(_int_mul(Wt, adj), WG)
    DP = [[D * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(WaWG)]
    pivots = {next(j for j, x in enumerate(h) if x) for h in ra.hnf(WG, transform=False)[0]}
    free = [j for j in range(n) if j not in pivots]
    S = [[DP[j][i] for j in free] for i in range(n)]
    H, U = ra.hnf(S)
    coord_map = tuple(zip(*ra.right_divide(S, H[:m])))
    R = tuple(zip(*U[:m]))
    gens = tuple(
        AffineElement(_int_mul(coord_map, _int_mul(g.linear, R)), tuple(ra.mat_vec(coord_map, g.translation)))
        for g in grp.generators
    )
    Gq = ra.lowest_terms(_int_mul(_int_mul(U[:m], Gi), _int_mul(DP, R)), q * D)
    quotient = CrystalGroup(m, gens, Gq, (grp.name or "group") + "/collapse").normalize()
    label = classify_low_dim(quotient)
    log.append(f"quotient is {m}-dimensional with holonomy order {quotient.holonomy().order}")
    log.append(f"classified as {label.orbifold_name}")

    # normalize() may refine the quotient lattice once more; its integer
    # B^-1 maps the old quotient coordinates to the new ones
    if quotient.Binv is not None:
        coord_map = _int_mul(quotient.Binv, coord_map)
    return CollapseResult(quotient, label, tuple(log), tuple(map(tuple, W)), coord_map)


# -- product resolution ------------------------------------------------------


def _extend(gens, images, phi: dict[IntMat, IntMat]) -> dict[IntMat, IntMat] | None:
    """Extend phi = {identity: identity} by gens -> images along x -> x g.

    Every edge (x, g) is checked, phi(x g) = phi(x) phi(g); so the result is
    a homomorphism on the subgroup the generators generate, and None means
    that no homomorphism takes gens to images.
    """
    frontier = list(phi)
    while frontier:
        nxt = []
        for x in frontier:
            for g, h in zip(gens, images):
                xg, img = _int_mul(x, g), _int_mul(phi[x], h)
                if xg not in phi:
                    phi[xg] = img
                    nxt.append(xg)
                elif phi[xg] != img:
                    return None
        frontier = nxt
    return phi


def _iso_search(els_a: tuple[IntMat, ...], els_b: tuple[IntMat, ...]) -> dict[IntMat, IntMat] | None:
    """Group isomorphism els_a -> els_b, or None."""
    na = len(els_a)
    if na != len(els_b):
        return None
    ia, ib = _int_identity(len(els_a[0])), _int_identity(len(els_b[0]))
    # the first generating set of at most three elements, in element order;
    # the identity map walks out the subgroup a candidate set generates
    rest = [A for A in els_a if A != ia]
    gens = next(
        (
            list(combo)
            for size in range(1, 4)
            for combo in itertools.combinations(rest, size)
            if len(_extend(combo, combo, {ia: ia})) == na
        ),
        rest,
    )
    # an element's order divides the group order
    by_order: dict[int, list[IntMat]] = {}
    for B in els_b:
        by_order.setdefault(ra.matrix_order(B, cap=na), []).append(B)
    candidates = [by_order.get(ra.matrix_order(g, cap=na), []) for g in gens]

    def backtrack(images):
        if len(images) == len(gens):
            phi = _extend(gens, images, {ia: ib})
            return phi if phi is not None and len(set(phi.values())) == na else None
        for cand in candidates[len(images)]:
            if cand not in images:
                found = backtrack(images + [cand])
                if found is not None:
                    return found
        return None

    return backtrack([])


def product_resolution(
    orb: CrystalGroup,
    mfd: CrystalGroup,
    pairing: dict | None = None,
    scale: Fraction | int = 1,
) -> CrystalGroup:
    """Block-diagonal flat manifold resolving ``orb`` against ``mfd``.

    ``pairing`` maps each holonomy matrix of ``orb`` to one of ``mfd`` and
    must be a group isomorphism; without one, a backtracking search runs
    (holonomy order capped at 48).  The result is torsion-free and
    collapsing its second block returns the orbifold.
    """
    orb = orb.normalize()
    mfd = mfd.normalize()
    if not mfd.is_torsion_free().torsion_free:
        raise FlatOrbError("the resolving partner must be torsion-free")
    hol_o = orb.holonomy()
    hol_m = mfd.holonomy()
    if pairing is None:
        if hol_o.order > PAIRING_CAP:
            raise NoIsomorphismError("holonomy too large for the pairing search; pass one explicitly")
        pairing = _iso_search(hol_o.elements, hol_m.elements)
        if pairing is None:
            raise NoIsomorphismError("no isomorphism between the holonomy groups")
    else:
        pairing = {_freeze_int_mat(k): _freeze_int_mat(v) for k, v in pairing.items()}
        if set(pairing) != set(hol_o.elements) or not set(pairing.values()) <= set(hol_m.elements):
            raise NoIsomorphismError("supplied pairing is not a map between the holonomy groups")
        for A in hol_o.elements:
            for B in hol_o.elements:
                if pairing[_int_mul(A, B)] != _int_mul(pairing[A], pairing[B]):
                    raise NoIsomorphismError("supplied pairing is not a homomorphism")
        if len(set(pairing.values())) != hol_m.order:
            raise NoIsomorphismError("supplied pairing is not a bijection")

    n, m = orb.n, mfd.n
    v_o, v_m = hol_o.translations, hol_m.translations
    gens = []
    for A in hol_o.elements:
        B = pairing[A]
        block = [list(row) + [0] * m for row in A] + [[0] * n + list(row) for row in B]
        gens.append((block, v_o[A] + v_m[B]))
    lam = ra.frac(scale)
    gram = [list(row) + [0] * m for row in orb.gram]
    gram += [[0] * n + [lam * x for x in row] for row in mfd.gram]
    name = f"({orb.name or 'orb'}x{mfd.name or 'mfd'})/H"
    product = CrystalGroup.make(n + m, gens, gram=gram, name=name).normalize()

    if not product.is_torsion_free().torsion_free:
        raise NoIsomorphismError("pairing produced torsion; invalid resolution")
    block_w = [[int(j == n + i) for j in range(n + m)] for i in range(m)]
    back = collapse(product, block_w, closure=False)
    if holonomy_signature(back.quotient) != holonomy_signature(orb):
        raise FlatOrbError("collapse of the resolved manifold does not recover the orbifold")
    return product


# -- the collapsed-limit survey ----------------------------------------------


CLAIMED_3MFD_LIMIT_LABELS = {
    "point",
    "interval",
    "circle",
    "T2",
    "K2",
    "M2",
    "S1xI",
    "D2(4;2)",
    "D2(3;3)",
    "D2(2,2;)",
    "S2(3,3,3;)",
    "S2(2,2,2,2;)",
    "RP2(2,2;)",
}


def rational_isotypic_components(group: CrystalGroup) -> list[list[list[Fraction]]]:
    """Exact Q-isotypic components of the holonomy action, in canonical order.

    Each component is the reduced row echelon basis of its span; the
    trivial component comes first, then by leading coordinate.
    """
    grp = group.normalize()
    pieces = rational_components(grp.holonomy())
    pieces.sort(key=lambda p: _component_sort_key(grp, p))
    return pieces


def _component_sort_key(group: CrystalGroup, piece):
    trivial = _acts_by(group, piece, (1,))
    pivot = min(next(j for j, x in enumerate(v) if x != 0) for v in piece)
    return (0 if trivial else 1, pivot, len(piece), [[str(x) for x in row] for row in piece])


def _acts_by(group: CrystalGroup, piece, scalars) -> bool:
    """True when every holonomy element acts on the span as one of the scalars.

    ``scalars`` is closed under products ((1,) or (1, -1)), so it suffices
    that each generator's linear part does, tested on primitive integer rows.
    """
    rows = [ra.primitive(v) for v in piece]
    return all(
        any(all(ra.mat_vec(g.linear, v) == [c * x for x in v] for v in rows) for c in scalars)
        for g in group.generators
    )


def _sublattice_basis(piece) -> list[list[int]]:
    """Basis of Z^n intersected with the rational span of the piece."""
    return ra.quotient_map(ra.kernel(piece), len(piece[0]))[0]


def _plucker(u, v) -> tuple[int, ...]:
    """Primitive Plücker vector (2 x 2 minors) of span(u, v): one key per plane."""
    n = len(u)
    return tuple(ra.primitive([u[i] * v[j] - u[j] * v[i] for i in range(n) for j in range(i + 1, n)]))


def invariant_directions(group: CrystalGroup, slope_bound: int = SLOPE_BOUND):
    """Named invariant rational subspaces to sweep for a collapse survey."""
    grp = group.normalize()
    comps = rational_isotypic_components(grp)
    directions = [(f"W{idx}", piece) for idx, piece in enumerate(comps, start=1)]
    # units (name, integer vector, invariant?): the 1-dimensional components,
    # then rational lines inside the components of dimension >= 2
    units = [(f"W{idx}", ra.primitive(piece[0]), True) for idx, piece in enumerate(comps, start=1) if len(piece) == 1]
    lines = []
    for idx, piece in enumerate(comps, start=1):
        if len(piece) < 2:
            continue
        lat = _sublattice_basis(piece)
        if _acts_by(grp, piece, (1, -1)):
            # a scalar component: every line in it is invariant
            dim = len(piece)
            bound = slope_bound if dim == 2 else 1
            # each primitive line once: the tuple whose leading entry is
            # negative comes first in product order, and names its negation
            for coeffs in itertools.product(range(-bound, bound + 1), repeat=dim):
                canon = [-c for c in coeffs]
                if not any(coeffs) or ra.primitive(coeffs) != canon:
                    continue
                vec = [sum(c * row[j] for c, row in zip(canon, lat)) for j in range(grp.n)]
                slope = ":".join(str(c) for c in canon)
                lines.append((f"W{idx}[{slope}]", vec, True))
        else:
            # a non-scalar component of any dimension >= 2: its rational lines
            # are not invariant, but the lines of its first two lattice vectors
            # are swept anyway to observe that
            for p, q in ((1, 0), (0, 1), (1, 1), (1, -1)):
                vec = [p * a + q * b for a, b in zip(lat[0], lat[1])]
                lines.append((f"W{idx}[{p}:{q}]", vec, False))
    directions += [(name, [vec]) for name, vec, _ in lines]
    # planes spanned by two units: invariant when both units are, else
    # tested; each plane once, keyed by its Plücker vector, and none that
    # is a 2-dimensional component (listed first)
    seen = {_plucker(*piece) for piece in comps if len(piece) == 2}
    for (na, a, inv_a), (nb, b, inv_b) in itertools.combinations(units + lines, 2):
        key = _plucker(a, b)
        if key not in seen and (inv_a and inv_b or is_invariant(grp, [a, b])):
            seen.add(key)
            directions.append((f"{na}+{nb}", [a, b]))
    return directions


@dataclass
class TheoremCReport:
    collapses: list[tuple[str, str, str]] = field(default_factory=list)  # group, direction, label
    label_set: set[str] = field(default_factory=set)
    claimed_set: set[str] = field(default_factory=set)
    missing: set[str] = field(default_factory=set)
    extra: set[str] = field(default_factory=set)

    @property
    def matches_claim(self) -> bool:
        return not self.missing and not self.extra


def survey_collapses(groups: list[CrystalGroup]):
    """All collapse labels of the groups, including iterated collapses."""
    rows: list[tuple[str, str, str]] = []
    queue: list[tuple[str, CrystalGroup, int]] = [
        (g.name or f"group{i}", g.normalize(), 0)
        for i, g in enumerate(groups)
    ]
    seen_groups = set()
    while queue:
        name, grp, depth = queue.pop(0)
        for dname, basis in invariant_directions(grp):
            res = collapse(grp, basis)
            label = res.label.orbifold_name
            rows.append((name, dname, label))
            if depth < MAX_DEPTH and res.quotient.n >= 1:
                qsig = (res.quotient.n, holonomy_signature(res.quotient))
                if qsig not in seen_groups:
                    seen_groups.add(qsig)
                    queue.append((f"{name}>{dname}", res.quotient, depth + 1))
    return rows


def verify_theorem_c() -> TheoremCReport:
    """Collapse survey over the ten closed flat 3-manifolds."""
    from .catalog import three_manifold_groups

    rows = survey_collapses(three_manifold_groups())
    labels = {label for _, _, label in rows}
    report = TheoremCReport(
        collapses=rows,
        label_set=labels,
        claimed_set=set(CLAIMED_3MFD_LIMIT_LABELS),
        missing=set(CLAIMED_3MFD_LIMIT_LABELS) - labels,
        extra=labels - set(CLAIMED_3MFD_LIMIT_LABELS),
    )
    return report
