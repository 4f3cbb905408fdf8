"""Output checks for benchmark ops.

Every check returns ``None`` when the output is right and a one-line reason
when it is not.  A wrong output marks its op as failed; it never stops a run.
The closed forms and the brute-force oracle here are independent of the
code paths they check.
"""

from __future__ import annotations

import math

from workloads import det

REL = 1e-9


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def diff_json(want, got, path: str = "$") -> str | None:
    """First place where two parsed JSON documents differ, or None."""
    if type(want) is not type(got) and not (isinstance(want, (int, float)) and isinstance(got, (int, float))):
        return f"{path}: expected {type(want).__name__}, got {type(got).__name__}"
    if isinstance(want, dict):
        if sorted(want) != sorted(got):
            return f"{path}: keys {sorted(want)} != {sorted(got)}"
        for k in sorted(want):
            d = diff_json(want[k], got[k], f"{path}.{k}")
            if d:
                return d
        return None
    if isinstance(want, list):
        if len(want) != len(got):
            return f"{path}: length {len(want)} != {len(got)}"
        for i, (a, b) in enumerate(zip(want, got)):
            d = diff_json(a, b, f"{path}[{i}]")
            if d:
                return d
        return None
    if want != got:
        return f"{path}: expected {want!r}, got {got!r}"
    return None


def check_output(op: dict, output, golden: dict | None) -> str | None:
    """Judge one op's output by the rule its ``check`` names."""
    chk = op["check"]
    kind = chk["type"]
    if kind == "golden":
        return diff_json(golden["ops"][chk["key"]]["output"], output)
    if kind == "point-group":
        return _check_point_group(chk, output)
    if kind == "collapse-dims":
        got = output["quotient_dimension"] + output["collapsed_dimension"]
        if got != chk["n"]:
            return f"quotient + collapsed dimension = {got}, not {chk['n']}"
        if output["collapsed_dimension"] < chk["min_collapsed"]:
            return f"collapsed dimension {output['collapsed_dimension']} < input rank {chk['min_collapsed']}"
        return None
    if kind == "special-basis":
        return _check_special_basis(chk, output)
    if kind == "limit":
        return _check_limit(chk, output)
    if kind == "covering":
        lo, hi = output
        mu = chk["mu"]
        if not (lo <= mu * (1 + REL) and hi >= mu * (1 - REL)):
            return f"enclosure [{lo}, {hi}] misses the covering radius {mu}"
        if hi - lo > op["eps"] * (1 + REL):
            return f"enclosure width {hi - lo} exceeds eps {op['eps']}"
        return None
    if kind == "diameter":
        return _check_diameter(op, output)
    raise ValueError(f"unknown check type {kind!r}")


def _check_point_group(chk: dict, out: dict) -> str | None:
    if out["holonomy_order"] != chk["holonomy_order"]:
        return f"holonomy order {out['holonomy_order']} != {chk['holonomy_order']}"
    if out["teich_dim"] != chk["invariant_form_dim"]:
        return f"teich_dim {out['teich_dim']} != invariant_form_dim {chk['invariant_form_dim']}"
    # a group with zero translations fixes the origin: it has torsion unless trivial
    if out["torsion_free"] != (chk["holonomy_order"] == 1):
        return f"torsion_free is {out['torsion_free']} for a point group of order {chk['holonomy_order']}"
    return None


def _check_special_basis(chk: dict, out: dict) -> str | None:
    norms = out["norms"]
    if any(b > a * (1 + REL) for a, b in zip(norms, norms[1:])):
        return f"norms {norms} are not non-increasing"
    got_det = abs(det(out["vectors"]))
    if not _close(got_det, chk["det"], 1e-7):
        return f"|det| {got_det} != {chk['det']}"
    short = sorted(norms)[: len(chk["shortest"])]
    if not all(_close(a, b, 1e-7) for a, b in zip(short, chk["shortest"])):
        return f"shortest norms {short} != {chk['shortest']}"
    if "longest" in chk:
        lo, hi = chk["longest"]
        if not (lo * (1 - 1e-7) <= norms[0] <= hi * (1 + 1e-7)):
            return f"longest norm {norms[0]} outside [{lo}, {hi}]"
    return None


def _check_limit(chk: dict, out: dict) -> str | None:
    if out["limit_dim"] != chk["dim"]:
        return f"limit dimension {out['limit_dim']} != {chk['dim']}"
    got = sorted(out["circumferences"])
    want = sorted(chk["circumferences"])
    if not all(_close(a, b, 1e-6) for a, b in zip(got, want)):
        return f"circumferences {got} != {want}"
    return None


def _check_diameter(op: dict, rep) -> str | None:
    if not rep.holds:
        return f"diameter bound fails: diam_lo {rep.diam_lo} < {rep.bound}"
    if not rep.trivial_upper_ok:
        return f"trivial upper bound fails: {rep.diam_lo} > {rep.trivial_upper}"
    if op["check"]["oracle_r0"]:
        r0, norms = oracle_special_2d(op["rows"])
        if not _close(rep.special.R0, r0):
            return f"R0 {rep.special.R0} != oracle {r0}"
        if not all(_close(a, b) for a, b in zip(rep.special.norms, norms)):
            return f"norms {rep.special.norms} != oracle {norms}"
    return None


def oracle_special_2d(rows, box: int = 12) -> tuple[float, tuple[float, float]]:
    """R0 and norm tuple of the special basis of a 2-D lattice, by brute force.

    Searches every unimodular pair of coefficient vectors in [-box, box]^2
    whose norms are at most the longer input row, keeps the pairs whose
    angle sine is at least sin(pi/4), and returns the smallest radius R0 and
    the lexicographically least non-increasing norm pair of radius R0.
    """
    (a, b), (c, d) = [list(map(float, r)) for r in rows]
    cap = max(math.hypot(a, b), math.hypot(c, d)) * (1 + 1e-9)
    items = []
    for x in range(0, box + 1):
        for y in range(-box, box + 1):
            if x == 0 and y <= 0:
                continue
            v = (x * a + y * c, x * b + y * d)
            nv = math.hypot(*v)
            if nv <= cap:
                items.append(((x, y), v, nv))
    bound = math.sin(math.pi / 4) - 1e-9
    pairs = []
    for i, (za, va, na) in enumerate(items):
        for zb, vb, nb in items[i + 1:]:
            if abs(za[0] * zb[1] - za[1] * zb[0]) != 1:
                continue
            if abs(va[0] * vb[1] - va[1] * vb[0]) / (na * nb) < bound:
                continue
            pairs.append((max(na, nb), min(na, nb)))
    if not pairs:
        raise ValueError(f"no angle-bounded basis in the coefficient box for {rows}")
    r0 = min(p[0] for p in pairs)
    second = min(p[1] for p in pairs if p[0] <= r0 + 1e-12 * max(1.0, r0))
    return r0, (r0, second)
