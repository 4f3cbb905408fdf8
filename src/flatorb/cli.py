"""Command-line front end.

Verbs: analyze, teich, collapse, classify2, reduce-lattice, limit-seq,
resolve, verify-theorem-c, catalog, render-svg.  Output is deterministic
plain text, or a stable JSON document with ``--json``.  Exit codes:
0 success, 1 domain error (bad group, bad subspace, unknown key),
2 usage error.  When the reader of stdout goes away early (``flatorb ...
| head``), stdout is pointed at ``os.devnull`` and the exit code is 1,
as the Python documentation advises for SIGPIPE ("Note on SIGPIPE").
Only the lattice verbs and ``collapse`` with a float ``--subspace``
import ``lattices`` and numpy, when they run, so the exact verbs start
without them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import rational as ra
from .catalog import catalog_get, catalog_list
from .collapse import InvalidSubspaceError, collapse, product_resolution, verify_theorem_c
from .groups import CrystalGroup, FlatOrbError, OutOfRangeError, group_to_dict, load_group
from .reps import teich_report
from .wallpaper import classify2, render_svg


def _load_group(key: str | None, path: str | None) -> CrystalGroup:
    """The catalog entry ``key``, else the group file at ``path``, normalized."""
    if key is not None:
        return catalog_get(key).group
    if path is not None:
        return load_group(path).normalize()
    raise FlatOrbError("provide --group FILE or --catalog KEY")


def _load_side(value: str) -> CrystalGroup:
    """A ``resolve`` side: ``catalog:KEY`` or a group file path."""
    key = value.split(":", 1)[1] if value.startswith("catalog:") else None
    return _load_group(key, value)


def _parse_vector(text: str):
    return [x.strip() for x in text.split(",")]


def _coerce_entry(x: str):
    # decimal notation signals a float (possibly irrational) direction;
    # exact rationals are integers or p/q strings
    try:
        f = float(x) if "." in x or "e" in x or "E" in x else ra.frac(x)
    except (ValueError, ZeroDivisionError):
        raise InvalidSubspaceError(f"subspace entry {x!r} is not a number") from None
    # a decimal with a nonzero digit before its exponent is not zero, even where its float is
    if f == 0 and type(f) is float and any(c in "123456789" for c in x.lower().partition("e")[0]):
        raise InvalidSubspaceError(f"subspace entry {x!r} is nonzero but rounds to 0.0; give it as p/q")
    return f


def _parse_subspace(text: str):
    vectors = []
    for chunk in text.split(";"):
        entries = [e for e in _parse_vector(chunk) if e]
        vec = [_coerce_entry(e) for e in entries]
        if any(isinstance(x, float) for x in vec):
            vectors.append([float(x) for x in vec])
        else:
            vectors.append(vec)
    if len({len(v) for v in vectors}) > 1:
        raise InvalidSubspaceError("subspace vectors differ in length")
    return vectors


def _parse_matrix(text: str):
    import numpy as np

    from .lattices import InvalidLatticeError

    try:
        return np.array([[float(x) for x in _parse_vector(chunk)] for chunk in text.split(";")])
    except ValueError:
        raise InvalidLatticeError(f"lattice {text!r} is not a matrix of numbers") from None


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _components(rep) -> list[dict]:
    return [
        {
            "irreducible_dim": c.irreducible_dim,
            "multiplicity": c.multiplicity,
            "type": c.division_type,
            "factor_dim": c.factor_dim,
        }
        for c in rep.components
    ]


def cmd_analyze(args) -> int:
    grp = _load_group(args.catalog, args.group)
    hol = grp.holonomy()
    torsion = grp.is_torsion_free()
    rep = teich_report(grp)
    betti = [grp.betti(k) for k in range(grp.n + 1)]
    volume = grp.volume()
    payload = {
        "name": grp.name,
        "dimension": grp.n,
        "holonomy_order": hol.order,
        "torsion_free": torsion.torsion_free,
        "volume": volume,
        "betti": betti,
        "teich_dim": rep.total_dim,
        "components": _components(rep),
    }
    lines = [
        f"group: {grp.name or '(unnamed)'} (dim {grp.n})",
        f"holonomy order: {hol.order}",
        f"torsion-free: {'yes' if torsion.torsion_free else 'no'}",
        f"volume: {volume:.12g}",
        "betti: " + " ".join(f"b{k}={b}" for k, b in enumerate(betti)),
        f"teichmuller dim: {rep.total_dim}",
        rep.summary(),
    ]
    if not torsion.torsion_free and torsion.witness is not None:
        lines.append("torsion witness: linear part with a fixed point found")
    _emit(args, payload, lines)
    return 0


def cmd_teich(args) -> int:
    grp = _load_group(args.catalog, args.group)
    rep = teich_report(grp)
    payload = {
        "name": grp.name,
        "dim": rep.total_dim,
        "invariant_form_dim": rep.invariant_form_dim,
        "components": _components(rep),
    }
    _emit(args, payload, [rep.summary()])
    return 0


def cmd_collapse(args) -> int:
    grp = _load_group(args.catalog, args.group)
    res = collapse(grp, _parse_subspace(args.subspace))
    payload = {
        "label": res.label.orbifold_name,
        "quotient_dimension": res.quotient.n,
        "collapsed_dimension": res.collapsed_dim,
        "log": list(res.log),
    }
    lines = [f"limit: {res.label.orbifold_name}"] + [f"  {step}" for step in res.log]
    _emit(args, payload, lines)
    return 0


def cmd_classify2(args) -> int:
    grp = _load_group(args.catalog, args.group)
    label = classify2(grp)
    payload = {
        "iuc": label.iuc,
        "conway": label.conway,
        "topology": label.topology,
        "orbifold": label.orbifold_name,
        "cone_points": list(label.cone_points),
        "corner_reflectors": list(label.corner_reflectors),
        "holonomy_order": label.holonomy_order,
    }
    lines = [f"{label.iuc} ({label.conway}): {label.orbifold_name}, holonomy order {label.holonomy_order}"]
    if args.svg:
        render_svg(grp, args.svg)
        lines.append(f"wrote {args.svg}")
        payload["svg"] = args.svg
    _emit(args, payload, lines)
    return 0


def cmd_reduce_lattice(args) -> int:
    import numpy as np

    from .lattices import Lattice, special_basis

    L = Lattice.from_rows(_parse_matrix(args.matrix))
    sb = special_basis(L)
    payload = {
        "R0": sb.R0,
        "theta_n": sb.theta,
        "beta_n": sb.beta,
        "norms": list(sb.norms),
        "vectors": [[float(x) for x in v] for v in sb.vectors],
        "coefficients": sb.coefficients.tolist(),
    }
    lines = [
        f"special basis (norms non-increasing): R0 = {sb.R0:.12g}",
        f"theta_n = {sb.theta:.12g}, beta_n = {sb.beta:.12g}",
    ]
    for v in sb.vectors:
        lines.append("  u = (" + ", ".join(f"{x:.12g}" for x in v) + f")  |u| = {np.linalg.norm(v):.12g}")
    _emit(args, payload, lines)
    return 0


def cmd_limit_seq(args) -> int:
    import numpy as np

    from .lattices import InvalidLatticeError, Lattice, check_schedule, scaling_limit

    if args.lattice:
        L = Lattice.from_rows(_parse_matrix(args.lattice))
    else:
        grp = _load_group(args.catalog, args.group)
        if grp.generators:
            raise FlatOrbError("limit-seq expects a lattice (a group with no nontrivial generators)")
        try:
            R = np.linalg.cholesky([[float(x) for x in row] for row in grp.gram])
        except (OverflowError, np.linalg.LinAlgError):
            raise OutOfRangeError("the Gram form lies outside the double range") from None
        L = Lattice(R.T)
    try:
        schedule = [float(x) for x in _parse_vector(args.schedule)]
    except ValueError:
        raise InvalidLatticeError(f"schedule {args.schedule!r} is not a list of numbers") from None
    check_schedule(schedule)  # validated only: the limit is taken directly
    directions = np.array(
        [[float(x) for x in v] for v in _parse_subspace(args.subspace)], dtype=float
    ).T
    lim = scaling_limit(L, directions)
    payload = {
        "limit_dim": lim.limit_dim,
        "circumferences": list(lim.circumferences),
        "vanishing_directions": lim.vanishing_directions.T.tolist(),
    }
    lines = [
        f"limit dimension: {lim.limit_dim}",
        "circumferences: " + ", ".join(f"{c:.9g}" for c in lim.circumferences),
    ]
    _emit(args, payload, lines)
    return 0


def cmd_resolve(args) -> int:
    orb = _load_side(args.orbifold)
    mfd = _load_side(args.manifold)
    prod = product_resolution(orb, mfd)
    payload = {
        "dimension": prod.n,
        "holonomy_order": prod.holonomy().order,
        "torsion_free": prod.is_torsion_free().torsion_free,
        "group": group_to_dict(prod),
    }
    lines = [
        f"resolved: dim {prod.n}, holonomy order {prod.holonomy().order}, torsion-free",
        "collapsing the partner block recovers the input quotient",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_verify_theorem_c(args) -> int:
    rep = verify_theorem_c()
    payload = {
        "labels": sorted(rep.label_set),
        "claimed": sorted(rep.claimed_set),
        "missing_vs_claim": sorted(rep.missing),
        "extra_vs_claim": sorted(rep.extra),
        "collapses": [list(r) for r in rep.collapses],
    }
    lines = [f"PASS: collapse survey produced {len(rep.label_set)} limit labels"]
    for lbl in sorted(rep.label_set):
        lines.append(f"  {lbl}")
    if not rep.matches_claim:
        lines.append("note: two labels differ from the classical table:")
        for lbl in sorted(rep.extra):
            lines.append(f"  computed {lbl} (rotation quotients are boundaryless)")
        for lbl in sorted(rep.missing):
            lines.append(f"  table lists {lbl} instead")
    _emit(args, payload, lines)
    return 0


def cmd_catalog(args) -> int:
    if args.key:
        entry = catalog_get(args.key)
        payload = {
            "key": entry.key,
            "aliases": list(entry.aliases),
            "expected": entry.expected,
            "provenance": entry.provenance,
            "notes": list(entry.notes),
            "group": group_to_dict(entry.group),
        }
        lines = [f"{entry.key} (dim {entry.group.n})"]
        for k in sorted(entry.expected):
            lines.append(f"  {k}: {entry.expected[k]}")
        for note in entry.notes:
            lines.append(f"  note: {note}")
    else:
        keys = catalog_list()
        payload = {"keys": keys}
        lines = keys
    _emit(args, payload, lines)
    return 0


def cmd_render_svg(args) -> int:
    grp = _load_group(args.catalog, args.group)
    render_svg(grp, args.out)
    _emit(args, {"svg": args.out}, [f"wrote {args.out}"])
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatorb",
        description="crystallographic groups, flat orbifolds, and their collapsed limits",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_group_args(p):
        p.add_argument("--group", help="path to a group JSON file")
        p.add_argument("--catalog", help="built-in catalog key")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("analyze", help="holonomy, torsion, volume, Betti numbers, deformations")
    add_group_args(p)

    p = sub.add_parser("teich", help="deformation-space factors and dimension")
    add_group_args(p)

    p = sub.add_parser("collapse", help="collapse an invariant rational subspace")
    add_group_args(p)
    p.add_argument("--subspace", required=True, help='e.g. "1,0,0" or "1,0,0;0,1,0"')

    p = sub.add_parser("classify2", help="identify a plane crystallographic group")
    add_group_args(p)
    p.add_argument("--svg", help="also render the cell to this path")

    p = sub.add_parser("reduce-lattice", help="special basis of a lattice")
    p.add_argument("matrix", help='basis rows, e.g. "1,0;0.5,0.5"')
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("limit-seq", help="limit of a collapsing lattice family")
    add_group_args(p)
    p.add_argument("--lattice", help='basis rows, e.g. "1,0;0,1"')
    p.add_argument("--subspace", required=True, help="directions to shrink")
    p.add_argument("--schedule", required=True, help='e.g. "1,0.5,0.1,0.01,0.001"')

    p = sub.add_parser("resolve", help="resolve an orbifold against a flat manifold")
    p.add_argument("--orbifold", required=True, help="group file or catalog:KEY")
    p.add_argument("--manifold", required=True, help="group file or catalog:KEY")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify-theorem-c", help="survey collapsed limits of the flat 3-manifolds")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("catalog", help="list catalog keys or show one entry")
    p.add_argument("key", nargs="?", help="catalog key")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("render-svg", help="draw a cell with its singular locus")
    add_group_args(p)
    p.add_argument("--out", required=True, help="output SVG path")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so a wrapper set on cmd_<verb> is the one called
    command = globals()["cmd_" + args.verb.replace("-", "_")]
    try:
        code = command(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except FlatOrbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
