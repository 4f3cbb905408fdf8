"""Built-in catalog of crystallographic groups.

Groups are shipped as JSON documents under ``flatorb/data`` with an index
manifest; each entry carries expected invariants (holonomy order,
torsion-freeness, deformation-space dimension, classification, collapse
labels) that the test suite re-checks, plus per-field provenance notes
("reference presentation" for transcribed generator sets, "computed" for
values this library derives and cross-checks).  Entries whose stored
verification recipes (matrix order, characteristic polynomial) fail to
re-check refuse to load.
"""

from __future__ import annotations

import copy
import functools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import rational as ra
from .groups import CrystalGroup, FlatOrbError, group_from_dict

DATA_DIR = Path(__file__).parent / "data"


class UnknownCatalogKeyError(FlatOrbError):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    """A loaded catalog group with its index metadata.

    ``expected`` and ``provenance`` are deep copies of the index's dicts,
    made on first read, so a caller that reads only ``group`` copies nothing.
    """

    key: str
    group: CrystalGroup
    notes: tuple[str, ...] = field(default=())
    aliases: tuple[str, ...] = field(default=())

    @functools.cached_property
    def expected(self) -> dict:
        return copy.deepcopy(_index()["entries"][self.key].get("expected", {}))

    @functools.cached_property
    def provenance(self) -> dict:
        return copy.deepcopy(_index()["entries"][self.key].get("provenance", {}))


@functools.cache
def _index() -> dict:
    # parsed once per process; a CatalogEntry copies the metadata it hands out
    with open(DATA_DIR / "index.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def catalog_list() -> list[str]:
    return sorted(_index()["entries"].keys())


def _resolve(idx: dict, key: str) -> str:
    if key in idx["entries"]:
        return key
    aliases = idx.get("aliases", {})
    if key in aliases:
        return aliases[key]
    raise UnknownCatalogKeyError(f"unknown catalog key: {key!r}")


def _run_recipe(group: CrystalGroup, recipe: dict) -> None:
    for gen_idx, checks in recipe.items():
        M = group.generators[int(gen_idx)].linear
        if "order" in checks:
            if ra.matrix_order(M, cap=64) != checks["order"]:
                raise FlatOrbError("catalog verification recipe failed: wrong order")
        if "char_poly" in checks:
            if ra.char_poly(M) != checks["char_poly"]:
                raise FlatOrbError("catalog verification recipe failed: wrong characteristic polynomial")


def catalog_get(key: str) -> CatalogEntry:
    idx = _index()
    canonical = _resolve(idx, key)
    meta = idx["entries"][canonical]
    with open(DATA_DIR / meta["file"], "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    raw = group_from_dict(doc)
    group = raw.normalize()
    if meta.get("recipe"):
        _run_recipe(raw, meta["recipe"])
    group.name = canonical
    return CatalogEntry(
        key=canonical,
        group=group,
        notes=tuple(meta.get("notes", [])),
        aliases=tuple(meta.get("aliases", [])),
    )


def three_manifold_groups() -> list[CrystalGroup]:
    keys = ["G1", "G2", "G3", "G4", "G5", "G6", "B1", "B2", "B3", "B4"]
    return [catalog_get(k).group for k in keys]


def torus(n: int, gram=None) -> CrystalGroup:
    return CrystalGroup.make(n, [], gram=gram, name=f"torus-{n}").normalize()


def generalized_klein_bottle(p: int) -> CrystalGroup:
    """Dimension-p flat manifold with cyclic holonomy of prime order p.

    The holonomy generator is the cyclic coordinate shift, whose
    characteristic polynomial is x^p - 1; the translation part is e_1 / p.
    """
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    shift = [[1 if i == (j + 1) % p else 0 for j in range(p)] for i in range(p)]
    v = [Fraction(1, p)] + [Fraction(0)] * (p - 1)
    return CrystalGroup.make(p, [(shift, v)], name=f"K{p}").normalize()
