import copy
import importlib.util
import sys
from pathlib import Path

import pytest

from flatorb import catalog, cli
from flatorb import rational as ra
from flatorb.catalog import (
    UnknownCatalogKeyError,
    catalog_get,
    catalog_list,
    generalized_klein_bottle,
    three_manifold_groups,
    torus,
)
from flatorb.collapse import collapse, rational_isotypic_components
from flatorb.groups import FlatOrbError
from flatorb.reps import teich_report
from flatorb.wallpaper import classify2

import reference_algebra as ref


def test_catalog_has_required_entries():
    keys = set(catalog_list())
    for w in ("p1 pg pm cm p2 pgg pmg pmm cmm p4 p4g p4m p3 p3m1 p31m p6 p6m").split():
        assert w in keys
    for g in ("G1 G2 G3 G4 G5 G6 B1 B2 B3 B4").split():
        assert g in keys
    for a in (f"plane-G{i}" for i in range(1, 8)):
        assert a in keys
    assert {"kummer", "joyce-O1", "joyce-O2", "K2", "K3", "K5", "K7"} <= keys
    assert {f"torus-{n}" for n in range(1, 7)} <= keys


def test_aliases_resolve():
    assert catalog_get("G6-hantzsche-wendt").key == "G6"
    assert catalog_get("torus-2").key == "torus-2"
    assert catalog_get("G3-tricosm").key == "G3"


def test_unknown_key():
    with pytest.raises(UnknownCatalogKeyError):
        catalog_get("no-such-group")


@pytest.mark.parametrize(
    "check,message",
    [({"order": 4}, "wrong order"), ({"char_poly": [1, 0, 0, 0, 0, 1]}, "wrong characteristic polynomial")],
)
def test_failed_recipe_refuses_to_load(monkeypatch, check, message):
    # the parsed index is shared by the process; edit a copy
    idx = copy.deepcopy(catalog._index())
    assert idx["entries"]["K5"]["recipe"] == {"0": {"char_poly": [-1, 0, 0, 0, 0, 1], "order": 5}}
    idx["entries"]["K5"]["recipe"] = {"0": check}
    monkeypatch.setattr(catalog, "_index", lambda: idx)
    with pytest.raises(FlatOrbError, match=f"^catalog verification recipe failed: {message}$"):
        catalog_get("K5")


def test_entries_share_no_mutable_dict_with_the_index():
    entry = catalog_get("G3")
    entry.expected["collapse"]["W1"] = "changed"
    entry.expected["holonomy_order"] = 0
    entry.provenance.clear()
    again = catalog_get("G3")
    assert again.expected["collapse"]["W1"] == "S2(3,3,3;)"
    assert again.expected["holonomy_order"] == 3
    assert again.provenance == {"expected": "computed", "generators": "reference presentation"}


def test_group_only_callers_copy_no_metadata(monkeypatch, capsys):
    def no_copy(*args, **kwargs):
        raise AssertionError("catalog metadata copied")

    monkeypatch.setattr(catalog.copy, "deepcopy", no_copy)
    assert cli.main(["collapse", "--catalog", "G3", "--subspace", "0,1,0", "--json"]) == 0
    assert catalog_get("K7").group.holonomy().order == 7
    with pytest.raises(AssertionError, match="^catalog metadata copied$"):
        cli.main(["catalog", "G3", "--json"])  # reads expected and provenance
    capsys.readouterr()


@pytest.mark.parametrize("key", sorted(catalog_list()))
def test_every_expected_assertion(key):
    """Deep-validate each entry and re-check every stored expectation."""
    entry = catalog_get(key)
    grp = entry.group
    grp.validate()
    exp = entry.expected
    assert grp.n == exp["dimension"], (key, "dimension")
    hol = grp.holonomy()
    assert hol.order == exp["holonomy_order"], (key, "holonomy_order")
    assert hol.cocycle_defects() == [], (key, "cocycle")
    assert grp.is_torsion_free().torsion_free == exp["torsion_free"], (key, "torsion")
    rep = teich_report(grp)
    assert rep.total_dim == exp["teich_dim"], (key, "teich_dim")
    assert rep.total_dim == rep.invariant_form_dim, (key, "double computation")
    sig = sorted((c.irreducible_dim, c.multiplicity, c.division_type, c.factor_dim) for c in rep.components)
    assert sig == sorted(tuple(c) for c in exp["components"]), (key, "components")
    if "classification" in exp:
        label = classify2(grp)
        assert label.iuc == exp["classification"], (key, "classification")
        assert label.orbifold_name == exp["orbifold"], (key, "orbifold")
    if "collapse" in exp:
        comps = rational_isotypic_components(grp)
        for idx, piece in enumerate(comps, start=1):
            got = collapse(grp, piece).label.orbifold_name
            assert got == exp["collapse"][f"W{idx}"], (key, f"collapse W{idx}")
    if "betti1" in exp:
        assert grp.betti(1) == exp["betti1"], (key, "betti1")


def test_holonomy_isomorphism_types_of_three_manifolds():
    expected = {
        "G1": 1, "G2": 2, "G3": 3, "G4": 4, "G5": 6,
        "G6": 4, "B1": 2, "B2": 2, "B3": 4, "B4": 4,
    }
    for key, order in expected.items():
        grp = catalog_get(key).group
        assert grp.holonomy().order == order
        assert grp.is_torsion_free().torsion_free


def test_b2_gram_projection_constraint():
    entry = catalog_get("B2")
    G = ref.mat(entry.group.gram)
    # g13 = (g11 + g12) / 2 and g23 = (g12 + g22) / 2
    assert G[0][2] == (G[0][0] + G[0][1]) / 2
    assert G[1][2] == (G[0][1] + G[1][1]) / 2
    # equivalently: the third basis vector projects onto the midpoint of the
    # first two in the plane they span; the G-orthogonal projection c1 e1 +
    # c2 e2 solves the normal equations G[:2, :2] c = G[:2, 2]
    c = ref.solve([G[0][:2], G[1][:2]], [G[0][2], G[1][2]])
    proj = c + [0]
    assert proj == ra.vec(["1/2", "1/2", 0])


def test_torus_constructor():
    t4 = torus(4)
    assert teich_report(t4).total_dim == 10


def test_generalized_klein_bottles():
    for p, dim_expected in ((2, 2), (3, 2), (5, 3), (7, 4)):
        grp = generalized_klein_bottle(p)
        assert grp.n == p
        assert grp.holonomy().order == p
        assert grp.is_torsion_free().torsion_free
        assert teich_report(grp).total_dim == dim_expected


def test_k3_expected_values():
    entry = catalog_get("K3")
    assert entry.expected["teich_dim"] == 2
    assert entry.expected["holonomy_order"] == 3


def test_three_manifold_groups_helper():
    groups = three_manifold_groups()
    assert len(groups) == 10
    assert all(g.is_torsion_free().torsion_free for g in groups)


def test_discrepancy_notes_present():
    # entries where the computed label disagrees with the classical table
    # carry an explanatory note
    for key in ("G2", "G4", "G5", "B4", "plane-G7"):
        entry = catalog_get(key)
        assert any("differ" in n for n in entry.notes), key


def test_kummer_and_joyce():
    assert catalog_get("kummer").expected["teich_dim"] == 10
    assert catalog_get("joyce-O1").expected["teich_dim"] == 7
    assert catalog_get("joyce-O2").expected["teich_dim"] == 9


def test_volume_examples():
    assert catalog_get("torus-2").group.volume() == pytest.approx(1.0)
    assert catalog_get("p4m").group.volume() == pytest.approx(1 / 8)
    kb = catalog_get("pg").group
    assert kb.volume() == pytest.approx(1 / 2)


def test_all_holonomy_elements_preserve_gram_and_lattice():
    for key in catalog_list():
        grp = catalog_get(key).group
        G = ref.mat(grp.gram)
        for A in grp.holonomy().elements:
            M = ref.mat(A)
            assert abs(ref.det(M)) == 1, key  # A Z^n = Z^n
            assert ra.mat_mul(ref.transpose(M), ra.mat_mul(G, M)) == G, key


def test_build_catalog_script_reproduces_the_shipped_data(tmp_path, monkeypatch):
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("build_catalog", root / "scripts" / "build_catalog.py")
    script = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src/ first
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "DATA", tmp_path)
    script.main()
    shipped = root / "src" / "flatorb" / "data"
    names = sorted(p.name for p in shipped.iterdir())
    assert len(names) == 50
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name
