import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flatorb import groups
from flatorb.cli import build_parser, main
from flatorb.groups import dump_group
from flatorb.catalog import catalog_get


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_teich_g3(capsys):
    code, out, _ = run(capsys, "teich", "--catalog", "G3")
    assert code == 0
    assert out.strip() == "components: (m=1,R,d=1),(m=1,C,d=1); dim 2"


def test_teich_json_roundtrip_and_determinism(capsys):
    code, out1, _ = run(capsys, "teich", "--catalog", "G6", "--json")
    assert code == 0
    doc = json.loads(out1)
    assert doc["dim"] == 3
    code, out2, _ = run(capsys, "teich", "--catalog", "G6", "--json")
    assert out1 == out2


def test_analyze(capsys):
    code, out, _ = run(capsys, "analyze", "--catalog", "G6")
    assert code == 0
    assert "holonomy order: 4" in out
    assert "torsion-free: yes" in out
    assert "b1=0" in out


@pytest.mark.parametrize("scale", ["1e200", "1e-200"])
def test_analyze_volume_at_extreme_scales(tmp_path, capsys, scale):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"dimension": 2, "gram": [[scale, 0], [0, scale]], "generators": []}))
    code, out, err = run(capsys, "analyze", "--group", str(path), "--json")
    assert code == 0, err
    assert json.loads(out)["volume"] == pytest.approx(float(scale), rel=1e-15, abs=0)


def test_volume_beyond_the_double_range_is_a_domain_error(tmp_path, capsys):
    # every entry is a double, but sqrt(det G) = 1e450 is not
    path = tmp_path / "torus.json"
    gram = [["1e300" if i == j else 0 for j in range(3)] for i in range(3)]
    path.write_text(json.dumps({"dimension": 3, "gram": gram, "generators": []}))
    code, _, err = run(capsys, "analyze", "--group", str(path))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "double range" in err
    with pytest.raises(groups.OutOfRangeError):
        groups.load_group(path).normalize().volume()


@pytest.mark.parametrize(
    "scale,generators",
    [("1e400", [{"linear": [[-1, 0], [0, -1]], "translation": [0, 0]}]), ("1e-400", [])],
)
def test_analyze_and_teich_with_a_gram_entry_beyond_the_double_range(tmp_path, capsys, scale, generators):
    # the deformation space is exact: no float Gram form is built for it
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"dimension": 2, "gram": [[scale, 0], [0, 1]], "generators": generators}))
    code, _, err = run(capsys, "analyze", "--group", str(path), "--json")
    assert code == 0, err
    code, out, err = run(capsys, "teich", "--group", str(path), "--json")
    assert code == 0, err
    assert json.loads(out)["dim"] == 3


def test_collapse_cli(capsys):
    code, out, _ = run(capsys, "collapse", "--catalog", "G3", "--subspace", "1,0,0")
    assert code == 0
    assert "S2(3,3,3;)" in out


def test_collapse_irrational_subspace(capsys):
    code, out, _ = run(capsys, "collapse", "--catalog", "G2", "--subspace", "0,1.0,1.7320508075688772")
    assert code == 0
    assert "circle" in out


@pytest.mark.parametrize(
    "subspace",
    ["1,0", "", "a,1,0", "0,0,0", "0.0,0,0", "1,0,0;0,0,0", "1e400,0,0", "1e-400,1,0", "1e-400,0,0"],
)
def test_collapse_bad_subspace_is_a_domain_error(capsys, subspace):
    code, _, err = run(capsys, "collapse", "--catalog", "G6", "--subspace", subspace)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("subspace, limit", [("1e-400,1,0", "limit is a point"), ("1e-400,0,0", "S2(3,3,3;)")])
def test_collapse_refuses_a_nonzero_decimal_that_rounds_to_zero(capsys, subspace, limit):
    # read as 0.0, the first entry would drop out of the direction
    code, _, err = run(capsys, "collapse", "--catalog", "G3", "--subspace", subspace)
    assert code == 1
    assert err == "error: subspace entry '1e-400' is nonzero but rounds to 0.0; give it as p/q\n"
    exact = subspace.replace("1e-400", "1/1" + "0" * 400)
    code, out, _ = run(capsys, "collapse", "--catalog", "G3", "--subspace", exact)
    assert code == 0 and limit in out
    code, out, _ = run(capsys, "collapse", "--catalog", "G3", "--subspace", "0e-400,1,0")
    assert code == 0 and "circle" in out


LIMIT = ["limit-seq", "--lattice", "1,0;0,1", "--subspace", "0,1", "--schedule"]


@pytest.mark.parametrize(
    "argv",
    [
        LIMIT + ["a,1"],
        ["limit-seq", "--lattice", "1,0;0,x", "--subspace", "0,1", "--schedule", "1,0.5,0.1"],
        LIMIT + ["1,0.5"],
        LIMIT + ["0.1,0.5,1"],
        ["reduce-lattice", "abc"],
        ["reduce-lattice", "1,0;1,0"],
        ["reduce-lattice", "1,0,0;0,1"],
        ["reduce-lattice", "1,0;0,nan"],
        ["reduce-lattice", "1,0;0,inf"],
        ["reduce-lattice", "1,0;0,1e300"],
        ["limit-seq", "--lattice", "1,0;0,1", "--subspace", "0,1,0", "--schedule", "1,0.5,0.1"],
        ["reduce-lattice", "1e-200,0;0,1"],
    ],
)
def test_bad_lattice_input_is_a_domain_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


BAD_GROUP_FILES = {
    "zero-denominator": '{"dimension": 2, "generators": [{"linear": [[1, 0], [0, -1]], "translation": ["1/0", "0"]}]}',
    "missing-translation": '{"dimension": 2, "generators": [{"linear": [[1, 0], [0, -1]]}]}',
    "malformed-json": '{"dimension": 2, "generators": [',
    "non-numeric-entry": '{"dimension": 2, "generators": [{"linear": [["x", 0], [0, -1]], "translation": [0, 0]}]}',
    "indefinite-gram": '{"dimension": 2, "gram": [[1, 0], [0, -1]], "generators": []}',
    "wrong-dimension": '{"dimension": 2, "generators": [{"linear": [[1, 0, 0], [0, -1, 0], [0, 0, 1]], "translation": ["1/2", 0, 0]}]}',
    "shear-on-hexagonal-gram": '{"dimension": 2, "gram": [[1, "1/2"], ["1/2", 1]], "generators": [{"linear": [[1, 1], [0, 1]], "translation": [0, 0]}]}',
    "boolean-dimension": '{"dimension": true, "generators": []}',
    "ragged-gram-row": '{"dimension": 2, "gram": [[1, 0], [0]], "generators": []}',
    "non-numeric-gram-entry": '{"dimension": 2, "gram": [[1, "x"], ["x", 1]], "generators": []}',
    "zero-denominator-gram-entry": '{"dimension": 2, "gram": [[1, "1/0"], ["1/0", 1]], "generators": []}',
    "gram-not-a-list": '{"dimension": 2, "gram": 1, "generators": []}',
}


@pytest.mark.parametrize("name", sorted(BAD_GROUP_FILES))
def test_bad_group_file_is_a_domain_error(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    path.write_text(BAD_GROUP_FILES[name])
    code, _, err = run(capsys, "analyze", "--group", str(path))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    with pytest.raises(groups.InvalidGroupError):
        groups.load_group(path).normalize()


def test_group_path_that_is_a_directory_is_a_domain_error(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", "--group", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


def test_classify2_cli(capsys):
    code, out, _ = run(capsys, "classify2", "--catalog", "p4g")
    assert code == 0
    assert "p4g" in out and "D2(4;2)" in out


def test_reduce_lattice(capsys):
    code, out, _ = run(capsys, "reduce-lattice", "1,0;0.9,0.1")
    assert code == 0
    assert "R0" in out
    doc_code, json_out, _ = run(capsys, "reduce-lattice", "1,0;0.9,0.1", "--json")
    doc = json.loads(json_out)
    # the lattice contains (-0.1, 0.1) and (0.5, 0.5): an orthogonal basis
    assert doc["R0"] == pytest.approx(2 ** 0.5 / 2, abs=1e-9)


def test_reduce_lattice_at_a_collapse_scale(capsys):
    code, json_out, _ = run(capsys, "reduce-lattice", "1e-7,0;0,1e-6", "--json")
    assert code == 0
    assert json.loads(json_out)["norms"] == pytest.approx([1e-6, 1e-7], rel=1e-12)


def test_reduce_lattice_past_the_enumeration_cap_says_what_it_counted(capsys):
    # the second coordinate of the LLL ball of diag(1, 1e-9) ranges over about 2e9 integers
    code, out, err = run(capsys, "reduce-lattice", "1,0;0,1e-9")
    assert code == 1 and out == ""
    counted = "a coordinate range 2e+09 integers wide passes ENUM_CAP = 1000000"
    assert err == f"error: short-vector enumeration cap exceeded: {counted}\n"


def test_limit_seq(capsys):
    code, out, _ = run(
        capsys,
        "limit-seq",
        "--lattice", "1,0;0,1",
        "--subspace", "0,1",
        "--schedule", "1,0.5,0.1,0.01,0.001",
    )
    assert code == 0
    assert "limit dimension: 1" in out


def test_collapse_float_subspace(capsys):
    code, out, _ = run(capsys, "collapse", "--catalog", "kummer", "--subspace", "1.0,1.4142135623730951,0,0")
    assert code == 0
    assert out.startswith("limit: S2(2,2,2,2;)\n")


# rows of a rotation of the unit cube
_R = np.array([[math.cos(0.3), -math.sin(0.3), 0.0], [math.sin(0.3), math.cos(0.3), 0.0], [0.0, 0.0, 1.0]]) @ np.array(
    [[1.0, 0.0, 0.0], [0.0, math.cos(0.7), -math.sin(0.7)], [0.0, math.sin(0.7), math.cos(0.7)]]
)
ROTATED_CUBE = ";".join(",".join(repr(float(x)) for x in row) for row in _R.T)


@pytest.mark.parametrize(
    "source,subspace,circumferences",
    [
        (["--lattice", "1,0;0.5," + repr(math.sqrt(3) / 2)], "0,1", [0.5]),
        (["--lattice", "1,0,0;0,1,0;0,0,1"], "0,1,0;0,0,1", [1.0]),
        (["--lattice", ROTATED_CUBE], ",".join(repr(float(x)) for x in _R[:, 0]), [1.0, 1.0]),
        (["--catalog", "torus-3"], "1," + repr(math.sqrt(2)) + ",0", [1.0]),
    ],
)
def test_limit_seq_takes_the_limit_directly(capsys, source, subspace, circumferences):
    argv = ["limit-seq", *source, "--subspace", subspace, "--schedule", "1,0.1,0.01,0.001,0.0001", "--json"]
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["limit_dim"] == len(circumferences)
    assert sorted(doc["circumferences"]) == pytest.approx(circumferences, abs=1e-9)


def test_verify_theorem_c_cli(capsys):
    code, out, _ = run(capsys, "verify-theorem-c")
    assert code == 0
    assert "PASS" in out
    assert "13" in out


def test_catalog_listing_and_entry(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "G6" in out.split()
    code, out, _ = run(capsys, "catalog", "G6")
    assert code == 0
    assert "teich_dim: 3" in out


def test_render_svg_cli(tmp_path, capsys):
    out_path = tmp_path / "p2.svg"
    code, out, _ = run(capsys, "render-svg", "--catalog", "p2", "--out", str(out_path))
    assert code == 0
    assert out_path.exists()


@pytest.mark.parametrize("gram", [[["1e400", 0], [0, 1]], [["1e-400", 0], [0, 1]], [[1, 1], [1, "1.00000000000000000001"]]])
def test_render_svg_of_a_gram_beyond_the_double_range_is_a_domain_error(tmp_path, monkeypatch, capsys, gram):
    # the last form is positive definite, but not once rounded to doubles
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "p1.json"
    path.write_text(json.dumps({"dimension": 2, "gram": gram, "generators": []}))
    code, _, err = run(capsys, "render-svg", "--group", str(path), "--out", "p1.svg")
    assert code == 1
    assert err == "error: the Gram form lies outside the double range\n"
    assert not (tmp_path / "p1.svg").exists()


@pytest.mark.parametrize("scale", ["1e400", "1e-400"])
def test_limit_seq_of_a_gram_beyond_the_double_range_is_a_domain_error(tmp_path, capsys, scale):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"dimension": 2, "gram": [[scale, 0], [0, 1]], "generators": []}))
    code, _, err = run(capsys, "limit-seq", "--group", str(path), "--subspace", "1,0", "--schedule", "1,0.5,0.1")
    assert code == 1
    assert err == "error: the Gram form lies outside the double range\n"


@pytest.mark.parametrize("verb", [["classify2"], ["render-svg", "--out", "G1.svg"]])
def test_plane_verbs_on_a_3d_group_are_a_domain_error(tmp_path, monkeypatch, capsys, verb):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *verb, "--catalog", "G1")
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "2-dimensional" in err
    assert not (tmp_path / "G1.svg").exists()


def test_resolve_cli(tmp_path, capsys):
    orb = tmp_path / "orb.json"
    dump_group(catalog_get("p2").group, orb)
    code, out, _ = run(capsys, "resolve", "--orbifold", str(orb), "--manifold", "catalog:pg")
    assert code == 0
    assert "dim 4" in out


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "catalog", "nope")
    assert code == 1
    assert "error" in err


def test_group_file_loading(tmp_path, capsys):
    path = tmp_path / "kb.json"
    path.write_text(
        json.dumps(
            {
                "dimension": 2,
                "generators": [
                    {"linear": [[1, 0], [0, -1]], "translation": ["1/2", "0"]}
                ],
            }
        )
    )
    code, out, _ = run(capsys, "classify2", "--group", str(path))
    assert code == 0
    assert "pg" in out


def test_classify2_skewed_pm_group_file(tmp_path, capsys):
    # pm in the lattice basis [[-2, -7], [-1, -3]] with its origin moved
    path = tmp_path / "pm-skewed.json"
    path.write_text(
        json.dumps(
            {
                "dimension": 2,
                "gram": [[5, 17], [17, 58]],
                "generators": [
                    {"linear": [[-13, -42], [4, 13]], "translation": ["1/3", "1/3"]}
                ],
            }
        )
    )
    code, out, _ = run(capsys, "classify2", "--group", str(path))
    assert code == 0
    assert out.split()[0] == "pm"


def test_point_group_cap_is_a_domain_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "signed-perms.json"
    path.write_text(
        json.dumps(
            {
                "dimension": 4,
                "generators": [
                    {"linear": M, "translation": [0, 0, 0, 0]}
                    for M in (
                        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                        [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
                        [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                    )
                ],
            }
        )
    )
    monkeypatch.setattr(groups, "POINT_GROUP_CAP", 100)
    code, _, err = run(capsys, "analyze", "--group", str(path))
    assert code == 1
    assert err == "error: point group has more than 100 elements\n"


def test_closed_stdout_pipe_is_not_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "flatorb.cli", "teich", "--catalog", "G3", "--json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["collapse", "--catalog", "G3"])  # missing --subspace
    assert exc.value.code == 2


@pytest.mark.parametrize("key", ["--help", "no-such-group"])
def test_collapse_flow_script_reports_an_unknown_key_on_one_line(key):
    script = Path(__file__).resolve().parents[1] / "scripts" / "collapse_flow.py"
    proc = subprocess.run(
        [sys.executable, str(script), key], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: unknown catalog key: {key!r}\n"


@pytest.mark.parametrize(
    "script,args",
    [("collapse_flow.py", ["G2"]), ("run_theorem_c.py", []), ("render_wallpaper_gallery.py", None)],
)
def test_script_into_a_closed_pipe_is_not_a_traceback(script, args, tmp_path):
    path = Path(__file__).resolve().parents[1] / "scripts" / script
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, str(path)] + (args if args is not None else [str(tmp_path)]),
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_parser_is_built_once_and_reused(capsys):
    assert build_parser() is build_parser()
    first = run(capsys, "analyze", "--catalog", "G3", "--json")
    assert run(capsys, "collapse", "--catalog", "G3", "--subspace", "1,0,0")[0] == 0
    second = run(capsys, "analyze", "--catalog", "G3", "--json")
    assert first[0] == 0 and first == second
