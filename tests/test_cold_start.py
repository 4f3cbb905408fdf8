"""numpy is loaded only by the verbs that reach the lattice layer or a float subspace."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import flatorb

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE = """
import contextlib, io, sys
import flatorb.cli
argv = sys.argv[1:]
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = flatorb.cli.main(argv)
    assert code == 0, code
print("numpy" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv,loads_numpy",
    [
        ([], False),
        (["catalog"], False),
        (["catalog", "G3"], False),
        (["classify2", "--catalog", "p4m"], False),
        (["collapse", "--catalog", "G3", "--subspace", "1,0,0"], False),
        (["resolve", "--orbifold", "catalog:p2", "--manifold", "catalog:pg"], False),
        (["render-svg", "--catalog", "p4m", "--out", "p4m.svg"], False),
        (["teich", "--catalog", "G3"], False),
        # the lattice layer and the rational span of a float subspace do need it
        (["reduce-lattice", "1,0;0.5,0.5"], True),
        (["collapse", "--catalog", "G2", "--subspace", "0,1.0,1.7320508075688772"], True),
        # the class tables are built in Python integers
        (["analyze", "--catalog", "K7"], False),
        (["verify-theorem-c"], False),
    ],
)
def test_numpy_is_loaded_only_where_needed(tmp_path, argv, loads_numpy):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(loads_numpy)


def test_every_exported_name_resolves():
    for name in flatorb.__all__:
        assert getattr(flatorb, name) is not None
    namespace: dict = {}
    exec("from flatorb import *", namespace)
    assert set(flatorb.__all__) <= set(namespace)
    assert namespace["special_basis"] is flatorb.lattices.special_basis
    assert not hasattr(flatorb, "no_such_name")
