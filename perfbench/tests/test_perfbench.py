"""Tests of the benchmark itself: op lists, checkers, statistics and tracer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from stats import percentile  # noqa: E402
from workloads import WORKLOADS, build_ops, covering_radius_2d, load_golden  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_ops_and_other_seed_other_ops(workload):
    a = json.dumps(build_ops(workload, 7))
    assert a == json.dumps(build_ops(workload, 7))
    assert a != json.dumps(build_ops(workload, 8))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_op_ids_are_unique_and_passes_have_at_least_100_ops(workload):
    ids = [op["id"] for op in build_ops(workload, 3)]
    assert len(ids) == len(set(ids))
    assert len(ids) >= 100


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        build_ops("no-such-workload", 1)


@pytest.mark.parametrize("workload,op_id", [
    ("catalog-verbs", "analyze:K7"),
    ("catalog-verbs", "classify2:p4g"),
    ("collapse-survey", "collapse:G6:W1"),
    ("collapse-survey", "verify-theorem-c"),
])
def test_golden_checker_flags_a_perturbed_output(workload, op_id):
    golden = load_golden(workload)
    op = {"id": op_id, "check": {"type": "golden", "key": op_id}}
    output = copy.deepcopy(golden["ops"][op_id]["output"])
    assert checks.check_output(op, output, golden) is None
    key = sorted(output)[0]
    perturbed = copy.deepcopy(output)
    perturbed[key] = _perturb(perturbed[key])
    assert checks.check_output(op, perturbed, golden) is not None
    del perturbed[key]
    assert checks.check_output(op, perturbed, golden) is not None


def _perturb(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, list):
        return value[:-1] if value else [0]
    return {}


def test_closed_form_checkers_flag_wrong_answers():
    limit = {"check": {"type": "limit", "dim": 1, "circumferences": [0.5]}}
    assert checks.check_output(limit, {"limit_dim": 1, "circumferences": [0.5]}, None) is None
    assert checks.check_output(limit, {"limit_dim": 1, "circumferences": [0.51]}, None) is not None
    assert checks.check_output(limit, {"limit_dim": 2, "circumferences": [0.5, 1]}, None) is not None
    cover = {"eps": 1e-3, "check": {"type": "covering", "mu": 0.5}}
    assert checks.check_output(cover, (0.4999, 0.5001), None) is None
    assert checks.check_output(cover, (0.51, 0.5105), None) is not None
    assert checks.check_output(cover, (0.4, 0.6), None) is not None
    dims = {"check": {"type": "collapse-dims", "n": 3, "min_collapsed": 2}}
    assert checks.check_output(dims, {"quotient_dimension": 1, "collapsed_dimension": 2}, None) is None
    assert checks.check_output(dims, {"quotient_dimension": 2, "collapsed_dimension": 2}, None) is not None


def test_closed_forms_of_covering_radius_and_special_basis():
    assert covering_radius_2d([[1, 0], [0, 1]]) == pytest.approx(math.sqrt(2) / 2)
    assert covering_radius_2d([[1, 0], [0.5, math.sqrt(3) / 2]]) == pytest.approx(1 / math.sqrt(3))
    # same lattice, skewed basis
    assert covering_radius_2d([[1, 0], [7.5, math.sqrt(3) / 2]]) == pytest.approx(1 / math.sqrt(3))
    r0, norms = checks.oracle_special_2d([[1, 0], [3, 1]])
    assert r0 == pytest.approx(1.0) and norms == pytest.approx((1.0, 1.0))


def test_percentile_matches_linear_interpolation():
    xs = list(range(1, 11))
    assert percentile(xs, 50) == 5.5
    assert percentile(xs, 90) == pytest.approx(9.1)
    assert percentile(xs, 0) == 1 and percentile(xs, 100) == 10
    assert percentile([3.0], 90) == 3.0
    assert percentile([10, 0, 5], 90) == pytest.approx(9.0)
    np = pytest.importorskip("numpy")
    data = [0.3, 9.1, 4.4, 4.4, 7.0, 1.5, 2.25]
    for q in (10, 50, 90, 99):
        assert percentile(data, q) == pytest.approx(float(np.percentile(data, q)))


def test_summary_scales_each_pass_and_takes_fastest_repeats():
    ref = worker.REFERENCE_KERNEL_S
    walls = [3.1, 2.5, 2.3]
    latencies = [[1.0, 2.0, 0.1], [0.5, 3.0, 0.2], [2.0, 2.0, 0.3]]
    # the machine ran at half speed in pass 0, full speed in passes 1 and 2
    kernel = [[ref * 3, ref * 2], [ref, ref * 4], [ref * 1.5, ref]]
    got = worker.summary(walls, latencies, [], kernel)
    assert got["speed_scales"] == pytest.approx([0.5, 1.0, 1.0])
    # scaled repeats per op: (0.5, 0.5, 2.0), (1.0, 3.0, 2.0), (0.05, 0.2, 0.3) s
    assert got["batch_s"] == pytest.approx(0.5 + 1.0 + 0.05)
    assert got["batch_s_raw"] == pytest.approx(0.5 + 2.0 + 0.1)
    assert got["op_p50_ms"] == pytest.approx(500.0)
    assert got["op_p90_ms"] == pytest.approx(500 + 0.8 * 500)
    assert got["op_samples"] == 3 and got["op_samples_beyond_p90"] == 1
    assert got["attempted"] == 9 and got["failed"] == 0


def test_op_scales_use_the_kernel_runs_around_each_group():
    ref = worker.REFERENCE_KERNEL_S
    # kernel runs before op 0, after op 1, after op 3 and after op 4 (the last)
    kernel = [ref, ref * 2, ref * 4, ref * 0.5]
    assert worker.op_scales(kernel, 5, every=2) == pytest.approx([1.0, 1.0, 0.5, 0.5, 2.0])


def test_self_time_subtracts_child_spans():
    # (name, start, end, parent, op); names double as layers here
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("a", 2.0, 3.0, 1, 0),
        ("c", 5.0, 9.0, 0, 0),
        ("b", 20.0, 21.5, -1, 1),
    ]
    got = tracer.self_times(spans, lambda s: s[0])
    assert got == pytest.approx({"a": (10 - 3 - 4) + 1, "b": (3 - 1) + 1.5, "c": 4})
    assert sum(got.values()) == pytest.approx(10 + 1.5)


def test_tracer_counts_calls_and_uninstall_restores_every_binding():
    import importlib

    import flatorb

    # the package re-exports a function named collapse, so import modules by path
    catalog, cli, collapse, rational, reps = (
        importlib.import_module(f"flatorb.{m}") for m in ("catalog", "cli", "collapse", "rational", "reps")
    )

    before = (rational.rref, collapse.isotypic_decompose, reps.isotypic_decompose, flatorb.catalog_get, cli.catalog_get)
    assert tracer.installed_wrappers() == 0
    tr = tracer.Tracer()
    assert tr.install() > 0
    try:
        # a name imported by name into another module is wrapped as well
        assert collapse.isotypic_decompose is reps.isotypic_decompose is not before[2]
        catalog.catalog_get("p2")
        rational.rank([[1, 2], [2, 4]])
        metrics = tr.layer_metrics()
    finally:
        tr.uninstall()
    assert metrics["catalog.get_calls"] == 1
    assert metrics["rational.calls"] >= 2
    assert metrics["rational.elim_cells"] >= 4
    assert metrics["catalog.self_s"] > 0
    assert metrics["lattices.self_s"] == 0 and metrics["lattices.calls"] == 0
    assert tracer.installed_wrappers() == 0
    after = (rational.rref, collapse.isotypic_decompose, reps.isotypic_decompose, flatorb.catalog_get, cli.catalog_get)
    assert all(x is y for x, y in zip(before, after))
