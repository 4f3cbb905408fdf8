import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(side, seed, trace, batch_s, p50):
    metrics = {"w.batch_s": {"value": batch_s, "unit": "s"}, "w.op_p50_ms": {"value": p50, "unit": "ms"}}
    return {"side": side, "seed": seed, "trace": trace, "result": {"metrics": metrics}, "details": {}}


def test_summary_pairs_runs_by_seed_and_counts_the_changes_wins():
    # five pairs in alternating order, a traced pair that is left out, and
    # a run whose partner never ran
    runs = []
    for i, (parent, change) in enumerate([(1.0, 0.9), (2.0, 1.5), (3.0, 3.5), (4.0, 3.0), (5.0, 4.0)]):
        pair = [_run("parent", 2 + i, 0, parent, 10 * parent), _run("change", 2 + i, 0, change, 10 * parent)]
        runs += pair if i % 2 == 0 else pair[::-1]
    runs += [_run("parent", 1, 1, 100.0, 100.0), _run("change", 1, 1, 0.0, 0.0), _run("parent", 9, 0, 0.0, 0.0)]
    summary = _script().summarize(runs)
    assert list(summary) == [("w", "batch_s"), ("w", "op_p50_ms")]
    batch = summary["w", "batch_s"]
    # inclusive quartiles of 1..5 and of 0.9, 1.5, 3.0, 3.5, 4.0
    assert batch["parent"] == (2.0, 3.0, 4.0)
    assert batch["change"] == (1.5, 3.0, 3.5)
    assert (batch["wins"], batch["pairs"]) == (4, 5)
    # a tie is not a win
    assert (summary["w", "op_p50_ms"]["wins"], summary["w", "op_p50_ms"]["pairs"]) == (0, 5)
    lines = _script().report(summary).splitlines()
    assert lines[0].split() == [
        "w", "batch_s", "parent", "3", "[2,", "4]", "change", "3", "[1.5,", "3.5]", "+0.0", "%", "lower", "in", "4/5"
    ]
