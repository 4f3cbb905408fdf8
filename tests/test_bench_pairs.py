import importlib.util
import json
from pathlib import Path

import pytest

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
        "w", "batch_s", "parent", "3", "[2,", "4]", "change", "3", "[1.5,", "3.5]", "+0.0", "%", "lower", "in", "4/5",
        "gain", "not", "met",
    ]


def _entry(parent, change, wins, pairs=10):
    return {"parent": parent, "change": change, "wins": wins, "pairs": pairs}


def test_report_states_the_gain_rule_and_flags_a_median_worse_than_its_bound():
    summary = {
        # 9/10 lower and a median gap of 0.02 over the parent's spread of 0.01: a gain
        ("a", "batch_s"): _entry((0.145, 0.15, 0.155), (0.125, 0.13, 0.135), 9),
        # 10/10 lower but a gap of 0.005, inside the parent's spread of 0.01
        ("b", "batch_s"): _entry((0.145, 0.15, 0.155), (0.14, 0.145, 0.15), 10),
        # a gap far over the spread, but lower in only 8/10
        ("c", "batch_s"): _entry((0.145, 0.15, 0.155), (0.05, 0.06, 0.07), 8),
        # 30 % worse against a 24 % bound, and 20 % worse: only the first is flagged
        ("d", "op_p90_ms"): _entry((0.9, 1.0, 1.1), (1.2, 1.3, 1.4), 0),
        ("e", "op_p90_ms"): _entry((0.9, 1.0, 1.1), (1.1, 1.2, 1.3), 1),
        # a metric without a bound is never flagged
        ("f", "other"): _entry((0.9, 1.0, 1.1), (9.0, 9.0, 9.0), 0),
    }
    script = _script()
    lines = script.report(summary, {"batch_s": 0.24, "op_p90_ms": 0.24}).splitlines()
    verdicts = [line.split("  gain ")[1] for line in lines]
    assert verdicts == [
        "holds", "not met", "not met", "not met  WORSE beyond its bound 24 %", "not met", "not met"
    ]
    assert [script.gain_holds(s) for s in summary.values()] == [True, False, False, False, False, False]



def test_main_times_cold_starts_after_the_pairs_alternating_the_trees(tmp_path, monkeypatch, capsys):
    script = _script()
    trees = {}
    for side in ("parent", "change"):
        tree = tmp_path / side
        (tree / "perfbench").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text("")
        (tree / "BENCHMARK.json").write_text('{"run_seconds": 1}')
        trees[side] = tree.resolve()
    calls = []

    def fake_run(tree, seed, seconds, trace):
        calls.append(("run", tree.name, None))
        run = _run(tree.name, seed, trace, 1.0 if tree.name == "parent" else 0.5, 1.0)
        return {"result": run["result"], "details": {}}

    def fake_cold(tree, verb):
        calls.append(("cold", tree.name, verb))
        # 0.2 s on the parent, 0.1 s on the change, plus one ms per round
        cold_round = (sum(kind == "cold" for kind, _, _ in calls) - 1) // (2 * len(script.COLD_VERBS))
        return (0.2 if tree.name == "parent" else 0.1) + cold_round / 1000

    monkeypatch.setattr(script, "run_once", fake_run)
    monkeypatch.setattr(script, "time_cold", fake_cold)
    monkeypatch.chdir(tmp_path)
    assert script.main([str(trees["parent"]), str(trees["change"]), "--parent-commit", "abcdef0123"]) == 0

    # the cold starts come after the 22 benchmark runs, each round running every verb on both trees
    assert [kind for kind, _, _ in calls] == ["run"] * 22 + ["cold"] * 2 * len(script.COLD_VERBS) * script.COLD_ROUNDS
    cold = [(side, verb) for kind, side, verb in calls if kind == "cold"]
    per_round = 2 * len(script.COLD_VERBS)
    for r in range(script.COLD_ROUNDS):
        first, second = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        block = cold[r * per_round : (r + 1) * per_round]
        assert block[::2] == [(first, verb) for verb in script.COLD_VERBS]
        assert block[1::2] == [(second, verb) for verb in script.COLD_VERBS]

    doc = json.loads((tmp_path / "BENCH_abcdef0.json").read_text())
    verbs = doc["cold_start"]["verbs"]
    assert list(verbs) == list(script.COLD_VERBS)
    for verb in script.COLD_VERBS:
        for side, base in (("parent", 0.2), ("change", 0.1)):
            s = verbs[verb][side]
            assert s["runs"] == [base + r / 1000 for r in range(script.COLD_ROUNDS)]
            # inclusive quartiles of base + 0, 1, ..., 8 ms
            assert (s["q1"], s["median"], s["q3"]) == (
                pytest.approx(base + 0.002), pytest.approx(base + 0.004), pytest.approx(base + 0.006)
            )
    cold_lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("cold ")]
    assert len(cold_lines) == len(script.COLD_VERBS)
    assert cold_lines[1].split()[1:4] == ["analyze", "--catalog", "K7"]
    assert cold_lines[1].split()[-2:] == ["-49.0", "%"]
