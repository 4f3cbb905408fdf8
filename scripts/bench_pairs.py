"""Benchmark a change against its parent in alternating pairs of runs.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --parent-commit SHA
        [--change TEXT]

PARENT_TREE and CHANGE_TREE are two checkouts of the repository (say, from
``git archive``), each with its own ``perfbench/`` and ``src/``; SHA is the
commit PARENT_TREE was made from.  Each of the ten pairs i = 0, ..., 9 runs

    python3 perfbench/run.py --workload all --seed S --seconds 38 --trace 0

in both trees with seed S = 2 + i, the parent first when i is even and the
change first when i is odd (38 s is the ``run_seconds`` of the parent's
``BENCHMARK.json``); then one ``--trace 1`` run a side with seed 1,
parent first.  The runs are written, in the order they ran, to
``BENCH_<parent sha>.json`` in the current directory after every run, with
the keys ``parent_commit``, ``change``, ``command``, ``pairing`` and
``runs``; each run keeps the last line of ``run.py``'s output as ``result``
and the line before it as ``details``.  At the end the script prints, for
each workload and end-to-end metric, the median and quartiles of each side,
the number of pairs in which the change is lower (every end-to-end metric
of the benchmark is lower-is-better), whether the gain rule holds (the
change is lower in at least nine tenths of the pairs, and the parent's
median exceeds the change's by more than the parent's q3 - q1), and a
flag where the change's median is worse than the parent's by more than
the metric's ``bound`` in the parent's ``BENCHMARK.json``, a share of the
parent's median.

The benchmark's workloads run in one warm process, so they never see a
cold start.  After the runs the script therefore times fresh processes of

    python3 -m flatorb.cli VERB

with ``PYTHONPATH=<tree>/src``, for each VERB of ``COLD_VERBS``, in nine
rounds: in each round every verb runs on both trees, the parent first in
even rounds and the change first in odd ones.  Their wall times go into the
BENCH file under ``cold_start``, with the median and quartiles of each side
per verb, and are printed below the workload table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 10  # seeds 2-11: the fewest pairs a claimed gain is judged on
COMMAND = "python3 perfbench/run.py --workload all --seed S --seconds {seconds} --trace 0"
COLD_ROUNDS = 9
COLD_VERBS = (
    "catalog",
    "analyze --catalog K7",
    "teich --catalog G3",
    "verify-theorem-c",
    "collapse --catalog G3 --subspace 1,0,0",
)


def run_once(tree: Path, seed: int, seconds: int, trace: int) -> dict:
    """One ``run.py`` run in ``tree``: its result and details lines."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", "all"]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"error: {' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    return {"result": json.loads(lines[-1]), "details": json.loads(lines[-2])}


def time_cold(tree: Path, verb: str) -> float:
    """Wall seconds of one fresh ``python3 -m flatorb.cli VERB`` process on ``tree``'s ``src/``."""
    argv = [sys.executable, "-m", "flatorb.cli", *verb.split()]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} in {tree} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def cold_start(trees: dict[str, Path]) -> dict:
    """``COLD_ROUNDS`` alternating rounds of ``time_cold`` over ``COLD_VERBS`` on both trees.

    Per verb and side: the wall times in the order they ran and their
    inclusive quartiles ``q1``, ``median``, ``q3``.
    """
    times = {verb: {"parent": [], "change": []} for verb in COLD_VERBS}
    for r in range(COLD_ROUNDS):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for verb in COLD_VERBS:
            for side in order:
                times[verb][side].append(time_cold(trees[side], verb))
    out = {}
    for verb, sides in times.items():
        out[verb] = {}
        for side, values in sides.items():
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            out[verb][side] = {"q1": q1, "median": median, "q3": q3, "runs": values}
    return out


def cold_report(cold: dict) -> str:
    lines = []
    for verb, s in cold.items():
        p, c = s["parent"], s["change"]
        lines.append(
            f"cold {verb:38s} parent {p['median']:.3f} s [{p['q1']:.3f}, {p['q3']:.3f}]  "
            f"change {c['median']:.3f} s [{c['q1']:.3f}, {c['q3']:.3f}]  "
            f"{100 * (c['median'] - p['median']) / p['median']:+.1f} %"
        )
    return "\n".join(lines)


def summarize(runs: list[dict]) -> dict[tuple[str, str], dict]:
    """Per (workload, metric) of the untraced runs: quartiles of each side and the change's wins.

    Runs pair up by seed.  Each value is ``{"parent": (q1, median, q3),
    "change": (q1, median, q3), "wins": k, "pairs": n}``, with k the number
    of the n pairs in which the change's value is lower.
    """
    by_seed: dict[int, dict[str, dict]] = {}
    for run in runs:
        if run["trace"] == 0:
            by_seed.setdefault(run["seed"], {})[run["side"]] = run["result"]["metrics"]
    pairs = [sides for sides in by_seed.values() if len(sides) == 2]
    out = {}
    for key in sorted(pairs[0]["parent"]) if pairs else ():
        values = {side: [p[side][key]["value"] for p in pairs] for side in ("parent", "change")}
        quartiles = {side: tuple(statistics.quantiles(v, n=4, method="inclusive")) for side, v in values.items()}
        wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
        workload, metric = key.split(".", 1)
        out[workload, metric] = {**quartiles, "wins": wins, "pairs": len(pairs)}
    return out


def gain_holds(s: dict) -> bool:
    """The gain rule on one summary entry: lower in >= 9/10 of the pairs, median gap over the parent's q3 - q1."""
    (p1, pm, p3), (_, cm, _) = s["parent"], s["change"]
    return 10 * s["wins"] >= 9 * s["pairs"] and pm - cm > p3 - p1


def report(summary: dict[tuple[str, str], dict], bounds: dict[str, float] | None = None) -> str:
    """One line per (workload, metric); ``bounds`` maps a metric to its allowed worsening, a share of the parent's median."""
    lines = []
    for (workload, metric), s in summary.items():
        (p1, pm, p3), (c1, cm, c3) = s["parent"], s["change"]
        change = f"{100 * (cm - pm) / pm:+.1f} %" if pm else "n/a"
        line = (
            f"{workload:17s} {metric:12s} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  "
            f"change {cm:.4g} [{c1:.4g}, {c3:.4g}]  {change}  lower in {s['wins']}/{s['pairs']}  "
            f"gain {'holds' if gain_holds(s) else 'not met'}"
        )
        bound = (bounds or {}).get(metric)
        if bound is not None and cm > pm * (1 + bound):
            line += f"  WORSE beyond its bound {100 * bound:.0f} %"
        lines.append(line)
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_tree", type=Path)
    p.add_argument("change_tree", type=Path)
    p.add_argument("--parent-commit", required=True, help="full sha of the commit PARENT_TREE was made from")
    p.add_argument("--change", default="the change tree", help="one sentence naming the change")
    args = p.parse_args(argv)
    trees = {"parent": args.parent_tree.resolve(), "change": args.change_tree.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            raise SystemExit(f"error: no perfbench/run.py under {tree}")
    benchmark = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark.get("end_to_end", []) if "bound" in m}
    doc = {
        "parent_commit": args.parent_commit,
        "change": args.change,
        "command": COMMAND.format(seconds=seconds),
        "pairing": (
            f"{PAIRS} pairs, seeds 2-{PAIRS + 1} (one seed per pair), parent first on even pair indices "
            "(seeds 2, 4, ...), change first on odd ones; then seed 1 with --trace 1 on each side, parent first; "
            "runs listed in the order they ran"
        ),
        "runs": [],
    }
    out = Path(f"BENCH_{args.parent_commit[:7]}.json")
    schedule = [(2 + i, ("parent", "change") if i % 2 == 0 else ("change", "parent"), 0) for i in range(PAIRS)]
    schedule.append((1, ("parent", "change"), 1))
    for seed, order, trace in schedule:
        for side in order:
            run = run_once(trees[side], seed, seconds, trace)
            doc["runs"].append({"side": side, "seed": seed, "trace": trace, **run})
            out.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"{side} seed {seed} trace {trace}: done", file=sys.stderr)
    doc["cold_start"] = {
        "command": "python3 -m flatorb.cli VERB, PYTHONPATH=<tree>/src, one fresh process per run",
        "pairing": (
            f"{COLD_ROUNDS} rounds; each round runs every verb on both trees, "
            "parent first in even rounds, change first in odd ones"
        ),
        "verbs": cold_start(trees),
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(report(summarize(doc["runs"]), bounds))
    print(cold_report(doc["cold_start"]["verbs"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
