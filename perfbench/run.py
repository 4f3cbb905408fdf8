"""flatorb benchmark: run one workload (or all three) and print its metrics.

    python3 perfbench/run.py --workload catalog-verbs --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from anywhere; it benchmarks the ``src/`` next to this directory.  It
times ``setup_s`` over several cold starts, then runs the workload's seeded
op list in one fresh single-threaded worker process for ``--seconds``,
checks every output and prints the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run metadata and
the details behind each number.  See README.md for the workloads.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import EXTRA_METRICS, LAYERS  # noqa: E402
from worker import REFERENCE_COMPILE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 11
RUN_TIMEOUT_S = 170
BLAS_THREADS = "1"
TIMERS = (
    "process-level timers only (time.perf_counter, time.monotonic, getrusage); "
    "no system tracing, no cache dropping, no CPU pinning"
)

END_TO_END = (
    ("setup_s", "s"),
    ("batch_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_share"] = "1"
        units[f"{layer}.errors"] = "count"
    for layer, metric, unit in EXTRA_METRICS:
        units[f"{layer}.{metric}"] = unit
    units["trace.overhead_ratio"] = "1"
    return units


def git_sha(root: Path) -> str | None:
    """HEAD of the repository at ``root``, read from ``.git`` without git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _worker(args: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), *args]
    proc = subprocess.run(cmd, env=worker_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, seed: int) -> dict:
    """Cold starts: a fresh interpreter until flatorb.cli is imported and the ops are prepared.

    Each cold start is timed in CPU time, which leaves out the time the
    process waits for a CPU that other jobs on the host hold.  Its user time
    is brought to reference speed by ``REFERENCE_COMPILE_S / the median
    compile kernel`` run in the same process right after; its system time
    (page faults, file reads) is not, since the compile kernel makes no
    system calls.  ``setup_s`` is the median over the cold starts.
    """
    scaled, wall, cpu, scales = [], [], [], []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        res = _worker(["--workload", workload, "--seed", str(seed), "--setup-only"], 60)
        scale = REFERENCE_COMPILE_S / statistics.median(res["compile_s"])
        scaled.append(res["setup_user_s"] * scale + res["setup_sys_s"])
        wall.append(res["setup_end"] - start)
        cpu.append(res["setup_user_s"] + res["setup_sys_s"])
        scales.append(scale)
    return {
        "setup_s_all": scaled,
        "setup_cpu_s_all": cpu,
        "setup_wall_s_all": wall,
        "setup_speed_scales": scales,
        "setup_cpu_s_median": statistics.median(cpu),
        "setup_wall_s_median": statistics.median(wall),
    }


def run_workload(workload: str, seed: int, seconds: int, traced: bool) -> tuple[dict, dict]:
    """Metrics and details of one workload."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    details: dict = {"workload": workload}
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))]
    if traced:
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{workload}-seed{seed}.jsonl.gz"
        args += ["--spans-out", str(spans)]
        details["spans_file"] = str(spans.relative_to(ROOT))
        res = _worker(args, deadline - time.monotonic())
        units = per_layer_units()
        metrics = {name: res["layer"][name] for name in units}
    else:
        setup = measure_setup(workload, seed)
        res = _worker(args, deadline - time.monotonic())
        units = dict(END_TO_END)
        metrics = {
            "setup_s": statistics.median(setup["setup_s_all"]),
            "batch_s": res["batch_s"],
            "op_p50_ms": res["op_p50_ms"],
            "op_p90_ms": res["op_p90_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        details.update(setup)
    details.update({k: v for k, v in res.items() if k != "layer"})
    details["fail_ratio"] = res["failed"] / res["attempted"]
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}, details


def metadata(seed: int, seconds: int, traced: bool, details: dict) -> dict:
    return {
        "git_sha": git_sha(ROOT),
        "python": details.get("python"),
        "numpy": details.get("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "blas_threads": BLAS_THREADS,
        "worker": "one fresh single-threaded python process per workload, run one at a time",
        "timers": TIMERS,
        "wait_time": "not reported: the worker is single-threaded, so no op waits on another",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=38)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "flatorb" / "__init__.py").is_file():
        print(f"error: no flatorb sources at {ROOT / 'src' / 'flatorb'}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, all_details = {}, []
    attempted = failed = 0
    try:
        for name in names:
            m, details = run_workload(name, args.seed, args.seconds, traced)
            all_details.append(details)
            attempted += details["attempted"]
            failed += details["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in m.items()})
            for k, v in m.items():
                print(f"{name:18s} {k:28s} {v['value']:14.6g} {v['unit']}")
            print(f"{name:18s} {'fail_ratio':28s} {details['fail_ratio']:14.6g} 1")
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for details in all_details:
        for probe in details.get("probes", []):
            state = "passes" if probe["passed"] else f"fails ({probe['reason']})"
            print(f"known-defect probe {probe['op']} {state}")
    print(json.dumps({"metadata": metadata(args.seed, args.seconds, traced, all_details[0]), "runs": all_details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
