"""Run one benchmark workload in this (fresh, single-threaded) process.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --root DIR --workload NAME --seed N --setup-only

``run.py`` starts this script; it is not meant to be run by hand, but it can
be.  The last line of its standard output is one JSON object with the pass
timings, op latencies, failures and, when traced, the per-layer numbers.
With ``--setup-only`` it stops after the set-up and prints the monotonic
clock reading at which set-up ended, the user and system CPU time the
process had used by then and the CPU times of the compile kernel run right
after, so the parent can time a cold start at reference speed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import percentile  # noqa: E402
from workloads import GROUP_DIR_TOKEN, HEX_PROBE, build_ops, load_golden  # noqa: E402
import checks  # noqa: E402
import tracer  # noqa: E402

MAX_REPORTED_FAILURES = 20
# The calibration kernel runs before the first op and after every
# CALIBRATE_EVERY ops; the faster of the two runs around a group of ops, in
# this reference time, defines the machine's speed while the group ran.
CALIBRATE_EVERY = 5
REFERENCE_KERNEL_S = 0.0035
# A cold start is scaled by the compile kernel instead, run in the same
# process right after set-up and timed in CPU time, as the cold start is:
# its median CPU time in this reference time defines the speed of the CPU
# the cold start ran on.
SETUP_KERNEL_RUNS = 5
REFERENCE_COMPILE_S = 0.013


def import_flatorb(root: Path):
    """Import the package from ``root/src`` and refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import flatorb.cli  # noqa: F401  (the cold-start cost every CLI call pays)
    import flatorb

    if Path(flatorb.__file__).resolve().parent.parent != src:
        raise SystemExit(f"flatorb was imported from {flatorb.__file__}, not from {src}")
    return flatorb


def run_cli(argv: list[str]):
    """One CLI query in-process: returns the parsed ``--json`` output."""
    from flatorb import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
    return json.loads(out.getvalue())


def run_op(op: dict, group_dir: str | None):
    kind = op["kind"]
    if kind == "cli":
        argv = [a.replace(GROUP_DIR_TOKEN, group_dir) if group_dir else a for a in op["argv"]]
        return run_cli(argv)
    from flatorb import lattices

    lattice = lattices.Lattice.from_rows(op["rows"])
    if kind == "diameter":
        return lattices.check_diameter_bound(lattice)
    if kind == "covering":
        return lattices.covering_radius(lattice, op["eps"])
    raise ValueError(f"unknown op kind {kind!r}")


def calibration_kernel() -> float:
    """Fixed Fraction, dict and small-numpy work, independent of flatorb.

    Returns its wall time.  On the benchmark machine its fastest run takes
    about REFERENCE_KERNEL_S.
    """
    import numpy as np

    start = time.perf_counter()
    acc = Fraction(0)
    seen: dict = {}
    for i in range(600):
        q = Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i % 3 + 1, i % 11 + 1)
        acc = acc + q if acc.denominator < 10**6 else q
        key = (i % 17, i % 19)
        seen[key] = seen.get(key, 0) + 1
    v = np.arange(9.0).reshape(3, 3)
    for i in range(150):
        v = v @ np.eye(3) + np.linalg.norm(v[:, i % 3]) * 1e-9
    return time.perf_counter() - start


def _compile_kernel_source() -> str:
    """A fixed synthetic module: classes, loops, comprehensions and literals."""
    template = '''
class Shape{i}:
    """Synthetic class {i}."""

    def __init__(self, rows, scale={i}):
        self.rows = [list(r) for r in rows]
        self.scale = scale

    def norm(self):
        total = 0
        for r in self.rows:
            for x in r:
                total += x * x if x > {m7} else -x
        return total ** 0.5 * self.scale

    def kernel(self, n):
        out = {{k: [j * k for j in range(n) if j % {m5}] for k in range(n)}}
        try:
            return sorted(out.items(), key=lambda kv: (len(kv[1]), kv[0]))
        except (TypeError, ValueError) as exc:
            raise RuntimeError("shape {i}: " + str(exc)) from exc
'''
    return "".join(template.format(i=i, m7=i % 7, m5=i % 5 + 2) for i in range(60))


COMPILE_KERNEL_SOURCE = _compile_kernel_source()


def compile_kernel() -> float:
    """Compile COMPILE_KERNEL_SOURCE once; returns the CPU time it took.

    On the benchmark machine its median run takes about REFERENCE_COMPILE_S.
    """
    start = time.process_time()
    compile(COMPILE_KERNEL_SOURCE, "<compile-kernel>", "exec")
    return time.process_time() - start


class Workload:
    """The prepared op list of one workload and seed."""

    def __init__(self, root: Path, name: str, seed: int):
        self.ops = build_ops(name, seed)
        self.golden = None if name == "lattice-collapse" else load_golden(name)
        self.group_dir = None
        docs = [op for op in self.ops if "group" in op]
        if docs:
            self.group_dir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=root)
            for op in docs:
                path = op["argv"][op["argv"].index("--group") + 1].replace(GROUP_DIR_TOKEN, self.group_dir)
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(op["group"], fh)

    def close(self) -> None:
        if self.group_dir:
            shutil.rmtree(self.group_dir, ignore_errors=True)

    def run_pass(self, recorder=None, kernel_times=None):
        """Run every op once; returns (wall seconds, per-op seconds, failures).

        With ``kernel_times`` given, the calibration kernel runs before the
        first op and after every CALIBRATE_EVERY ops and the last one, its
        times are appended there, and they are left out of the pass's wall
        time.
        """
        latencies, outputs = [], []
        kernel_total = 0.0
        start = time.perf_counter()
        if kernel_times is not None:
            kernel_times.append(calibration_kernel())
            kernel_total += kernel_times[-1]
        for i, op in enumerate(self.ops):
            if recorder is not None:
                recorder.op = i
            t0 = time.perf_counter()
            try:
                outputs.append((op, run_op(op, self.group_dir), None))
            except (Exception, SystemExit) as exc:
                outputs.append((op, None, f"{type(exc).__name__}: {exc}"))
            latencies.append(time.perf_counter() - t0)
            if kernel_times is not None and ((i + 1) % CALIBRATE_EVERY == 0 or i + 1 == len(self.ops)):
                kernel_times.append(calibration_kernel())
                kernel_total += kernel_times[-1]
        wall = time.perf_counter() - start - kernel_total
        failures = []
        for op, output, error in outputs:
            if error is None:
                try:
                    error = checks.check_output(op, output, self.golden)
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    error = f"unreadable output: {type(exc).__name__}: {exc}"
            if error is not None:
                failures.append({"op": op["id"], "reason": error})
        return wall, latencies, failures


def run_probes(workload: str) -> list[dict]:
    """Known-defect cases: run once, outside the timed ops, and reported."""
    if workload != "lattice-collapse":
        return []
    op = HEX_PROBE
    t0 = time.perf_counter()
    try:
        reason = checks.check_output(op, run_op(op, None), None)
    except Exception as exc:
        reason = f"{type(exc).__name__}: {exc}"
    return [{
        "op": op["id"],
        "argv": op["argv"],
        "expected": op["check"],
        "passed": reason is None,
        "reason": reason,
        "seconds": time.perf_counter() - t0,
    }]


def measure(work: Workload, seconds: float):
    """Repeat passes until the next one would end past ``seconds``.

    Returns the pass wall times, the per-pass op latencies, the failures and
    the per-pass calibration kernel times.
    """
    walls, latencies, failures, kernel_times = [], [], [], []
    start = time.perf_counter()
    while True:
        kernel: list[float] = []
        wall, lat, fail = work.run_pass(kernel_times=kernel)
        walls.append(wall)
        latencies.append(lat)
        kernel_times.append(kernel)
        failures.extend(fail)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls, latencies, failures, kernel_times


def op_scales(kernel: list[float], n_ops: int, every: int = CALIBRATE_EVERY) -> list[float]:
    """Speed scale of each op of a pass: REFERENCE_KERNEL_S / the faster kernel run around its group."""
    return [REFERENCE_KERNEL_S / min(kernel[i // every], kernel[i // every + 1]) for i in range(n_ops)]


def summary(walls, latencies, failures, kernel_times) -> dict:
    """End-to-end numbers of the untraced passes.

    The machine is shared, and its speed drifts by tens of percent over
    seconds and over minutes.  So every op latency is scaled by the speed
    the calibration kernel measured around the op's group of
    CALIBRATE_EVERY ops (``op_scales``), each op is represented by its
    fastest scaled repeat, and ``batch_s`` is the sum of these over the op
    list.  The raw numbers and the medians over all samples are reported
    beside them.
    """
    pass_scales = [op_scales(k, len(lat)) for k, lat in zip(kernel_times, latencies)]
    scales = [statistics.median(sc) for sc in pass_scales]
    best_ms = [min(col) * 1000 for col in zip(*latencies)]
    scaled_ms = [min(col) * 1000 for col in zip(*([x * s for x, s in zip(lat, sc)] for lat, sc in zip(latencies, pass_scales)))]
    pooled_ms = [x * 1000 for lat in latencies for x in lat]
    p90 = percentile(scaled_ms, 90)
    return {
        "passes": len(walls),
        "speed_scales": scales,
        "kernel_s_min": min(min(k) for k in kernel_times),
        "kernel_s_median": statistics.median(x for k in kernel_times for x in k),
        "batch_s": sum(scaled_ms) / 1000,
        "op_p50_ms": percentile(scaled_ms, 50),
        "op_p90_ms": p90,
        "batch_s_raw": sum(best_ms) / 1000,
        "op_p50_ms_raw": percentile(best_ms, 50),
        "op_p90_ms_raw": percentile(best_ms, 90),
        "batch_s_all": walls,
        "batch_s_median": statistics.median(walls),
        "op_p50_ms_all_samples": percentile(pooled_ms, 50),
        "op_p90_ms_all_samples": percentile(pooled_ms, 90),
        "op_samples": len(scaled_ms),
        "op_samples_beyond_p90": sum(x > p90 for x in scaled_ms),
        "op_repeats": len(walls),
        "attempted": len(pooled_ms),
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True, type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", type=Path, help="write the traced spans here (gzipped JSON lines)")
    args = p.parse_args(argv)

    flatorb = import_flatorb(args.root)
    work = Workload(args.root, args.workload, args.seed)
    try:
        if args.setup_only:
            usage = resource.getrusage(resource.RUSAGE_SELF)
            end = time.monotonic()
            kernel = [compile_kernel() for _ in range(SETUP_KERNEL_RUNS)]
            print(json.dumps({"setup_end": end, "setup_user_s": usage.ru_utime, "setup_sys_s": usage.ru_stime, "compile_s": kernel}))
            return 0
        import numpy

        result = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "flatorb": flatorb.__version__,
            "wrappers_at_start": tracer.installed_wrappers(),
        }
        result["probes"] = run_probes(args.workload)
        if args.trace:
            result.update(traced_run(work, args.seconds, args.spans_out))
        else:
            result.update(summary(*measure(work, args.seconds)))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result))
        return 0
    finally:
        work.close()


def traced_run(work: Workload, seconds: float, spans_out: Path | None) -> dict:
    """Untraced and traced passes in turn, until ``seconds`` is used up.

    Alternating the two keeps machine-speed drift out of the overhead ratio.
    Each traced pass gets a fresh tracer that is installed before the pass
    and removed after it.
    """
    untraced, traced, per_pass, failures = [], [], [], []
    start = time.perf_counter()
    while True:
        wall, _, fail = work.run_pass()
        untraced.append(wall)
        failures.extend(fail)
        tr = tracer.Tracer()
        patched = tr.install()
        try:
            wall, _, fail = work.run_pass(tr.recorder)
        finally:
            tr.uninstall()
        traced.append(wall)
        failures.extend(fail)
        per_pass.append(tr.layer_metrics())
        left = seconds - (time.perf_counter() - start)
        if statistics.median(untraced) + statistics.median(traced) > left:
            break
    if spans_out is not None:
        tr.dump_spans(spans_out, work.ops)
    # counts repeat exactly from pass to pass; times are medians over passes
    layer = {k: v for k, v in per_pass[0].items() if not k.endswith(".self_s")}
    counts_repeat = all(m[k] == layer[k] for m in per_pass for k in layer)
    self_s = {}
    for name in tracer.LAYERS:
        self_s[name] = statistics.median(m[f"{name}.self_s"] for m in per_pass)
        layer[f"{name}.self_share"] = statistics.median(
            m[f"{name}.self_s"] / wall for m, wall in zip(per_pass, traced)
        )
    layer["trace.overhead_ratio"] = min(traced) / min(untraced)
    return {
        "passes": len(untraced) + len(traced),
        "untraced_batch_s_all": untraced,
        "traced_batch_s_all": traced,
        "attempted": len(work.ops) * (len(untraced) + len(traced)),
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "layer": layer,
        "self_s": self_s,
        "patched_bindings": patched,
        "spans_per_pass": len(tr.recorder.spans),
        "counts_repeat_across_passes": counts_repeat,
        "wrappers_after_uninstall": tracer.installed_wrappers(),
    }


if __name__ == "__main__":
    sys.exit(main())
