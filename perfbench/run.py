"""Benchmark of the dominion package, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload powers|grid|cli|all --seed N \\
        --seconds S --trace 0|1

Each workload runs in a fresh single-threaded worker process (one at a
time), which builds its inputs from the seed, runs ops for ``--seconds``
(and at least 20 ops), and checks every op's verdict, exit code and output.
``setup_s`` is the median over five set-ups: four set-up-only processes and
the measuring process itself. For the seed recorded in ``expected.json``
the leading ops' output digests must match the recorded ones as well.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
exit code is 0 when every op passed its checks, 1 when one did not, and 2
or 3 (with no result line) when the benchmark could not run at all.
``--record`` runs untraced and rewrites ``expected.json`` for the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED = BENCH_DIR / "expected.json"
WORKLOADS = ("powers", "grid", "cli")
SETUP_SAMPLES = 5
WORKLOAD_BUDGET_S = 175.0


class BenchError(Exception):
    """The benchmark could not measure: no source tree, or a worker died."""


def spawn(worker_args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its JSON report."""
    env = {k: v for k, v in os.environ.items() if k != "DOMINION_DENOM_CAP"}
    cmd = [sys.executable, "-E", "-s", str(BENCH_DIR / "worker.py"), *worker_args]
    try:
        proc = subprocess.run(
            [*cmd, "--spawned-at", repr(time.monotonic())],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise BenchError(f"worker {' '.join(worker_args)} ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(worker_args)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, pinned: list | None) -> dict:
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        setups = [spawn([*common, "--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)]
    report = spawn([*common, "--seconds", repr(seconds), "--trace", str(trace)], deadline)
    if not trace:
        setups.append(report)
        report["metrics"]["setup_s"] = (statistics.median(s["setup_s"] for s in setups), "s")
        report["info"]["raw"]["setup_s"] = statistics.median(s["setup_raw_s"] for s in setups)
    for i, (got, want) in enumerate(zip(report["digests"], pinned or ())):
        if got is not None and got != want:
            report["failures"].append(f"op {i}: output digest {got} differs from the recorded {want}")
    return report


def print_report(workload: str, seed: int, report: dict) -> None:
    info = report["info"]
    failed, attempted = len(report["failures"]), report["attempted"]
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    head = f"# {workload}: seed {seed}, python {platform.python_version()}, nproc {nproc}, {attempted} ops"
    if "percentile" in info:
        head += f", op_tail_ms is p{info['percentile']:.1f} of {info['ops']} ops"
    if "spans" in info:
        head += f", spans in {info['spans']}"
    print(head)
    raw = info.get("raw", {})
    for name, (value, unit) in sorted(report["metrics"].items()):
        wall = f"   (unscaled {raw[name]:.6f})" if name in raw else ""
        print(f"{workload:<7} {name:<30} {value:>16.6f} {unit}{wall}")
    print(f"{workload:<7} {'fail_ratio':<30} {failed / attempted:>16.6f} failed/attempted")
    for failure in report["failures"][:10]:
        print(f"{workload:<7} FAILED {failure}")


def result_line(reports: dict[str, dict]) -> dict:
    prefix = len(reports) > 1
    metrics = {}
    for workload, report in reports.items():
        for name, (value, unit) in report["metrics"].items():
            metrics[f"{workload}.{name}" if prefix else name] = {"value": value, "unit": unit}
    failed = sum(len(r["failures"]) for r in reports.values())
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="dominion benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json with this seed's output digests")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "dominion" / "__init__.py").is_file():
        print(f"error: no dominion source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {"seed": None, "digests": {}}
    gate = not args.record and expected["seed"] == args.seed
    reports = {}
    try:
        for workload in workloads:
            pinned = expected["digests"].get(workload) if gate else None
            reports[workload] = measure(workload, args.seed, args.seconds, 0 if args.record else args.trace, pinned)
            print_report(workload, args.seed, reports[workload])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    result = result_line(reports)
    if args.record and result["correct"]:
        if expected["seed"] != args.seed:
            expected = {"seed": args.seed, "digests": {}}
        for workload, report in reports.items():
            expected["digests"][workload] = report["digests"]
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
