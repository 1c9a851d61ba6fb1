"""One workload process of the benchmark: set up, run ops, report as JSON.

Started by ``run.py`` as ``python -E -s perfbench/worker.py ...`` in a
fresh single-threaded interpreter. It imports ``dominion`` from the
checkout's ``src/`` and nowhere else, builds the workload's inputs (the
set-up), then either exits (``--setup-only``) or runs ops for the given
time and prints one JSON line with its measurements.

With ``--trace 1`` it runs ops untraced for a third of the time, then
installs the tracer and replays exactly the same ops; the two runs' output
digests must agree, and the ratio of their op times is the tracing
overhead.

Time metrics are rescaled to a fixed machine speed. The benchmark's own
machine shares its cores, and its speed drifts by up to 2x for minutes at a
time as other tenants load it; wall time and CPU time drift together. So a
fixed kernel (``reference_s``, stdlib only, independent of dominion) is
timed between consecutive ops and every 50 ms during an op, and each op's
time, less the kernel runs inside it, is multiplied by ``REFERENCE_S`` over
the mean of the kernel times before, during and after it.
The result reads as the op's time on a machine where the kernel takes
``REFERENCE_S``, about its time between ops on an unloaded core of the
2-core machine the baseline was measured on. The unscaled wall times are
reported beside the rescaled ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from random import Random

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MIN_OPS = 20  # enough ops that the tail percentile has ten ops beyond it
DIGEST_OPS = 20  # leading ops whose output digests are pinned for the recorded seed
REFERENCE_S = 0.0015
_rng = Random(2010)
REFERENCE_MATRIX = [[Fraction(_rng.getrandbits(256) + 1, _rng.getrandbits(256) + 1) for _ in range(4)]
                    for _ in range(4)]
REFERENCE_TEXT = json.dumps({
    name: [[f"{i * j + 1}/{i + j + 2}" for j in range(3)] for i in range(3)] for name in "STZ"
})


def reference_s() -> float:
    """Wall time of a fixed kernel shaped like the benchmark's ops: one 4x4
    product of 256-bit fractions (the exact core), then small JSON documents
    of rationals parsed and rendered (the bundle and report path)."""
    a = REFERENCE_MATRIX
    started = time.perf_counter()
    [[sum((a[i][k] * a[k][j] for k in range(4)), Fraction(0)) for j in range(4)] for i in range(4)]
    for _ in range(4):
        rows = [[Fraction(q) for q in row] for op in json.loads(REFERENCE_TEXT).values() for row in op]
        json.dumps([f"{q.numerator}/{q.denominator}" for row in rows for q in row], indent=2)
    return time.perf_counter() - started


class SpeedSampler:
    """While armed, times ``reference_s()`` every ``interval`` seconds from a
    SIGALRM handler, so that ops longer than the interval are rescaled by the
    machine speed during them and not only at their ends. The handler's own
    wall and CPU time are tallied so that they can be taken out of the op."""

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0

    def _tick(self, signum, frame) -> None:
        started, cpu_started = time.perf_counter(), time.process_time()
        self.samples.append(reference_s())
        self.spent_s += time.perf_counter() - started
        self.spent_cpu_s += time.process_time() - cpu_started

    def install(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)

    def arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Phase:
    """The ops of one measured phase, in order."""

    times: list[float] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)
    # Mean reference_s() over the kernel runs just before, during and just after each op.
    speeds: list[float] = field(default_factory=list)
    digests: list[str | None] = field(default_factory=list)
    failures: dict[int, str] = field(default_factory=dict)  # op index -> reason

    def rescaled(self, values: list[float]) -> list[float]:
        """Per-op values at the speed where reference_s() takes REFERENCE_S."""
        return [v * REFERENCE_S / speed for v, speed in zip(values, self.speeds)]


def run_ops(workload, seconds: float = 0.0, min_ops: int = 0, count: int | None = None,
            sample: bool = True) -> Phase:
    """Run ops until ``count`` are done, or else until ``seconds`` have
    passed, at least ``min_ops`` are done and the last round of the
    workload's mix is complete. With ``sample`` off the speed is taken only
    between ops (the tracer's spans must not hold samples)."""
    from workloads import GateError

    phase = Phase()
    sampler = SpeedSampler()
    if sample:
        sampler.install()
    clock, cpu_clock = time.perf_counter, time.process_time
    wall0 = clock()
    before = reference_s()
    while True:
        done = len(phase.times)
        if count is not None:
            if done >= count:
                break
        elif done >= min_ops and done % workload.round_ops == 0 and clock() - wall0 >= seconds:
            break
        kind, call, check = workload.next_op()
        error = digest = None
        first_sample, spent, spent_cpu = len(sampler.samples), sampler.spent_s, sampler.spent_cpu_s
        if sample:
            sampler.arm()
        started, cpu_started = clock(), cpu_clock()
        try:
            result = call()
        except Exception as exc:  # a raising op is a failed op, and the run goes on
            error = f"op {done} ({kind}) raised {type(exc).__name__}: {str(exc)[:300]}"
        finally:
            sampler.disarm()
        phase.times.append(clock() - started - (sampler.spent_s - spent))
        phase.cpu.append(cpu_clock() - cpu_started - (sampler.spent_cpu_s - spent_cpu))
        if error is None:
            try:
                digest = hashlib.sha256(check(result)).hexdigest()[:16]
            except (GateError, ValueError, KeyError, IndexError) as exc:
                error = f"op {done} ({kind}) failed its check: {exc}"
        phase.digests.append(digest)
        if error is not None:
            phase.failures[done] = error
        after = reference_s()
        speeds = [before, *sampler.samples[first_sample:], after]
        phase.speeds.append(sum(speeds) / len(speeds))
        before = after
    return phase


def time_metrics(times: list[float], cpu: list[float]) -> dict:
    n = len(times)
    metrics = {
        "ops_per_s": (n / sum(times), "ops/s"),
        "op_p50_ms": (statistics.median(times) * 1000, "ms"),
        "cpu_ms_per_op": (sum(cpu) / n * 1000, "ms"),
    }
    if n >= 20:
        # The highest percentile that still has ten ops beyond it.
        metrics["op_tail_ms"] = (sorted(times)[n - 11] * 1000, "ms")
    return metrics


def end_to_end(phase: Phase) -> tuple[dict, dict]:
    """End-to-end metrics (setup_s excepted), and the raw wall-time values."""
    metrics = time_metrics(phase.rescaled(phase.times), phase.rescaled(phase.cpu))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    n = len(phase.times)
    info = {"ops": n, "raw": {k: v for k, (v, _) in time_metrics(phase.times, phase.cpu).items()}}
    if n >= 20:
        info["percentile"] = 100 * (n - 10) / n
    return metrics, info


def traced(workload, seconds: float, spans_path: Path) -> tuple[Phase, dict]:
    from tracer import Tracer

    plain = run_ops(workload, seconds=seconds / 3, min_ops=2, sample=False)
    workload.reset()
    tracer = Tracer()
    tracer.install()
    try:
        replay = run_ops(workload, count=len(plain.times), sample=False)
    finally:
        tracer.uninstall()
    for i, (a, b) in enumerate(zip(plain.digests, replay.digests)):
        if a is not None and b is not None and a != b:
            replay.failures[i] = f"op {i}: traced output digest {b} differs from untraced {a}"
    plain.failures = {**replay.failures, **plain.failures}
    metrics = tracer.summary(len(replay.times), sum(replay.times))
    overhead = sum(replay.rescaled(replay.times)) / sum(plain.rescaled(plain.times))
    metrics["trace_overhead"] = (overhead, "ratio")
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write_spans(spans_path)
    return plain, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import dominion

    if Path(dominion.__file__).resolve().parent != SRC / "dominion":
        print(f"error: imported dominion from {dominion.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workdir = BENCH_DIR / "_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        # CLOCK_MONOTONIC is system-wide on Linux, so this spans the
        # interpreter start, the imports and the input building.
        setup_raw_s = time.monotonic() - args.spawned_at
        setup_s = setup_raw_s * REFERENCE_S / statistics.median(reference_s() for _ in range(5))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
            return 0
        if args.trace:
            spans = BENCH_DIR / "_out" / f"spans-{args.workload}.tsv"
            phase, metrics = traced(workload, args.seconds, spans)
            info = {"ops": len(phase.times), "spans": str(spans.relative_to(ROOT))}
        else:
            phase = run_ops(workload, seconds=args.seconds, min_ops=MIN_OPS)
            metrics, info = end_to_end(phase)
    finally:
        shutil.rmtree(workdir)
    print(json.dumps({
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "attempted": len(phase.times),
        "failures": [phase.failures[i] for i in sorted(phase.failures)],
        "digests": phase.digests[:DIGEST_OPS],
        "metrics": metrics,
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
