"""Tests of the benchmark itself. Run from the repository root:

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import MIX, Cli, Grid, Powers  # noqa: E402

ROUND = sum(copies for copies, _, _ in MIX.values())


def _untraced_then_traced(workload, count: int):
    plain = worker.run_ops(workload, count=count)
    workload.reset()
    tracer = Tracer()
    tracer.install()
    try:
        traced = worker.run_ops(workload, count=count)
    finally:
        tracer.uninstall()
    return plain, traced, tracer.summary(count, sum(traced.times))


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    runs = {}
    for cls, count in ((Powers, 3), (Grid, 1), (Cli, ROUND)):
        workload = cls(7, str(tmp_path_factory.mktemp(cls.name)))
        runs[cls.name] = _untraced_then_traced(workload, count)
    return runs


@pytest.mark.parametrize("name", ["powers", "grid", "cli"])
def test_traced_outputs_equal_untraced_outputs(traced_runs, name):
    plain, traced, _ = traced_runs[name]
    assert not plain.failures and not traced.failures
    assert None not in plain.digests
    assert traced.digests == plain.digests


# Each layer against the workload where it does most of its work.
LAYER_HOMES = {
    "powers": ["core.compose", "core.norm", "core.entrywise", "core.compare", "core.construct",
               "gallery.draw", "theorems.validate"],
    "grid": ["core.power", "theorems.check"],
    "cli": ["calculus.meet", "calculus.lattice_hom", "theorems.trace", "theorems.certify",
            "bundles.parse", "bundles.emit", "bundles.render", "cli.main"],
}


@pytest.mark.parametrize("name", ["powers", "grid", "cli"])
def test_each_layer_records_work_on_its_workload(traced_runs, name):
    metrics = traced_runs[name][2]
    for layer in LAYER_HOMES[name]:
        assert metrics[f"{layer}.calls"][0] > 0, layer
        assert metrics[f"{layer}.self_s"][0] > 0, layer
    assert metrics["sweeps.drawn"][0] > 0
    assert metrics["core.compose.out_bits_max"][0] > 0


def test_layer_counts_follow_the_workload_sizes(traced_runs):
    powers = traced_runs["powers"][2]
    assert powers["sweeps.checked"][0] == 1  # per op
    assert powers["bundles.parse.calls"][0] == 0
    cli = traced_runs["cli"][2]
    assert cli["cli.main.calls"][0] == 1
    assert cli["theorems.certify.norm_calls"][0] * ROUND > 300  # the exhausting search tries every n0
    assert cli["cli.main.out_bytes"][0] > cli["bundles.emit.bytes"][0] > 0


def test_uninstall_restores_every_binding():
    import dominion.cli
    import dominion.core
    import dominion.sweeps

    before = (dominion.core.MatrixOperator.compose, dominion.sweeps.check_family_grid, dominion.cli.rational_str)
    tracer = Tracer()
    tracer.install()
    assert dominion.sweeps.check_family_grid is not before[1]
    assert dominion.cli.rational_str is not before[2]
    tracer.uninstall()
    after = (dominion.core.MatrixOperator.compose, dominion.sweeps.check_family_grid, dominion.cli.rational_str)
    assert after == before


def test_planted_wrong_verdict_counts_as_failed(tmp_path):
    powers = Powers(7, str(tmp_path), expected={"dominated-powers": "FALSIFIED"})
    assert len(worker.run_ops(powers, count=2).failures) == 2
    cli = Cli(7, str(tmp_path), expected={"certify-unit-gap": 2})
    failures = worker.run_ops(cli, count=ROUND).failures
    assert len(failures) == 1 and "certify-unit-gap" in next(iter(failures.values()))


def _copy_bench(dest: Path, with_src: bool) -> None:
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def _run_bench(cwd: Path, seed: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "powers", "--seed", str(seed), "--seconds", "0.5"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_recorded_seed_passes_and_a_changed_digest_fails(tmp_path):
    _copy_bench(tmp_path, with_src=True)
    seed = json.loads((HERE / "expected.json").read_text())["seed"]
    proc = _run_bench(tmp_path, seed)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    expected_path = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(expected_path.read_text())
    expected["digests"]["powers"][3] = "0" * 16
    expected_path.write_text(json.dumps(expected))
    proc = _run_bench(tmp_path, seed)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 1 and not result["correct"] and result["failed"] == 1


def test_without_the_source_tree_it_exits_nonzero_without_a_result(tmp_path):
    _copy_bench(tmp_path, with_src=False)
    proc = _run_bench(tmp_path, 1)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
