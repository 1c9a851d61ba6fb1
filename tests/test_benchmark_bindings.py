"""The names the benchmark binds to must exist in the package.

``perfbench/tracer.py`` patches ``MatrixOperator`` methods on the class, the
validating ``__post_init__`` of two theorem classes, and module-level
functions at every module that binds them; ``perfbench/workloads.py``
imports builders by name. A refactor that deletes or moves one of these
names fails here, in tier-1, and not only in the optional benchmark suite
(``python -m pytest perfbench``). The benchmark's seed gate, the output
digests of the first ops of each workload recorded in
``perfbench/expected.json``, is replayed here too.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import dominion.core
import dominion.gallery
import dominion.theorems

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("name", [n for names in tracer.OPERATOR_METHODS.values() for n in names])
def test_operator_method_is_defined_on_the_class(name):
    # Tracer.install reads MatrixOperator.__dict__[name]: inherited names do not count.
    assert callable(dominion.core.MatrixOperator.__dict__.get(name))


@pytest.mark.parametrize("cls_name", tracer.VALIDATED)
def test_validated_class_defines_post_init(cls_name):
    cls = getattr(dominion.theorems, cls_name)
    assert callable(cls.__dict__.get("__post_init__"))


@pytest.mark.parametrize("module_name, name", [
    (module_name, name)
    for module_name, names in tracer.FUNCTIONS.values()
    for name in names
])
def test_traced_function_resolves_in_its_module(module_name, name):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, name, None))


def test_tracer_installs_and_uninstalls():
    originals = dict(vars(dominion.core.MatrixOperator))
    tracer_run = tracer.Tracer()
    tracer_run.install()
    try:
        assert dominion.core.MatrixOperator.__dict__["compose"] is not originals["compose"]
    finally:
        tracer_run.uninstall()
    assert dict(vars(dominion.core.MatrixOperator)) == originals


def test_hypothesis_predicates_reach_the_traced_layers():
    # The hypothesis ledger must look its predicates up when a line runs: a
    # table holding the original function objects would bypass the tracer's
    # patches and hide every hypothesis check from these layers.
    pair = dominion.gallery.unit_gap_pair()
    identity = dominion.core.MatrixOperator.identity(pair.space)
    tracer_run = tracer.Tracer()
    tracer_run.install()
    try:
        dominion.theorems.check_meet_bound(identity, pair.s, 0, 1)
        dominion.gallery.random_dominated_pair(0, 3)
    finally:
        tracer_run.uninstall()
    metrics = tracer_run.summary(1, 0.0)
    # One sup-preserving line; two compare-layer lines of the meet bound
    # (Z T = T Z, T positive) and five of the dominated pair.
    assert metrics["calculus.lattice_hom.calls"][0] == 1
    assert metrics["core.compare.calls"][0] >= 7


def test_workloads_import():
    # Its module-level imports name the package's builders and sweeps.
    assert set(workloads.WORKLOADS) == {"powers", "grid", "cli"}


@pytest.mark.parametrize("name", ["powers", "grid", "cli"])
def test_seed_gate_digests(name, tmp_path):
    # The worker's hash of each op's checked output, op by op from the start.
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    pinned = expected["digests"][name]
    workload = workloads.WORKLOADS[name](expected["seed"], str(tmp_path))
    digests = []
    for _ in pinned:
        _, call, check = workload.next_op()
        digests.append(hashlib.sha256(check(call())).hexdigest()[:16])
    assert len(pinned) == 20 and digests == pinned
