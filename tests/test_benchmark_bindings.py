"""The names the benchmark binds to must exist in the package.

``perfbench/tracer.py`` patches ``MatrixOperator`` methods on the class, the
validating ``__post_init__`` of two theorem classes, and module-level
functions at every module that binds them; ``perfbench/workloads.py``
imports builders by name. A refactor that deletes or moves one of these
names fails here, in tier-1, and not only in the optional benchmark suite
(``python -m pytest perfbench``).
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import dominion.core
import dominion.theorems

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")


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


def test_workloads_import():
    # Its module-level imports name the package's builders and sweeps.
    assert set(_load("workloads").WORKLOADS) == {"powers", "grid", "cli"}
