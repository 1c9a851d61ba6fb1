"""The hypothesis ledger is the one place in the package that decides a
hypothesis: no module calls a hypothesis predicate outside ``theorems._KINDS``.
``calculus.is_lattice_contraction``, a predicate built from two of them, is
the one exception."""

import ast
from pathlib import Path

import pytest

import dominion

PACKAGE = Path(dominion.__file__).resolve().parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
PREDICATES = {"is_positive", "dominates", "is_contraction", "commutes_with", "is_lattice_homomorphism"}
EXEMPT = {"theorems.py": "_KINDS", "calculus.py": "is_lattice_contraction"}


def predicate_calls(tree: ast.Module, exempt: str | None = None) -> list[str]:
    """Each call of a name or method in ``PREDICATES`` in ``tree``, outside the
    top-level assignment or function named ``exempt``."""
    skipped = set()
    for node in tree.body:
        names = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        if exempt in (*names, getattr(node, "name", "")):
            skipped.update(range(node.lineno, node.end_lineno + 1))
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.lineno not in skipped:
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in PREDICATES:
                calls.append((node.lineno, node.col_offset, name))
    return [f"line {line}: {name}" for line, _, name in sorted(calls)]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_decides_a_hypothesis_outside_the_ledger(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert predicate_calls(tree, EXEMPT.get(module)) == []


def test_guard_sees_names_and_methods_outside_the_exempt_definition():
    source = (
        "_KINDS = {\n"
        "    'positive': lambda a, _: a.is_positive(),\n"
        "}\n"
        "def is_lattice_contraction(z):\n"
        "    return bool(is_lattice_homomorphism(z)) and z.is_contraction()\n"
        "def check(s, t):\n"
        "    method = s.dominates\n"
        "    return method(t) and s.commutes_with(t)\n"
    )
    tree = ast.parse(source)
    assert predicate_calls(tree, "_KINDS") == [
        "line 5: is_lattice_homomorphism", "line 5: is_contraction", "line 8: commutes_with",
    ]
    assert predicate_calls(tree, "is_lattice_contraction") == [
        "line 2: is_positive", "line 8: commutes_with",
    ]
    assert len(predicate_calls(tree)) == 4
