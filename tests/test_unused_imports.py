"""Every name a module of the package imports is used in that module.
``__init__.py`` is exempt: its imports are the package's re-exports."""

import ast
from pathlib import Path

import pytest

import dominion

PACKAGE = Path(dominion.__file__).resolve().parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.AST) -> list[str]:
    """Each name bound by an import in ``tree`` (``from __future__`` aside)
    that no ``Name`` node reads; ``import a.b`` binds ``a``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert unused_imports(tree) == []


def test_guard_sees_each_kind_of_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "import re\n"
        "from typing import Callable, Iterator\n"
        "from .core import rat as r\n"
        "def f(x: Iterator) -> None:\n"
        "    return os.path.join(re.escape(x))\n"
    )
    assert unused_imports(ast.parse(source)) == ["line 3: j", "line 5: Callable", "line 6: r"]
