"""The L1 path uses no floats: the modules every exact verdict runs through
hold no ``float`` name or literal, no ``math.sqrt``, no float-valued
``math.log``, ``math.log2`` or ``math.log10`` (digit estimates stay in
integer arithmetic) and no ``random``."""

import ast
from pathlib import Path

import pytest

import dominion

PACKAGE = Path(dominion.__file__).resolve().parent
FLOAT_MATH = ("sqrt", "log", "log2", "log10")  # math functions that return floats


def float_uses(tree: ast.AST) -> list[str]:
    """Each float name or literal, float-valued ``math`` function and
    ``random`` use in ``tree``."""
    found = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", "?")
        if isinstance(node, ast.Name) and node.id in ("float", "random"):
            found.append(f"line {line}: name {node.id}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {line}: literal {node.value!r}")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in FLOAT_MATH
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
        ):
            found.append(f"line {line}: math.{node.attr}")
        elif isinstance(node, ast.Import) and any(a.name == "random" for a in node.names):
            found.append(f"line {line}: import random")
        elif isinstance(node, ast.ImportFrom) and (
            node.module == "random"
            or (node.module == "math" and any(a.name in FLOAT_MATH for a in node.names))
        ):
            found.append(f"line {line}: from {node.module} import")
    return found


@pytest.mark.parametrize("module", ["core.py", "calculus.py", "bundles.py", "theorems.py", "cli.py"])
def test_exact_module_uses_no_floats(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert float_uses(tree) == []


def test_guard_sees_each_kind_of_use():
    source = (
        "import random\n"
        "from math import sqrt\n"
        "from random import Random\n"
        "from math import log10\n"
        "x = float(1) + 0.5 + 2j + math.sqrt(2) + random.random()\n"
        "y = math.log(2) + math.log2(2) + math.log10(2) + math.isqrt(2)\n"
    )
    assert len(float_uses(ast.parse(source))) == 12
