"""Hypothesis fuzzing of the bundle format and the command line.

Bundles must survive an emit/parse round trip unchanged, and the CLI must
answer every malformed bundle with an exit code (0, 2 or 3), never with a
traceback. The mutated bundles are built from valid ones by dropping or
duplicating object keys, replacing values with floats, booleans or strings
outside the rational grammar, and changing the length of matrix rows.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from dominion import DominatedPair, MatrixOperator, MeasureSpace, shear_trio, unit_gap_pair
from dominion.bundles import (
    OperatorBundle,
    bundle_for_damped,
    bundle_for_family,
    bundle_for_pair,
    emit_bundle,
    parse_bundle,
)
from dominion.cli import main
from dominion.theorems import CommutingFamily

# -- round trip ---------------------------------------------------------------

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=12)
weights = st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8)
names = st.text(min_size=1, max_size=4)
rational_strings = st.from_regex(r"-?[0-9]{1,6}(/[0-9]{1,6})?", fullmatch=True)
param_values = st.one_of(
    st.integers(min_value=-10**30, max_value=10**30),
    rational_strings,
    st.lists(st.integers(min_value=-100, max_value=100), max_size=4),
)


@st.composite
def bundles(draw) -> OperatorBundle:
    n = draw(st.integers(min_value=1, max_value=4))
    space = MeasureSpace(tuple(draw(st.lists(weights, min_size=n, max_size=n))))
    matrices = st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)
    operators = {
        name: MatrixOperator(space, tuple(map(tuple, rows)))
        for name, rows in draw(st.dictionaries(names, matrices, max_size=3)).items()
    }
    roles = {}
    if operators:
        roles = draw(st.dictionaries(names, st.sampled_from(sorted(operators)), max_size=4))
    params = draw(st.dictionaries(names, param_values, max_size=4))
    return OperatorBundle(space=space, operators=operators, roles=roles, params=params)


@given(bundles())
def test_emit_parse_round_trip(bundle):
    text = emit_bundle(bundle)
    assert parse_bundle(text) == bundle
    assert emit_bundle(parse_bundle(text)) == text


# -- mutated bundles through the CLI ------------------------------------------
# A JSON document is held as nested lists of (key, value) pairs for objects,
# so that a mutation can give an object the same key twice.


def _pairs(node):
    if isinstance(node, dict):
        return [("obj", [(key, _pairs(value)) for key, value in node.items()])]
    if isinstance(node, list):
        return [("list", [_pairs(value) for value in node])]
    return [("leaf", node)]


def _render(node) -> str:
    (kind, body), = node
    if kind == "obj":
        return "{" + ", ".join(f"{json.dumps(key)}: {_render(value)}" for key, value in body) + "}"
    if kind == "list":
        return "[" + ", ".join(_render(value) for value in body) + "]"
    return json.dumps(body)


def _nodes(node, kind):
    """Every node of the given kind, outermost first."""
    (own, body), = node
    found = [node] if own == kind else []
    children = [value for _, value in body] if own == "obj" else body if own == "list" else []
    for child in children:
        found.extend(_nodes(child, kind))
    return found


def _seed_bundles() -> list[str]:
    pair = unit_gap_pair()
    trio = shear_trio("1/2", "1/4", "1/4")
    family = CommutingFamily(
        pairs=(DominatedPair(s=pair.s, t=pair.t), DominatedPair(s=pair.s, t=pair.t)),
        base_exponents=(2, 2),
    )
    return [
        emit_bundle(bundle_for_pair(DominatedPair(s=pair.s, t=pair.t), params={"n0": 2})),
        emit_bundle(bundle_for_damped(
            trio.z, trio.t, params={"m": 1, "k": 1, "epsilon": "1/10"}, s=trio.s
        )),
        emit_bundle(bundle_for_family(family)),
        emit_bundle(OperatorBundle(
            space=pair.space,
            operators={"S": pair.s, "T": pair.t},
            roles={"S1": "S", "T1": "T", "S2": "S", "T2": "T"},
            params={"n0": [2, 1], "d": 1},
        )),
    ]


SEEDS = _seed_bundles()
BAD_VALUES = [
    0.5, -1.25, 1e300, True, False, None, "1/0", "0.5", " 1/2", "1e3", "+1", "1_000", "", "x", [], {},
]
MUTATIONS = ("drop", "duplicate", "replace", "row")


@st.composite
def mutated_bundles(draw) -> str:
    doc = _pairs(json.loads(draw(st.sampled_from(SEEDS))))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        mutation = draw(st.sampled_from(MUTATIONS))
        if mutation in ("drop", "duplicate"):
            objects = [node for node in _nodes(doc, "obj") if node[0][1]]
            (_, body), = draw(st.sampled_from(objects))
            i = draw(st.integers(min_value=0, max_value=len(body) - 1))
            if mutation == "drop":
                del body[i]
            else:
                body.insert(i, body[i])
        elif mutation == "replace":
            node = draw(st.sampled_from(_nodes(doc, "leaf") + _nodes(doc, "list")))
            node[0] = ("leaf", draw(st.sampled_from(BAD_VALUES)))
        else:  # change the length of a list: a row, a weight list, an n0 list
            (_, body), = draw(st.sampled_from(_nodes(doc, "list")))
            if body and draw(st.booleans()):
                body.pop()
            else:
                body.append(("leaf", "1/3") if not body else body[-1])
    return _render(doc)


COMMANDS = [
    ["check", "pair-product", "{bundle}", "--n-max", "6"],
    ["check", "damped-powers", "{bundle}", "--n-max", "6"],
    ["check", "family-grid", "{bundle}", "--n-max", "4"],
    ["check", "meet-bound", "{bundle}", "--json"],
    ["trace", "{bundle}", "--n-max", "6"],
    ["certify", "{bundle}", "--d-cap", "2", "--n0-cap", "6"],
]


@given(mutated_bundles(), st.sampled_from(COMMANDS))
@settings(max_examples=100)
def test_cli_answers_mutated_bundles_with_an_exit_code(text, command):
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "fuzz.bundle")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([path if arg == "{bundle}" else arg for arg in command])
    assert code in (0, 2, 3), (code, text, err.getvalue())
    if code == 3:
        assert err.getvalue().startswith("error: ")
