"""Bundle round trips, report rendering, exit codes, and CSV traces."""

import contextlib
import hashlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dominion
from dominion import (
    MatrixOperator,
    Verdict,
    VerdictReport,
    random_commuting_family,
    random_dominated_pair,
    random_positive_contraction,
    unit_gap_pair,
)
from dominion.bundles import (
    BundleError,
    OperatorBundle,
    bundle_for_damped,
    bundle_for_family,
    bundle_for_pair,
    decimal_str,
    emit_bundle,
    load_bundle,
    parse_bundle,
    rational_str,
    save_bundle,
)
from dominion.cli import build_parser, main
from dominion.sweeps import meet_bound_instance
from dominion.theorems import INTERNAL_INCONSISTENCY_NOTE, check_damped_powers, find_epsilon_certificate

from conftest import noncommuting_t_pairs, ref_decimal_str, ref_parse_bundle


@pytest.fixture
def gap_bundle_path(tmp_path):
    pair = unit_gap_pair()
    bundle = OperatorBundle(
        space=pair.space,
        operators={"S": pair.s, "T": pair.t},
        roles={"S": "S", "T": "T", "S1": "S", "T1": "T", "S2": "S", "T2": "T"},
        params={"n0": 2},
    )
    path = tmp_path / "unit_gap.bundle"
    save_bundle(bundle, str(path))
    return str(path)


@pytest.fixture
def averaging_bundle_path(tmp_path):
    pair = unit_gap_pair()
    bundle = OperatorBundle(space=pair.space, operators={"T": pair.s})
    path = tmp_path / "averaging.bundle"
    save_bundle(bundle, str(path))
    return str(path)


@st.composite
def display_fractions(draw):
    """Fractions for ``decimal_str``, either sign: operands up to 6,000 bits;
    terminating decimals over ``2^a 5^b``; ties at the 13th significant
    digit, exact or nudged off by a relative 10^-14 or less; and values of
    10^12 and up or below 10^-7, which print in exponent form."""
    kind = draw(st.sampled_from(("wide", "terminating", "tie", "exponent")))
    if kind == "wide":
        num = draw(st.integers(0, 2 ** draw(st.integers(0, 6000))))
        q = Fraction(num, draw(st.integers(1, 2 ** draw(st.integers(0, 6000)))))
    elif kind == "terminating":
        den = 2 ** draw(st.integers(0, 400)) * 5 ** draw(st.integers(0, 400))
        q = Fraction(draw(st.integers(0, 10**60)), den)
    elif kind == "tie":
        tie = Fraction(draw(st.integers(10**11, 10**12 - 1)) * 10 + 5)
        tie *= Fraction(10) ** draw(st.integers(-40, 40))
        q = tie * (1 + Fraction(draw(st.sampled_from((-1, 0, 1))), 10 ** draw(st.integers(14, 80))))
    else:
        scale = draw(st.one_of(st.integers(12, 80), st.integers(-80, -8)))
        q = Fraction(draw(st.integers(1, 10**30)), draw(st.integers(1, 10**30))) * Fraction(10) ** scale
    return q * draw(st.sampled_from((1, -1)))


class TestRationalRendering:
    def test_canonical_rational_strings(self):
        assert rational_str(Fraction(0)) == "0/1"
        assert rational_str(Fraction(2)) == "2/1"
        assert rational_str(Fraction(-5, 10)) == "-1/2"

    def test_decimal_rendering(self):
        assert decimal_str(Fraction(1, 6)) == "0.166666666667"
        assert decimal_str(Fraction(-1, 6)) == "-0.166666666667"
        assert decimal_str(Fraction(0)) == "0"
        assert decimal_str(Fraction(5, 4)) == "1.25"
        assert decimal_str(Fraction(10**12)) == "1.00000000000E+12"
        assert decimal_str(Fraction(1, 2**5000)) == "7.07981126105E-1506"

    @settings(max_examples=400)
    @given(display_fractions())
    def test_decimal_matches_full_decimal_division(self, q):
        assert decimal_str(q) == ref_decimal_str(q)


class TestBundleRoundTrip:
    def test_shipped_pair(self):
        pair = unit_gap_pair()
        bundle = bundle_for_pair(
            __import__("dominion").DominatedPair(s=pair.s, t=pair.t),
            params={"n0": 2, "epsilon": "1/100", "n_list": [1, 2, 3]},
        )
        assert parse_bundle(emit_bundle(bundle)) == bundle

    def test_random_pair_bundles(self):
        for seed in range(10):
            bundle = bundle_for_pair(random_dominated_pair(seed, 3))
            assert parse_bundle(emit_bundle(bundle)) == bundle

    def test_random_family_bundles(self):
        for seed in range(5):
            bundle = bundle_for_family(random_commuting_family(seed, 3, 3))
            assert parse_bundle(emit_bundle(bundle)) == bundle

    def test_damped_bundle(self):
        pair = unit_gap_pair()
        identity = MatrixOperator.identity(pair.space)
        bundle = bundle_for_damped(identity, pair.t, params={"m": 0, "k": 1})
        assert parse_bundle(emit_bundle(bundle)) == bundle

    def test_emit_is_deterministic(self):
        bundle = bundle_for_pair(random_dominated_pair(1, 3))
        assert emit_bundle(bundle) == emit_bundle(bundle)


LOOSE_RATIONAL_STRINGS = ["0.5", " 1/2 ", "1/2 ", "1e3", "1_000", "+1", "1/-2", "1 / 2", "1/2/3", "", "٣"]


class TestBundleValidation:
    def test_rejects_decimal_literals(self):
        with pytest.raises(BundleError, match="decimal"):
            parse_bundle('{"space": {"weights": [0.5, 0.5]}}')

    def test_missing_weights(self):
        with pytest.raises(BundleError, match="space.weights"):
            parse_bundle('{"operators": {}}')

    def test_row_shape_diagnostics(self):
        doc = {
            "space": {"weights": ["1/1", "1/1"]},
            "operators": {"S": {"rows": [["1/2", "1/3", "0/1"], ["1/2", "1/3"]]}},
        }
        with pytest.raises(BundleError, match=r"operators.S.rows\[0\]"):
            parse_bundle(json.dumps(doc))

    def test_unknown_role_target(self):
        doc = {
            "space": {"weights": ["1/1"]},
            "operators": {"S": {"rows": [["1/1"]]}},
            "roles": {"T": "missing"},
        }
        with pytest.raises(BundleError, match="roles.T"):
            parse_bundle(json.dumps(doc))

    def test_bad_rational_location(self):
        doc = {
            "space": {"weights": ["1/1", "1/1"]},
            "operators": {"S": {"rows": [["1/2", "x"], ["0/1", "0/1"]]}},
        }
        with pytest.raises(BundleError, match=r"rows\[0\]\[1\]"):
            parse_bundle(json.dumps(doc))

    @pytest.mark.parametrize("text", LOOSE_RATIONAL_STRINGS)
    def test_rejects_loose_rational_strings(self, text):
        doc = {
            "space": {"weights": ["1/1", "1/1"]},
            "operators": {"T": {"rows": [["1/2", text], ["0/1", "0/1"]]}},
        }
        with pytest.raises(BundleError, match=r"operators\.T\.rows\[0\]\[1\]"):
            parse_bundle(json.dumps(doc))

    @pytest.mark.parametrize("text", ["0.5", " 1/2 ", "1e3", "1_000"])
    def test_rejects_loose_weights_and_params(self, text):
        with pytest.raises(BundleError, match=r"space\.weights\[1\]"):
            parse_bundle(json.dumps({"space": {"weights": ["1/1", text]}}))
        doc = {"space": {"weights": ["1/1"]}, "params": {"epsilon": text}}
        with pytest.raises(BundleError, match=r"params\.epsilon"):
            parse_bundle(json.dumps(doc))

    def test_rejects_booleans_as_numbers(self):
        with pytest.raises(BundleError, match=r"space\.weights\[0\]"):
            parse_bundle('{"space": {"weights": [true]}}')
        with pytest.raises(BundleError, match=r"params\.n0"):
            parse_bundle('{"space": {"weights": ["1/1"]}, "params": {"n0": true}}')

    def test_accepts_canonical_rationals_and_integers(self):
        doc = {
            "space": {"weights": ["1/1", 2]},
            "operators": {"T": {"rows": [["-1/2", "3"], ["0", "10/4"]]}},
            "params": {"epsilon": "-7/3", "n0": [1, 2]},
        }
        bundle = parse_bundle(json.dumps(doc))
        assert bundle.space.weights == (1, 2)
        assert bundle.operators["T"].entries == ((Fraction(-1, 2), 3), (0, Fraction(5, 2)))
        assert bundle.param_rational("epsilon") == Fraction(-7, 3)

    def test_rejects_duplicate_operator(self):
        text = (
            '{"space": {"weights": ["1/1"]}, "operators": '
            '{"T": {"rows": [["1/2"]]}, "T": {"rows": [["1/3"]]}}}'
        )
        with pytest.raises(BundleError, match=r"operators\.T: duplicate key"):
            parse_bundle(text)

    @pytest.mark.parametrize("text, where", [
        ('{"space": {"weights": ["1/1"]}, "space": {"weights": ["1/2"]}}', "space"),
        ('{"space": {"weights": ["1/1"], "weights": ["1/2"]}}', r"space\.weights"),
        ('{"space": {"weights": ["1/1"]}, "params": {"k": 1, "k": 2}}', r"params\.k"),
        ('{"space": {"weights": ["1/1"]}, "operators": {"T": {"rows": [["1/2"]], "rows": [["1/3"]]}}}',
         r"operators\.T\.rows"),
        ('{"space": {"weights": ["1/1"]}, "roles": {"T": "T", "T": "S"}}', r"roles\.T"),
    ])
    def test_rejects_duplicate_keys_anywhere(self, text, where):
        with pytest.raises(BundleError, match=where + ": duplicate key"):
            parse_bundle(text)

    def test_loose_bundles_exit_3(self, tmp_path, capsys):
        loose = tmp_path / "loose.bundle"
        loose.write_text('{"space": {"weights": ["1/1"]}, "operators": {"T": {"rows": [["0.5"]]}}}')
        duplicated = tmp_path / "duplicated.bundle"
        duplicated.write_text(
            '{"space": {"weights": ["1/1"]}, "operators": '
            '{"T": {"rows": [["1/2"]]}, "T": {"rows": [["1/3"]]}}}'
        )
        assert main(["trace", str(loose)]) == 3
        assert "operators.T.rows[0][0]" in capsys.readouterr().err
        assert main(["trace", str(duplicated)]) == 3
        assert "operators.T: duplicate key" in capsys.readouterr().err

    def test_missing_role_lookup(self):
        bundle = parse_bundle('{"space": {"weights": ["1/1"]}, "operators": {}}')
        with pytest.raises(BundleError, match="role 'T'"):
            bundle.operator_for_role("T")

    @pytest.mark.parametrize("doc, where, raw", [
        ({"space": {"weights": ["1/0"]}}, "space.weights[0]", "1/0"),
        ({"space": {"weights": ["1", "1"]}, "operators": {"T": {"rows": [["1", "0"], ["0", "7/0"]]}}},
         "operators.T.rows[1][1]", "7/0"),
        ({"space": {"weights": ["1"]}, "params": {"epsilon": "1/0"}}, "params.epsilon", "1/0"),
    ])
    def test_zero_denominators_are_rejected_with_their_location(self, doc, where, raw):
        with pytest.raises(BundleError) as raised:
            parse_bundle(json.dumps(doc))
        assert str(raised.value) == f"{where}: expected a rational p/q with q != 0, got {raw!r}"


def _t_bundle(**fields) -> str:
    """A 1-point bundle with the operator T, its top-level fields replaced by ``fields``."""
    return json.dumps({"space": {"weights": ["1"]}, "operators": {"T": {"rows": [["1/2"]]}}, **fields})


HUGE_DIGITS = "7" * 4400  # past CPython's default 4,300-digit int-string limit


class _Raw(str):
    """A JSON token written verbatim: a float, or an integer too long for ``json.dumps``."""


class _Obj(list):
    """A JSON object as ``(key, value)`` pairs, so that a key may repeat."""


def _dump(node: object) -> str:
    if isinstance(node, _Raw):
        return str(node)
    if isinstance(node, _Obj):
        return "{" + ", ".join(f"{json.dumps(key)}: {_dump(value)}" for key, value in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(_dump, node)) + "]"
    return json.dumps(node)


def _rarely(common, rare):
    """``common``, or one time in twenty ``rare``."""
    return st.integers(0, 19).flatmap(lambda k: rare if k == 0 else common)


_positive_rationals = _rarely(
    st.one_of(
        st.from_regex(r"0{0,2}[1-9][0-9]{0,3}(/0{0,2}[1-9][0-9]{0,2})?", fullmatch=True),
        st.integers(1, 10**6),
    ),
    st.sampled_from([f"{HUGE_DIGITS}/3", _Raw(HUGE_DIGITS)]),
)
_rationals = _rarely(
    st.one_of(
        _positive_rationals,
        st.from_regex(r"-?[0-9]{1,4}(/0{0,2}[1-9][0-9]{0,2})?", fullmatch=True),
        st.integers(-(10**6), 10**6),
        st.sampled_from(["-0", _Raw("-0")]),
    ),
    st.sampled_from([f"-{HUGE_DIGITS}/1000", _Raw("-" + HUGE_DIGITS)]),
)
_zeros = st.sampled_from(["0", "-0", "0/7", "000/01", 0, _Raw("-0")])
_malformed = st.one_of(
    st.sampled_from(LOOSE_RATIONAL_STRINGS),
    st.from_regex(r"-?[0-9]{1,3}/0{1,3}", fullmatch=True),
    st.booleans(),
    st.sampled_from([None, [], _Obj(), "x"]),
)
_floats = st.sampled_from([_Raw("0.5"), _Raw("1e3"), _Raw("-0.0")])


@st.composite
def bundle_texts(draw, loose: bool):
    """Bundle texts on 1 to 3 points with operators S, T and Z, roles and
    params. Every value is well formed unless ``loose``; then up to three
    of the places where a fault fits, numbered in the order they are built,
    get one: a malformed value or float literal, a row or list one too long
    or too short, or a repeated key, at any depth."""
    hits = draw(st.sets(st.integers(0, 50), min_size=1, max_size=3)) if loose else set()
    places = itertools.count()

    def odd() -> bool:
        return next(places) in hits

    def value(good):
        return draw(st.one_of(_malformed, _floats) if odd() else good)

    def obj(pairs: list) -> _Obj:
        if pairs and odd():
            key = draw(st.sampled_from([key for key, _ in pairs]))
            pairs.insert(draw(st.integers(0, len(pairs))), (key, value(_rationals)))
        return _Obj(pairs)

    def length() -> int:
        return n + (draw(st.sampled_from([-1, 1])) if odd() else 0)

    def row(good):
        return [value(good) for _ in range(length())]

    def target():
        return value(st.just("W")) if odd() else draw(st.sampled_from(names))

    n = draw(st.integers(1, 3))
    names = draw(st.lists(st.sampled_from("STZ"), unique=True))
    operators = []
    for name in names:
        entries = _zeros if draw(st.integers(0, 3)) == 0 else _rationals
        rows = [row(entries) for _ in range(length())]
        operators.append((name, obj([("rows", rows)])))
    roles = [(role, target()) for role in draw(st.lists(
        st.sampled_from(["S", "T", "Z", "S1"]), unique=True, max_size=4 if names else 0
    ))]
    params = []
    if draw(st.booleans()):
        params.append(("m", value(st.integers(0, 3))))
    if draw(st.booleans()):
        params.append(("epsilon", value(_rationals)))
    if draw(st.booleans()):
        params.append(("n0", [value(st.integers(1, 5)) for _ in range(draw(st.integers(0, 2)))]))
    top = [
        ("space", obj([("weights", row(_positive_rationals))])),
        ("operators", obj(operators)),
        ("roles", obj(roles)),
        ("params", obj(params)),
    ]
    return _dump(obj(draw(st.permutations(top))))


def _parse_outcome(parse, text: str):
    """The bundle ``parse`` makes of ``text``, or its ``BundleError`` message."""
    try:
        return parse(text)
    except BundleError as exc:
        return f"BundleError: {exc}"


@contextlib.contextmanager
def default_digit_limit():
    """Run the body at CPython's default int-string digit limit, and check
    that it leaves that limit as it found it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
        assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
    finally:
        sys.set_int_max_str_digits(saved)


def assert_parses_like_reference(text: str) -> OperatorBundle | None:
    """At the default digit limit, ``parse_bundle(text)`` equals the
    ``Fraction`` reference parse field for field, operator order included,
    or raises its exact message."""
    with default_digit_limit():
        got, want = _parse_outcome(parse_bundle, text), _parse_outcome(ref_parse_bundle, text)
    if isinstance(want, str):
        assert got == want
        return None
    assert isinstance(got, OperatorBundle)
    assert got.space.weights == want.space.weights
    assert [(name, op.num, op.den) for name, op in got.operators.items()] == [
        (name, op.num, op.den) for name, op in want.operators.items()
    ]
    assert (got.roles, got.params) == (want.roles, want.params)
    assert got == want
    return got


# Texts that the generated ones may miss, by name: each loose string in
# every position, zero denominators, booleans and floats, a duplicate key at
# every depth, and entries past the default digit limit.
LISTED_TEXTS = {
    **{f"entry-loose-{i}": _t_bundle(operators={"T": {"rows": [[text]]}})
       for i, text in enumerate(LOOSE_RATIONAL_STRINGS)},
    **{f"param-loose-{i}": _t_bundle(params={"epsilon": text}) for i, text in enumerate(LOOSE_RATIONAL_STRINGS)},
    **{f"weight-loose-{i}": json.dumps({"space": {"weights": ["1", text]}})
       for i, text in enumerate(LOOSE_RATIONAL_STRINGS)},
    "entry-zero-denominator": _t_bundle(operators={"T": {"rows": [["1/00"]]}}),
    "param-zero-denominator": _t_bundle(params={"epsilon": "-3/000"}),
    "weight-zero-denominator-first": '{"space": {"weights": ["1/0", "x"]}}',
    "entry-before-short-row": '{"space": {"weights": ["1", "1"]}, "operators": {"T": {"rows": [["x", "1"], ["1"]]}}}',
    "zero-denominator-before-boolean":
        '{"space": {"weights": ["1", "1"]}, "operators": {"T": {"rows": [["1", "1"], ["1/0", true]]}}}',
    "weight-boolean": '{"space": {"weights": [true]}}',
    "entry-boolean": '{"space": {"weights": ["1"]}, "operators": {"T": {"rows": [[false]]}}}',
    "param-boolean": '{"space": {"weights": ["1"]}, "params": {"n0": true}}',
    "param-list-boolean": '{"space": {"weights": ["1"]}, "params": {"n0": [1, true]}}',
    "entry-float": '{"space": {"weights": ["1"]}, "operators": {"T": {"rows": [[0.5]]}}}',
    "json-minus-zero": '{"space": {"weights": ["1"]}, "operators": {"T": {"rows": [[-0]]}}}',
    "duplicate-top": '{"space": {"weights": ["1", "1"]}, "space": {"weights": ["1/2"]}}',
    "duplicate-space": '{"space": {"weights": ["1"], "weights": ["1/2"]}}',
    "duplicate-operators": '{"space": {"weights": ["1"]}, "operators": {"T": {"rows": [["1/2"]]}, "T": {"rows": [["1/3"]]}}}',
    "duplicate-operator": '{"space": {"weights": ["1"]}, "operators": {"T": {"rows": [["1/2"]], "rows": [["1/3"]]}}}',
    "duplicate-in-entry": '{"space": {"weights": ["1"]}, "operators": {"T": {"rows": [[{"a": 1, "a": 2}]]}}}',
    "duplicate-roles": '{"space": {"weights": ["1"]}, "roles": {"T": "T", "T": "S"}}',
    "duplicate-params": '{"space": {"weights": ["1"]}, "params": {"k": 1, "k": 2}}',
    "duplicate-in-param": '{"space": {"weights": ["1"]}, "params": {"k": {"a": 1, "a": 2}}, "params": {}}',
    "duplicate-before-float": '{"space": {"weights": ["1"]}, "params": {"k": 1, "k": 2}, "x": 0.5}',
    "duplicate-before-truncation": '{"space": {"weights": ["1"]}, "params": {"k": 1, "k": 2}, "x": ',
    "huge-unreduced": _t_bundle(operators={"T": {"rows": [[f"{HUGE_DIGITS}/{HUGE_DIGITS}0"]]}}),
    "huge-json-integers":
        '{"space": {"weights": [%s]}, "operators": {"T": {"rows": [["-%s/1"]]}}, "params": {"m": %s}}'
        % (HUGE_DIGITS, HUGE_DIGITS, HUGE_DIGITS),
    "leading-zeros-and-minus-zero":
        '{"space": {"weights": ["007/010", "2"]}, "operators": {"T": {"rows": [["-0", "10/4"], [0, "-00/9"]]}}}',
    "all-zero-operator": '{"space": {"weights": ["1", "2"]}, "operators": {"Z": {"rows": [["0", "-0"], [0, "0/5"]]}}}',
}

# Bundles whose operators must come straight from integer pairs: the
# benchmark's meet-bound bundles and the listed valid texts.
BUILT_FROM_PAIRS = {
    **{f"meet-bound-{seed}": emit_bundle(bundle_for_damped(z, t, {"m": m, "k": k}))
       for seed in range(6) for z, t, m, k in [meet_bound_instance(seed, 3, denom_cap=64)]},
    **{name: LISTED_TEXTS[name] for name in
       ["huge-unreduced", "huge-json-integers", "leading-zeros-and-minus-zero", "all-zero-operator"]},
}


class TestParseMatchesReference:
    """``parse_bundle`` builds each operator from integer pairs; the
    ``Fraction`` reference parse is the behaviour it keeps."""

    @settings(max_examples=150)
    @given(bundle_texts(loose=False))
    def test_well_formed_bundles(self, text):
        assert assert_parses_like_reference(text) is not None

    @settings(max_examples=300)
    @given(bundle_texts(loose=True))
    def test_malformed_bundles(self, text):
        assert_parses_like_reference(text)

    @pytest.mark.parametrize("name", LISTED_TEXTS)
    def test_listed_texts(self, name):
        assert_parses_like_reference(LISTED_TEXTS[name])

    @pytest.mark.parametrize("name", BUILT_FROM_PAIRS)
    def test_operators_are_built_without_fraction_rows(self, name):
        text = BUILT_FROM_PAIRS[name]
        with default_digit_limit():
            bundle, ref = parse_bundle(text), ref_parse_bundle(text)
        assert bundle.operators
        assert all(op._entries is None for op in bundle.operators.values())
        for op_name, op in bundle.operators.items():
            assert op == MatrixOperator(ref.space, ref.operators[op_name].entries)


# Each bundle error: the bundle text, the command that reads it and the exact
# message; every case exits 3 with nothing on stdout.
BUNDLE_ERRORS = {
    "not-json": ("{", "trace",
                 "not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    "top-level": ("[]", "trace", "top level: expected an object"),
    "empty-weights": ('{"space": {"weights": []}}', "trace", "space.weights: expected a non-empty list"),
    "bad-weight": ('{"space": {"weights": ["1", "0"]}}', "trace",
                   "space.weights: all weights must be strictly positive"),
    "zero-weight-denominator": ('{"space": {"weights": ["1/0"]}}', "trace",
                                "space.weights[0]: expected a rational p/q with q != 0, got '1/0'"),
    "zero-entry-denominator": (_t_bundle(operators={"T": {"rows": [["1/0"]]}}), "trace",
                               "operators.T.rows[0][0]: expected a rational p/q with q != 0, got '1/0'"),
    "operators": (_t_bundle(operators=[]), "trace", "operators: expected an object"),
    "roles": (_t_bundle(roles={"T": 1}), "trace", "roles: expected an object of strings"),
    "params": (_t_bundle(params=[]), "trace", "params: expected an object"),
    "zero-param-denominator": (_t_bundle(params={"epsilon": "1/0"}), "certify",
                               "params.epsilon: expected a rational p/q with q != 0, got '1/0'"),
    "param-int": (_t_bundle(params={"k": "1/2"}), "trace", "params.k: expected an integer, got '1/2'"),
    "param-rational": (_t_bundle(params={"epsilon": [1]}), "certify",
                       "params.epsilon: expected a rational, got [1]"),
    "param-int-list": (_t_bundle(params={"n0": "1/2"}), "check damped-powers",
                       "params.n0: expected an integer list, got '1/2'"),
}


@pytest.mark.parametrize("case", BUNDLE_ERRORS)
def test_bundle_errors_exit_3_with_their_message(tmp_path, capsys, case):
    text, command, message = BUNDLE_ERRORS[case]
    path = tmp_path / "bad.bundle"
    path.write_text(text)
    assert main([*command.split(), str(path)]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


class TestCheckCommand:
    def test_damped_powers_verified(self, gap_bundle_path, capsys):
        code = main(["check", "damped-powers", gap_bundle_path, "--n0", "2", "--n-max", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: VERIFIED" in out
        assert "base gap norm: 5/6" in out

    def test_damped_powers_unmet_at_one(self, gap_bundle_path, capsys):
        code = main(["check", "damped-powers", gap_bundle_path, "--n0", "1"])
        out = capsys.readouterr().out
        assert code == 2
        assert "verdict: HYPOTHESIS_UNMET" in out
        assert "norm = 1" in out

    def test_pair_product_via_role_aliases(self, gap_bundle_path):
        assert main(["check", "pair-product", gap_bundle_path, "--n0", "1", "--n-max", "10"]) == 0

    def test_pair_product_grid_cap_is_input_error(self, gap_bundle_path, monkeypatch, capsys):
        monkeypatch.setattr("dominion.theorems.GRID_CAP", 10)
        argv = ["check", "pair-product", gap_bundle_path, "--n0", "1", "--n-max"]
        assert main(argv + ["10"]) == 0
        capsys.readouterr()
        assert main(argv + ["11"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: requested grid has 11 points")
        assert captured.out == ""

    def test_meet_bound(self, gap_bundle_path):
        assert main(["check", "meet-bound", gap_bundle_path, "--m", "0", "--k", "1"]) == 0

    def test_family_grid(self, tmp_path):
        bundle = bundle_for_family(random_commuting_family(3, 3, 3))
        path = tmp_path / "family.bundle"
        save_bundle(bundle, str(path))
        assert main(["check", "family-grid", str(path), "--n-max", "3,3,3"]) == 0

    def test_family_grid_names_the_first_noncommuting_members(self, tmp_path, capsys):
        p1, p2 = noncommuting_t_pairs(unit_gap_pair().space)
        bundle = OperatorBundle(
            space=p1.s.space,
            operators={"S": p1.s, "T1": p1.t, "T2": p2.t},
            roles={"S1": "S", "T1": "T1", "S2": "S", "T2": "T2"},
        )
        path = tmp_path / "family.bundle"
        save_bundle(bundle, str(path))
        assert main(["check", "family-grid", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "hypothesis unmet: T_1 and T_2 do not commute\n"
        assert captured.out == ""

    @staticmethod
    def _unit_gap_family(tmp_path, roles: dict, params: dict) -> str:
        pair = unit_gap_pair()
        bundle = OperatorBundle(
            space=pair.space, operators={"S": pair.s, "T": pair.t}, roles=roles, params=params
        )
        path = tmp_path / "family.bundle"
        save_bundle(bundle, str(path))
        return str(path)

    @pytest.mark.parametrize("extra, missing", [({"S3": "S"}, "T3"), ({"T3": "T"}, "S3")])
    def test_family_grid_unpaired_role_is_input_error(self, tmp_path, capsys, extra, missing):
        roles = {"S1": "S", "T1": "T", "S2": "S", "T2": "T", **extra}
        path = self._unit_gap_family(tmp_path, roles, {"n0": 2})
        assert main(["check", "family-grid", path]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: no operator fills role '{missing}'")
        assert captured.out == ""

    @pytest.mark.parametrize("names, roles, stray", [
        (("S", "T", "D"), {"S1": "S", "T1": "T", "S3": "D", "T3": "T"}, "S3"),
        (("S", "T", "D"), {"S1": "S", "T1": "T", "T4": "T"}, "T4"),
        (("S", "T", "D"), {"S0": "D", "T0": "T", "S1": "S", "T1": "T"}, "S0"),
        (("S1", "T1", "S3", "T3"), {}, "S3"),  # operator names fill roles too
    ], ids=["role-S3", "role-T4", "role-S0", "operator-S3"])
    def test_family_grid_role_past_a_numbering_gap_is_input_error(
        self, tmp_path, capsys, names, roles, stray
    ):
        # the stray S_i is 2S, no contraction: once silently left out, with VERIFIED
        pair = unit_gap_pair()
        operators = dict(zip(names, (pair.s, pair.t, pair.s * 2, pair.t)))
        bundle = OperatorBundle(space=pair.space, operators=operators, roles=roles)
        path = tmp_path / "family.bundle"
        save_bundle(bundle, str(path))
        assert main(["check", "family-grid", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: role '{stray}' is outside the pairs family-grid reads")
        assert captured.out == ""

    @pytest.mark.parametrize("flag, n0s", [([], "[2, 2]"), (["--n0", "1"], "[1, 1]"), (["--n0", "3,1"], "[3, 1]")])
    def test_family_grid_n0_flag_overrides_params(self, gap_bundle_path, capsys, flag, n0s):
        # the bundle's params.n0 is 2
        assert main(["check", "family-grid", gap_bundle_path, *flag, "--n-max", "4", "--json"]) == 0
        command = json.loads(capsys.readouterr().out)["command"]
        assert command == f"family-grid(n0={n0s}, m_max=[4, 4])"

    @pytest.mark.parametrize("n0", [0, [2, 0], [-1]])
    def test_family_grid_params_n0_below_one_is_input_error(self, tmp_path, capsys, n0):
        roles = {"S1": "S", "T1": "T", "S2": "S", "T2": "T"}
        path = self._unit_gap_family(tmp_path, roles, {"n0": n0})
        assert main(["check", "family-grid", path]) == 3
        assert capsys.readouterr().err.startswith("error: params.n0: n0 must be >= 1")

    @pytest.mark.parametrize("statement, n0", [
        ("family-grid", "0"), ("family-grid", "2,0"), ("pair-product", "0"), ("damped-powers", "-1"),
    ])
    def test_n0_flag_below_one_is_input_error(self, gap_bundle_path, capsys, statement, n0):
        assert main(["check", statement, gap_bundle_path, "--n0", n0]) == 3
        assert capsys.readouterr().err.startswith("error: --n0: n0 must be >= 1")

    @pytest.mark.parametrize("n0, where", [("1,2,3", "--n0"), (None, "params.n0")])
    def test_family_grid_n0_count_must_match_pairs(self, tmp_path, capsys, n0, where):
        roles = {"S1": "S", "T1": "T", "S2": "S", "T2": "T"}
        path = self._unit_gap_family(tmp_path, roles, {"n0": [2, 2, 2]})
        argv = ["check", "family-grid", path] + (["--n0", n0] if n0 else [])
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith(f"error: {where}: expected 2 values, got 3")

    def test_missing_role_is_input_error(self, averaging_bundle_path):
        # bundle has role T only; the damped-powers checker needs S as well
        assert main(["check", "damped-powers", averaging_bundle_path]) == 3

    def test_json_report(self, gap_bundle_path, capsys):
        code = main(["check", "damped-powers", gap_bundle_path, "--n0", "2", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "VERIFIED"
        assert doc["values"]["base gap norm"] == "5/6"

    def test_bad_flag_is_input_error(self, gap_bundle_path, capsys):
        assert main(["check", "damped-powers", gap_bundle_path, "--n0", "x"]) == 3

    def test_non_integer_n_max_is_input_error(self, gap_bundle_path, capsys):
        assert main(["check", "damped-powers", gap_bundle_path, "--n-max", "x"]) == 3
        assert capsys.readouterr() == ("", "error: --n-max: expected an integer, got 'x'\n")

    def test_family_grid_without_pairs_is_input_error(self, averaging_bundle_path, capsys):
        assert main(["check", "family-grid", averaging_bundle_path]) == 3
        assert capsys.readouterr() == ("", "error: family-grid needs roles S1/T1 (and onward)\n")

    def test_family_grid_reads_five_past_each_base_exponent_by_default(self, gap_bundle_path, capsys):
        assert main(["check", "family-grid", gap_bundle_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("command: family-grid(n0=[2, 2], m_max=[7, 7])\n")
        assert "conclusion range: 2..7, 2..7\n" in out

    def test_falsified_report_names_its_failure_and_note(self, gap_bundle_path, monkeypatch, capsys):
        """The statements never fail, so a walk that yields the point (1, 3)
        past the base stands in: the report names n = 3, with norm 1, and
        the note, in text and in ``--json``."""
        monkeypatch.setattr(dominion.theorems, "_unit_gap_points", lambda *args: iter([(1, 3)]))
        argv = ["check", "pair-product", gap_bundle_path, "--n0", "1", "--n-max", "3"]
        assert main(argv) == 1
        assert capsys.readouterr().out.endswith(
            "base gap norm: 5/6 (0.833333333333)\n"
            "failure at (3) with norm 1/1 (1)\n"
            f"note: {INTERNAL_INCONSISTENCY_NOTE}\n"
            "verdict: FALSIFIED\n"
        )
        assert main([*argv, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [doc[key] for key in ("failure_point", "failure_norm", "notes", "verdict")] == [
            [3], "1/1", [INTERNAL_INCONSISTENCY_NOTE], "FALSIFIED"
        ]

    def test_missing_bundle_file(self):
        assert main(["check", "damped-powers", "/no/such/file.bundle"]) == 3


class TestUnreadFlags:
    """A flag that the chosen statement never reads is an input error that
    names the flag and the statement, not a silent no-op."""

    @pytest.mark.parametrize("argv, flag, statement", [
        (["check", "meet-bound", "B", "--n0", "7", "--n-max", "5"], "--n0", "check meet-bound"),
        (["check", "pair-product", "B", "--m", "3", "--k", "9"], "--m", "check pair-product"),
        (["check", "family-grid", "B", "--m", "3"], "--m", "check family-grid"),
        (["sweep", "meet-bound", "--count", "2", "--n-max", "9"], "--n-max", "sweep meet-bound"),
    ], ids=["check-meet-bound-n0-n-max", "check-pair-product-m-k", "check-family-grid-m",
            "sweep-meet-bound-n-max"])
    def test_unread_flag_is_input_error(self, gap_bundle_path, capsys, argv, flag, statement):
        argv = [gap_bundle_path if a == "B" else a for a in argv]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag}: {statement} does not read this flag\n"
        assert captured.out == ""


class TestTraceCommand:
    def test_geometric_rows(self, averaging_bundle_path, tmp_path, capsys):
        out_path = tmp_path / "trace.csv"
        code = main([
            "trace", averaging_bundle_path,
            "--k", "1", "--d", "1", "--n-max", "5", "--out", str(out_path),
        ])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "n,norm_exact,norm_decimal"
        exact = [line.split(",")[1] for line in lines[1:]]
        assert exact == ["1/1", "1/6", "5/36", "25/216", "125/1296", "625/7776"]
        assert lines[1] == "0,1/1,1"
        assert lines[2] == "1,1/6,0.166666666667"

    def test_non_commuting_bundle_is_hypothesis_unmet(self, tmp_path, capsys):
        space = unit_gap_pair().space
        up = MatrixOperator(space, ((0, "1/2"), (0, 0)))
        down = MatrixOperator(space, ((0, 0), ("1/2", 0)))
        path = tmp_path / "shift.bundle"
        save_bundle(OperatorBundle(space=space, operators={"Z": up, "T": down}), str(path))
        assert main(["trace", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "hypothesis unmet: Z and T do not commute\n"
        assert captured.out == ""

    def test_identity_rows_are_zero(self, tmp_path, capsys):
        pair = unit_gap_pair()
        identity = MatrixOperator.identity(pair.space)
        path = tmp_path / "id.bundle"
        save_bundle(OperatorBundle(space=pair.space, operators={"T": identity}), str(path))
        code = main(["trace", str(path), "--n-max", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[1:] == ["0,0/1,0", "1,0/1,0", "2,0/1,0", "3,0/1,0"]

    def test_byte_identical_reruns(self, averaging_bundle_path, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert main(["trace", averaging_bundle_path, "--n-max", "8", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().endswith(b"\n")
        assert b"\r" not in a.read_bytes()

    def test_unwritable_path(self, averaging_bundle_path):
        code = main(["trace", averaging_bundle_path, "--out", "/no/such/dir/x.csv"])
        assert code == 3

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no digit limit"
    )
    def test_values_past_the_int_digit_limit(self, tmp_path, capsys):
        t = random_positive_contraction(5, 4, density=1.0, denom_cap=64)
        path = tmp_path / "t.bundle"
        save_bundle(bundle_for_damped(MatrixOperator.identity(t.space), t), str(path))
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code = main(["trace", str(path), "--n-max", "150"])
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(saved)
        assert code == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 152
        assert max(len(row.split(",")[1]) for row in rows[1:]) > 2 * 640

    def test_workload_scale_digest(self, tmp_path, capsys):
        """The benchmark's trace shape, 4 dense points and 250 steps, pinned
        by the SHA-256 of its CSV; rows reach 2,190 characters."""
        t = random_positive_contraction(31_000_017, 4, density=1.0, denom_cap=64)
        path = tmp_path / "t.bundle"
        save_bundle(bundle_for_damped(MatrixOperator.identity(t.space), t), str(path))
        assert main(["trace", str(path), "--k", "1", "--d", "1", "--n-max", "250"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == (
            "0b2e7ff30db51205cca3a61a9444e2839d959da77677bc14c9e564306adfebe6"
        )


class TestParserReuse:
    """``main`` builds its parser once per process, and no call leaves a
    flag, default or output path behind for the next."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    @staticmethod
    def run_alone(argv: list[str]) -> tuple[int, bytes, bytes]:
        """Exit code, stdout and stderr of ``argv`` in a fresh interpreter."""
        src = Path(dominion.__file__).resolve().parent.parent
        done = subprocess.run(
            [sys.executable, "-m", "dominion.cli", *argv],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            check=False,
        )
        return done.returncode, done.stdout, done.stderr

    @pytest.mark.parametrize("first, first_code", [
        (["--bogus"], 3),
        (["--k", "2"], 0),
        (["--out", "{out}"], 0),
    ])
    def test_a_later_trace_matches_a_fresh_process(
        self, averaging_bundle_path, tmp_path, capsys, first, first_code
    ):
        out = tmp_path / "first.csv"
        argv = ["trace", averaging_bundle_path]
        assert main(argv + [arg.format(out=out) for arg in first]) == first_code
        capsys.readouterr()
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out.encode(), captured.err.encode()) == self.run_alone(argv)
        assert captured.out.splitlines()[2] == "1,1/6,0.166666666667"  # k = 1, on stdout
        assert out.exists() == (first[0] == "--out")


class TestExampleCommand:
    def test_unit_gap_regressions_match(self, capsys):
        code = main(["example", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "MISMATCH" not in captured.err
        assert captured.err.count("MATCH") == 4
        bundle = parse_bundle(captured.out)
        assert "S" in bundle.operators and "T" in bundle.operators

    def test_shear_trio_with_parameters(self, capsys, tmp_path):
        out = tmp_path / "trio.bundle"
        code = main([
            "example", "1", "--u", "1/2", "--v", "1/2", "--lambda", "1/4",
            "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "|Z(S-T)|: expected 5/8" in captured.out
        assert "MISMATCH" not in captured.out
        bundle = parse_bundle(out.read_text())
        assert bundle.params["lambda"] == "1/4"

    def test_lp_counterexample(self, capsys):
        code = main(["example", "lp"])
        captured = capsys.readouterr()
        assert code == 0
        assert "MISMATCH" not in captured.err
        assert "|S-T|_2 vs 1: expected <, computed <, MATCH" in captured.err
        assert "|S^2-T^2|_2 vs 1: expected =, computed =, MATCH" in captured.err

    def test_invalid_parameters(self, capsys):
        assert main(["example", "1", "--u", "2/3", "--v", "2/3"]) == 3

    @pytest.mark.parametrize("flag", ["--u", "--v", "--lambda"])
    def test_zero_denominator_is_input_error(self, flag, capsys):
        assert main(["example", "1", flag, "2/0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, flag", [
        (["example", "2", "--u", "1/3", "--lambda", "9/10"], "--u"),
        (["example", "2", "--lambda", "9/10"], "--lambda"),
        (["example", "lp", "--v", "1/5"], "--v"),
    ])
    def test_shear_flags_outside_example_1_are_input_errors(self, argv, flag, capsys):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag}: example {argv[1]} does not read this flag\n"
        assert captured.out == ""

    def test_example_1_defaults_apply_per_flag(self, capsys):
        assert main(["example", "1", "--v", "1/2"]) == 0
        defaults = capsys.readouterr().out
        assert main(["example", "1", "--u", "1/2", "--v", "1/2", "--lambda", "1/4"]) == 0
        assert capsys.readouterr().out == defaults
        assert main(["example", "1", "--lambda", "1/2"]) == 0
        params = parse_bundle(capsys.readouterr().out).params
        assert (params["u"], params["v"], params["lambda"]) == ("1/2", "1/2", "1/2")


class TestSweepCommand:
    def test_small_sweeps_pass(self, capsys):
        assert main(["sweep", "dominated-powers", "--count", "5", "--n", "3", "--n-max", "10"]) == 0
        out = capsys.readouterr().out
        assert "5/5 passed" in out

    def test_deterministic_output(self, capsys):
        argv = ["sweep", "meet-bound", "--count", "4", "--seed", "7", "--n", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("n_max", ["0", "-5"])
    def test_n_max_below_one_is_input_error(self, n_max, capsys):
        assert main(["sweep", "dominated-powers", "--count", "2", "--n-max", n_max]) == 3
        captured = capsys.readouterr()
        assert "n_max must be >= 1" in captured.err
        assert captured.out == ""

    def test_pair_product_sweep(self, capsys):
        assert main(["sweep", "pair-product", "--count", "3", "--n", "3", "--n-max", "8"]) == 0

    def test_failure_dump_produces_replayable_bundle(self, tmp_path):
        from dominion.cli import _dump_failure
        from dominion.sweeps import SweepFailure

        pair = random_dominated_pair(42, 3)
        failure = SweepFailure(seed=42, description="staged", payload=pair)
        path = _dump_failure("dominated-powers", failure, str(tmp_path))
        replayed = parse_bundle(open(path).read())
        assert replayed.operator_for_role("S") == pair.s
        assert replayed.operator_for_role("T") == pair.t

    @pytest.mark.parametrize("kind", ["pair-product", "meet-bound"])
    def test_each_payload_dumps_a_bundle_that_reloads_equal(self, tmp_path, monkeypatch, capsys, kind):
        """A forced FALSIFIED check (the statements never fail) makes the
        sweep write a replay bundle of its payload, a ``CommutingFamily`` or
        ``(Z, T, m, k)``, whose operators and params reload equal."""
        falsified = VerdictReport("c", (), Verdict.FALSIFIED, failure_point=(2,), failure_norm=Fraction(1))
        checker = "check_pair_product" if kind == "pair-product" else "check_meet_bound"
        monkeypatch.setattr(dominion.sweeps, checker, lambda *args: falsified)
        assert main(["sweep", kind, "--count", "1", "--n", "3", "--seed", "5", "--out", str(tmp_path)]) == 1
        path = tmp_path / f"sweep-{kind}-seed5.bundle"
        if kind == "pair-product":
            family = random_commuting_family(5, 2, 3, degree=2)
            operators = {f"{x}{i}": getattr(p, x.lower()) for i, p in enumerate(family.pairs, 1) for x in "ST"}
            params, description = {"n0": list(family.base_exponents)}, "gap norm 1 at n = (2,)"
        else:
            z, t, m, k = meet_bound_instance(5, 3)
            operators, params = {"T": t, "Z": z}, {"m": m, "k": k}
            description = f"conclusion norm 1 (m={m}, k={k})"
        assert capsys.readouterr().out.endswith(f"FAILURE seed 5: {description}; replay bundle: {path}\n")
        replayed = load_bundle(str(path))
        assert (replayed.operators, replayed.params) == (operators, params)

    def test_unwritable_replay_bundle_keeps_falsified_exit(self, tmp_path, monkeypatch, capsys):
        import dominion.cli
        from dominion.sweeps import SweepFailure, SweepResult

        failure = SweepFailure(seed=42, description="staged", payload=random_dominated_pair(42, 3))

        def one_failure(count, **kwargs):
            return SweepResult("dominated-powers", count, 1, 0, 0, 1, (failure,))

        monkeypatch.setattr(dominion.cli, "sweep_dominated_powers", one_failure)
        missing = tmp_path / "missing"
        code = main(["sweep", "dominated-powers", "--count", "1", "--out", str(missing)])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAILURE seed 42: staged" in captured.out
        assert "replay bundle for seed 42 could not be written" in captured.err
        assert not missing.exists()


class TestCertifyCommand:
    def test_certificate_found(self, averaging_bundle_path, capsys):
        code = main([
            "certify", averaging_bundle_path,
            "--m", "0", "--k", "1", "--epsilon", "1/100",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "certificate: d = 1, n0 = 17" in out

    def test_premise_failure(self, tmp_path, capsys):
        space = unit_gap_pair().space
        flip = MatrixOperator.permutation(space, (1, 0))
        path = tmp_path / "flip.bundle"
        save_bundle(OperatorBundle(space=space, operators={"T": flip}), str(path))
        code = main(["certify", str(path), "--epsilon", "1/10"])
        out = capsys.readouterr().out
        assert code == 2
        assert "HYPOTHESIS_UNMET" in out

    def test_zero_denominator_epsilon_is_input_error(self, averaging_bundle_path, capsys):
        assert main(["certify", averaging_bundle_path, "--epsilon", "1/0"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --epsilon: ")
        assert captured.out == ""

    @pytest.mark.parametrize("raw", ["1e-3", "0.5", " 1/2 ", "1_000", "٣"])
    @pytest.mark.parametrize("argv", [["certify", "{bundle}", "--epsilon"], ["example", "1", "--u"],
                                      ["example", "1", "--v"], ["example", "1", "--lambda"]])
    def test_rational_flags_follow_the_bundle_grammar(self, averaging_bundle_path, capsys, argv, raw):
        argv = [arg.format(bundle=averaging_bundle_path) for arg in argv]
        assert main([*argv, raw]) == 3
        assert capsys.readouterr() == ("", f"error: {argv[-1]}: expected a rational p/q with q != 0, got {raw!r}\n")

    def test_exhaustion_exit(self, averaging_bundle_path, capsys):
        code = main([
            "certify", averaging_bundle_path,
            "--epsilon", "1/100", "--d-cap", "1", "--n0-cap", "4",
        ])
        out = capsys.readouterr().out
        assert code == 2
        assert "EXHAUSTED" in out


def _lifted_str(value) -> str:
    """``str(value)`` computed with the digit limit switched off."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no digit limit"
)
class TestLibraryPastTheIntDigitLimit:
    """Library render and parse paths print and read exact values of any
    size at CPython's default limit, and leave that limit as they found it."""

    @pytest.fixture(autouse=True)
    def default_limit(self):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        yield sys.int_info.default_max_str_digits
        assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
        sys.set_int_max_str_digits(saved)

    @pytest.fixture
    def t(self):
        return random_positive_contraction(5, 4, density=1.0, denom_cap=64)

    def test_rational_str_of_a_high_power_entry(self, t, default_limit):
        q = (t**900).entries[0][0]
        with pytest.raises(ValueError):
            str(q.denominator)
        rendered = rational_str(q)
        assert rendered == f"{_lifted_str(q.numerator)}/{_lifted_str(q.denominator)}"
        assert len(rendered) > default_limit

    def test_emit_and_parse_a_high_power(self, t):
        high = t**900
        bundle = bundle_for_damped(MatrixOperator.identity(t.space), high)
        text = emit_bundle(bundle)
        assert rational_str(high.entries[3][2]) in text
        assert parse_bundle(text) == bundle

    def test_param_rational_of_a_long_epsilon(self, default_limit):
        epsilon = Fraction(-1, 3**9100)
        bundle = parse_bundle(_t_bundle(params={"epsilon": f"-1/{_lifted_str(epsilon.denominator)}"}))
        assert bundle.param_rational("epsilon") == epsilon

    def test_certificate_command_with_a_long_epsilon(self, t):
        epsilon = Fraction(1, 3**9100)
        search = find_epsilon_certificate(
            MatrixOperator.identity(t.space), t, 0, 1, epsilon, d_cap=1, n0_cap=3
        )
        assert search.command == f"certificate(m=0, k=1, epsilon={_lifted_str(epsilon)})"
        assert search.verdict is Verdict.EXHAUSTED

    def test_damped_powers_detail_of_a_high_power(self, t, default_limit):
        report = check_damped_powers(MatrixOperator.identity(t.space), t, t / 2, 900, 900)
        base = dict(report.values)["base gap norm"]
        detail = report.hypotheses[-1].detail
        assert detail == f"norm = {_lifted_str(base)}"
        assert len(detail) > default_limit
        assert report.verdict is Verdict.VERIFIED
