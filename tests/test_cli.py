"""Bundle round trips, report rendering, exit codes, and CSV traces."""

import json
import sys
from fractions import Fraction

import pytest

from dominion import (
    MatrixOperator,
    Verdict,
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
    parse_bundle,
    rational_str,
    save_bundle,
)
from dominion.cli import main
from dominion.theorems import check_damped_powers, find_epsilon_certificate


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


class TestRationalRendering:
    def test_canonical_rational_strings(self):
        assert rational_str(Fraction(0)) == "0/1"
        assert rational_str(Fraction(2)) == "2/1"
        assert rational_str(Fraction(-5, 10)) == "-1/2"

    def test_decimal_rendering(self):
        assert decimal_str(Fraction(1, 6)) == "0.166666666667"
        assert decimal_str(Fraction(0)) == "0"
        assert decimal_str(Fraction(5, 4)) == "1.25"


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

    @pytest.mark.parametrize("text", ["0.5", " 1/2 ", "1/2 ", "1e3", "1_000", "+1", "1/-2", "1 / 2", "1/2/3", "", "٣"])
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

    def test_meet_bound(self, gap_bundle_path):
        assert main(["check", "meet-bound", gap_bundle_path, "--m", "0", "--k", "1"]) == 0

    def test_family_grid(self, tmp_path):
        bundle = bundle_for_family(random_commuting_family(3, 3, 3))
        path = tmp_path / "family.bundle"
        save_bundle(bundle, str(path))
        assert main(["check", "family-grid", str(path), "--n-max", "3,3,3"]) == 0

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

    def test_missing_bundle_file(self):
        assert main(["check", "damped-powers", "/no/such/file.bundle"]) == 3


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
        code = main(["example", "lp", "--p", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "MISMATCH" not in captured.err
        assert "|S-T|_2" in captured.err

    def test_invalid_parameters(self, capsys):
        assert main(["example", "1", "--u", "2/3", "--v", "2/3"]) == 3

    @pytest.mark.parametrize("flag", ["--u", "--v", "--lambda"])
    def test_zero_denominator_is_input_error(self, flag, capsys):
        assert main(["example", "1", flag, "2/0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ")
        assert "Traceback" not in err

    def test_nan_exponent_is_input_error(self, capsys):
        assert main(["example", "lp", "--p", "nan"]) == 3
        captured = capsys.readouterr()
        assert "p must exceed 1" in captured.err
        assert captured.out == ""


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
