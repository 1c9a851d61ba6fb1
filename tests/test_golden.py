"""Golden ``--json`` reports of the power-gap checkers.

Each case writes a deterministic bundle (a gallery construction or a
seeded random family), runs ``dominion check ... --json`` on it in process,
and compares stdout byte for byte with ``tests/golden/<case>.json``. The
files pin every verdict, exact value, failure point and range of the
``pair-product``, ``damped-powers`` and ``family-grid`` reports.

To record the files from a trusted tree, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from dominion import (
    CommutingFamily,
    DominatedPair,
    MatrixOperator,
    random_commuting_family,
    shear_trio,
    unit_gap_pair,
)
from dominion.bundles import OperatorBundle, bundle_for_damped, bundle_for_family, save_bundle
from dominion.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
DENOM_CAP = 64
EXIT_CODES = {"VERIFIED": 0, "FALSIFIED": 1, "HYPOTHESIS_UNMET": 2}


def _unit_gap_quadruple(params: dict) -> OperatorBundle:
    pair = unit_gap_pair()
    return OperatorBundle(
        space=pair.space,
        operators={"S": pair.s, "T": pair.t},
        roles={"S": "S", "T": "T", "S1": "S", "T1": "T", "S2": "S", "T2": "T"},
        params=params,
    )


def _unit_gap_family(n0s: tuple[int, ...]) -> OperatorBundle:
    pair = unit_gap_pair()
    dominated = DominatedPair(s=pair.s, t=pair.t)
    return bundle_for_family(CommutingFamily(pairs=(dominated,) * len(n0s), base_exponents=n0s))


def _shear(u: int, v: int, lam: int) -> OperatorBundle:
    trio = shear_trio(Fraction(u, 8), Fraction(v, 8), Fraction(lam, 8))
    return bundle_for_damped(trio.z, trio.t, s=trio.s)


def _random_family(seed: int, n_pairs: int, n0s: tuple[int, ...] | None = None) -> OperatorBundle:
    family = random_commuting_family(seed, n_pairs, 3, degree=2, denom_cap=DENOM_CAP)
    if n0s is not None:
        family = CommutingFamily(pairs=family.pairs, base_exponents=n0s)
    return bundle_for_family(family)


def _averaging_damped() -> OperatorBundle:
    pair = unit_gap_pair()
    return bundle_for_damped(MatrixOperator.identity(pair.space), pair.t, s=pair.s)


# case name -> (bundle builder, dominion arguments after the bundle path)
CASES = {
    "pair-product-unit-gap-n0-1": (lambda: _unit_gap_quadruple({}), ["--n0", "1", "--n-max", "10"]),
    "pair-product-unit-gap-params-n0": (lambda: _unit_gap_quadruple({"n0": 2}), []),
    "damped-powers-unit-gap-n0-1": (_averaging_damped, ["--n0", "1"]),
    "damped-powers-unit-gap-n0-2": (_averaging_damped, ["--n0", "2", "--n-max", "25"]),
    "damped-powers-shear-4-4-2": (lambda: _shear(4, 4, 2), ["--n0", "1", "--n-max", "30"]),
    "damped-powers-shear-7-1-4": (lambda: _shear(7, 1, 4), ["--n0", "3", "--n-max", "12"]),
    "damped-powers-shear-8-0-0": (lambda: _shear(8, 0, 0), ["--n0", "1", "--n-max", "5"]),
    "family-grid-unit-gap-1-axis": (lambda: _unit_gap_family((2,)), ["--n-max", "8"]),
    "family-grid-unit-gap-2-axes": (lambda: _unit_gap_family((1, 1)), ["--n-max", "5,5"]),
    "family-grid-unit-gap-3-axes": (lambda: _unit_gap_family((2, 1, 3)), ["--n-max", "4,3,5"]),
}
for _seed in (3, 11, 29, 101):
    CASES[f"pair-product-random-{_seed}"] = (
        lambda s=_seed: _random_family(s, 2), ["--n0", "1", "--n-max", "30"]
    )
    CASES[f"pair-product-random-{_seed}-n0-3"] = (
        lambda s=_seed: _random_family(s, 2), ["--n0", "3", "--n-max", "15"]
    )
    CASES[f"family-grid-random-{_seed}-2-axes"] = (
        lambda s=_seed: _random_family(s, 2), ["--n-max", "12,12"]
    )
    CASES[f"family-grid-random-{_seed}-3-axes"] = (
        lambda s=_seed: _random_family(s, 3, (1, 2, 1)), ["--n-max", "9,4,3"]
    )


def _statement(case: str) -> str:
    return next(s for s in ("pair-product", "damped-powers", "family-grid") if case.startswith(s))


def render(case: str, workdir: str) -> tuple[int, str]:
    """Exit code and stdout of ``dominion check <statement> <bundle> ... --json``."""
    build, extra = CASES[case]
    path = os.path.join(workdir, f"{case}.bundle")
    save_bundle(build(), path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", _statement(case), path, *extra, "--json"])
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, tmp_path):
    expected = (GOLDEN / f"{case}.json").read_text(encoding="utf-8")
    code, out = render(case, str(tmp_path))
    assert out == expected
    assert code == EXIT_CODES[json.loads(out)["verdict"]]


def test_golden_set_is_complete():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name in sorted(CASES):
            (GOLDEN / f"{name}.json").write_text(render(name, workdir)[1], encoding="utf-8")
