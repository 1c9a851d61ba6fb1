"""Golden CLI output.

Each ``CASES`` entry writes a deterministic bundle (a gallery construction
or a seeded random family), runs ``dominion check ... --json`` on it in
process, and compares stdout byte for byte with
``tests/golden/<case>.json``. The files pin every verdict, exact value,
failure point and range of the ``pair-product``, ``damped-powers`` and
``family-grid`` reports.

Each ``TRANSCRIPTS`` entry runs one command line of any subcommand (text
reports, traces, certificates, sweeps, examples) and compares its exit
code, stdout and stderr with ``tests/golden/<case>.txt``.

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
from dominion.gallery import random_positive_contraction
from dominion.sweeps import meet_bound_instance

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


def _averaging_s() -> OperatorBundle:
    pair = unit_gap_pair()
    return bundle_for_damped(MatrixOperator.identity(pair.space), pair.s)


def _flip() -> OperatorBundle:
    space = unit_gap_pair().space
    return OperatorBundle(space=space, operators={"T": MatrixOperator.permutation(space, (1, 0))})


def _random_trace(seed: int) -> OperatorBundle:
    t = random_positive_contraction(seed, 4, density=1.0, denom_cap=DENOM_CAP)
    return bundle_for_damped(MatrixOperator.identity(t.space), t)


def _meet_instance(seed: int) -> OperatorBundle:
    z, t, m, k = meet_bound_instance(seed, 3, denom_cap=DENOM_CAP)
    return bundle_for_damped(z, t, params={"m": m, "k": k})


# 10^-400, far below every trace value of the random bundle up to n = 10^4.
TINY = f"1/{10 ** 400}"

# case name -> (bundle builder or None, dominion command line; "{bundle}" is
# replaced by the bundle's path)
TRANSCRIPTS = {
    "trace-averaging": (_averaging_s, "trace {bundle} --n-max 12"),
    "trace-random-7-k2-d1": (lambda: _random_trace(7), "trace {bundle} --k 2 --n-max 15"),
    "trace-meet-5-d3": (lambda: _meet_instance(5), "trace {bundle} --k 2 --d 3 --n-max 10"),
    "certify-found": (_averaging_s, "certify {bundle} --epsilon 1/100"),
    "certify-found-meet-5": (lambda: _meet_instance(5), "certify {bundle} --epsilon 1/50"),
    "certify-found-meet-1-d4": (
        lambda: _meet_instance(1), "certify {bundle} --epsilon 1/20 --d-cap 4 --n0-cap 3"
    ),
    "certify-found-meet-10-d2": (
        lambda: _meet_instance(10), "certify {bundle} --epsilon 1/20 --d-cap 4 --n0-cap 3"
    ),
    "certify-exhausted": (_averaging_s, "certify {bundle} --epsilon 1/100 --d-cap 2 --n0-cap 4"),
    "certify-exhausted-meet-5": (
        lambda: _meet_instance(5), "certify {bundle} --epsilon 1/20 --d-cap 4 --n0-cap 3"
    ),
    "certify-hypothesis-unmet": (_flip, "certify {bundle} --epsilon 1/10"),
    "certify-exhausted-random-7-tiny-epsilon": (
        lambda: _random_trace(7), f"certify {{bundle}} --epsilon {TINY} --d-cap 1 --n0-cap 1000"
    ),
    "certify-found-random-7": (lambda: _random_trace(7), "certify {bundle} --epsilon 1/1000000"),
    "certify-exhausted-meet-8-d8": (
        lambda: _meet_instance(8), "certify {bundle} --epsilon 1/20 --d-cap 8 --n0-cap 5"
    ),
    "check-meet-bound-unit-gap": (_averaging_damped, "check meet-bound {bundle} --m 1 --k 2"),
    "check-meet-bound-unit-gap-json": (
        _averaging_damped, "check meet-bound {bundle} --m 1 --k 2 --json"
    ),
    "check-meet-bound-flip": (_flip, "check meet-bound {bundle}"),
    "check-pair-product-random-11": (
        lambda: _random_family(11, 2), "check pair-product {bundle} --n0 2 --n-max 12"
    ),
    "check-pair-product-unit-gap": (
        lambda: _unit_gap_quadruple({}), "check pair-product {bundle} --n0 1"
    ),
    "check-damped-powers-shear-7-1-4": (
        lambda: _shear(7, 1, 4), "check damped-powers {bundle} --n0 3 --n-max 12"
    ),
    "check-family-grid-random-29": (
        lambda: _random_family(29, 3, (1, 2, 1)), "check family-grid {bundle} --n-max 4,3,3"
    ),
    "sweep-dominated-powers": (None, "sweep dominated-powers --count 6 --n 3 --n-max 12"),
    "sweep-pair-product": (None, "sweep pair-product --count 4 --n 3 --n-max 8 --seed 5"),
    "sweep-meet-bound": (None, "sweep meet-bound --count 9 --seed 7"),
    "example-1": (None, "example 1"),
    "example-1-params": (None, "example 1 --u 1/4 --v 3/4 --lambda 1/2"),
    "example-2": (None, "example 2"),
    "example-2-out": (None, "example 2 --out {bundle}"),
    "example-lp": (None, "example lp"),
}
# The unit-gap S has a_n = (1/6)(5/6)^(n-1) for n >= 1: epsilon at a_16 and
# a_17, with n0 caps on either side of the power of two 16.
for _n in (16, 17):
    for _cap in (16, 17):
        TRANSCRIPTS[f"certify-unit-gap-a{_n}-cap{_cap}"] = (
            _averaging_s,
            f"certify {{bundle}} --epsilon {5 ** (_n - 1)}/{6 ** _n} --n0-cap {_cap}",
        )
for _meet_seed in range(6):
    TRANSCRIPTS[f"check-meet-bound-instance-{_meet_seed}-json"] = (
        lambda s=_meet_seed: _meet_instance(s), "check meet-bound {bundle} --json"
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


def transcript(case: str, workdir: str) -> str:
    """Exit code, stdout and stderr of one ``TRANSCRIPTS`` command line."""
    build, command = TRANSCRIPTS[case]
    path = os.path.join(workdir, f"{case}.bundle")
    if build is not None:
        save_bundle(build(), path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([path if arg == "{bundle}" else arg for arg in command.split()])
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, tmp_path):
    expected = (GOLDEN / f"{case}.json").read_text(encoding="utf-8")
    code, out = render(case, str(tmp_path))
    assert out == expected
    assert code == EXIT_CODES[json.loads(out)["verdict"]]


@pytest.mark.parametrize("case", sorted(TRANSCRIPTS))
def test_transcript_matches_golden(case, tmp_path):
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert transcript(case, str(tmp_path)) == expected


def test_golden_set_is_complete():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(TRANSCRIPTS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name in sorted(CASES):
            (GOLDEN / f"{name}.json").write_text(render(name, workdir)[1], encoding="utf-8")
        for name in sorted(TRANSCRIPTS):
            (GOLDEN / f"{name}.txt").write_text(transcript(name, workdir), encoding="utf-8")
