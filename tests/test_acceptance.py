"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single pass line (visible with ``pytest -s``); a failed
assertion is the fail line. Exact criteria use rational equality with zero
tolerance; the p-norm criterion decides its norms against rational bounds.
"""

import time
from fractions import Fraction
from random import Random

from dominion import (
    MatrixOperator,
    MeasureSpace,
    Verdict,
    build_decomposition,
    check_hom_identities,
    compare_l2_norm,
    find_epsilon_certificate,
    operator_modulus,
    p_norm_gap_pair,
    random_positive_contraction,
    random_signed_operator,
    shear_trio,
    unit_gap_pair,
    zero_two_trace,
)
from dominion.sweeps import sweep_dominated_powers, sweep_family_grid, sweep_pair_product

from conftest import modulus_sup_oracle, ref_certificate_scan, sigma_max_uniform_2x2


def _stamp(index: int, name: str, started: float, budget: float | None = None) -> None:
    elapsed = time.monotonic() - started
    if budget is not None:
        assert elapsed < budget, f"criterion {index} exceeded {budget}s ({elapsed:.1f}s)"
        print(f"[criterion {index:2d}] {name}: PASS ({elapsed:.2f}s < {budget:g}s)")
    else:
        print(f"[criterion {index:2d}] {name}: PASS ({elapsed:.2f}s)")


def test_criterion_01_unit_gap_regression():
    started = time.monotonic()
    pair = unit_gap_pair()
    assert (pair.s - pair.t).norm() == Fraction(1)
    assert (pair.s @ pair.s - pair.t @ pair.t).norm() == Fraction(15, 18)
    _stamp(1, "unit gap regression values", started, budget=1.0)


def test_criterion_02_shear_closed_form_grid():
    started = time.monotonic()
    us = (Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1))
    lams = (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(3, 8), Fraction(1, 2))
    points = 0
    for u in us:
        for lam in lams:
            trio = shear_trio(u, 1 - u, lam)
            assert trio.dominance
            engine = (trio.z @ (trio.s - trio.t)).norm()
            assert engine == (1 + u * (1 - 2 * lam)) / 2
            points += 1
    assert points == 20
    _stamp(2, "shear damping closed form on 20-point grid", started, budget=1.0)


def test_criterion_03_dominated_power_sweep():
    started = time.monotonic()
    result = sweep_dominated_powers(200, n=4, n_max=50, seed0=0, denom_cap=64)
    assert result.ok, result.failures
    assert result.passed == 200
    _stamp(3, "200 dominated pairs keep sub-unit gaps to power 50", started, budget=120.0)


def test_criterion_04_product_law_sweeps():
    started = time.monotonic()
    quadruples = sweep_pair_product(100, n=3, n_max=30, seed0=0)
    assert quadruples.ok, quadruples.failures
    assert quadruples.passed == 100
    families = sweep_family_grid(50, n_pairs=3, n=3, m_max=(30, 5, 5), seed0=0)
    assert families.ok, families.failures
    assert families.passed == 50
    _stamp(4, "product-law sweeps (100 quadruples, 50 triples)", started, budget=300.0)


def test_criterion_05_zero_two_traces():
    started = time.monotonic()
    pair = unit_gap_pair()
    identity = MatrixOperator.identity(pair.space)
    # geometric law rests on the exact rescaling of the squared averaging map
    assert pair.s @ pair.s == pair.s * Fraction(5, 6)
    trace = zero_two_trace(identity, pair.s, 1, 1, 20)
    for n in range(1, 21):
        assert trace.norms[n] == Fraction(1, 6) * Fraction(5, 6) ** (n - 1)
    flip = MatrixOperator.permutation(pair.space, (1, 0))
    flip_trace = zero_two_trace(identity, flip, 1, 1, 20)
    assert all(a == 2 for a in flip_trace.norms)
    _stamp(5, "zero-two traces (geometric decay and stuck-at-two)", started)


def test_criterion_06_decomposition_identities():
    started = time.monotonic()
    pair = unit_gap_pair()
    operators = [pair.s, pair.t]
    operators += [random_positive_contraction(seed, 2 + seed % 3) for seed in range(10)]
    checked = 0
    for t in operators:
        for ell in (1, 2, 3, 4):
            for m in (0, 1):
                for k in (1, 2):
                    # the constructor verifies the identity exactly for
                    # every prefix d' <= 4 before returning
                    witness = build_decomposition(t, m, k, ell, 4)
                    assert witness.max_v_norm() <= 2
                    checked += 1
    assert checked == 12 * 4 * 2 * 2
    _stamp(6, "decomposition identity and V-norm bound", started, budget=120.0)


def test_criterion_07_p_norm_counterexample():
    started = time.monotonic()
    pair = p_norm_gap_pair()
    gap = pair.s - pair.t
    # 0.809016 < |S - T|_2 < 0.809018
    assert compare_l2_norm(gap, Fraction(809016, 10**6)) == 1
    assert compare_l2_norm(gap, Fraction(809018, 10**6)) == -1
    # independent Gram polynomial oracle, in floating point
    sigma = Fraction(sigma_max_uniform_2x2(gap))
    assert compare_l2_norm(gap, sigma * (1 - Fraction(1, 10**9))) == 1
    assert compare_l2_norm(gap, sigma * (1 + Fraction(1, 10**9))) == -1
    # |S^2 - T^2|_2 = 1 exactly
    assert compare_l2_norm(pair.s @ pair.s - pair.t @ pair.t, 1) == 0
    _stamp(7, "p = 2 counterexample norms", started, budget=1.0)


def test_criterion_08_hom_transport_identities():
    started = time.monotonic()
    rng = Random(811)
    for trial in range(100):
        n = rng.randint(2, 4)
        if trial % 2 == 0:
            space = MeasureSpace((1,) * n)
            perm = list(range(n))
            rng.shuffle(perm)
            z = MatrixOperator.permutation(space, tuple(perm))
        else:
            space = random_positive_contraction(10_000 + trial, n).space
            z = MatrixOperator.diagonal(
                space,
                tuple(Fraction(rng.randint(0, 8), 8) for _ in range(n)),
            )
        s = random_positive_contraction(20_000 + trial, n, space=space)
        t = random_positive_contraction(30_000 + trial, n, space=space)
        report = check_hom_identities(z, s, t)
        assert report.both_hold, (trial, report)
    _stamp(8, "modulus and meet transport over 100 random pairs", started)


def test_criterion_09_modulus_sup_oracle():
    started = time.monotonic()
    rng = Random(929)
    for trial in range(100):
        n = rng.randint(1, 6)
        a = random_signed_operator(40_000 + trial, n)
        mod = operator_modulus(a)
        for j in range(n):
            x = a.space.vertex(j)
            assert modulus_sup_oracle(a, x) == mod @ x
    _stamp(9, "entrywise modulus equals the defining supremum", started)


def test_criterion_10_certificate_search():
    started = time.monotonic()
    pair = unit_gap_pair()
    identity = MatrixOperator.identity(pair.space)
    search = find_epsilon_certificate(identity, pair.s, 0, 1, Fraction(1, 100))
    assert search.verdict is Verdict.VERIFIED
    assert search.certificate == (1, 17)
    flip = MatrixOperator.permutation(pair.space, (1, 0))
    blocked = find_epsilon_certificate(identity, flip, 0, 1, Fraction(1, 100))
    assert blocked.verdict is Verdict.HYPOTHESIS_UNMET
    _stamp(10, "certificate search outcomes", started)


def test_criterion_10_certificate_search_default_caps_budget():
    # Default caps (d <= 8, n0 <= 10^4) on a 4-point contraction: the
    # galloping search exhausts in O(log n0) products, and Z = I has one d.
    t = random_positive_contraction(7, 4, denom_cap=64)
    identity = MatrixOperator.identity(t.space)
    small = Fraction(1, 10**6)
    expected = ref_certificate_scan(t.space.weights, identity.entries, t.entries, 1, small, 1, 300)
    started = time.monotonic()
    exhausted = find_epsilon_certificate(identity, t, 0, 1, Fraction(1, 10**400))
    assert exhausted.verdict is Verdict.EXHAUSTED
    assert (exhausted.d_cap, exhausted.n0_cap) == (8, 10_000)
    found = find_epsilon_certificate(identity, t, 0, 1, small)
    assert found.certificate == (1, 222)
    assert (found.certificate, found.achieved_norm) == expected
    _stamp(10, "certificate search under default caps", started, budget=10.0)
