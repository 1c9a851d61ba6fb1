"""Seeded property sweeps over the random generators.

A sweep draws deterministic instances from a seed stream, skips the ones
whose statement premise fails (the statements are conditional, so such
instances carry no information), and checks the conclusion exactly on the
rest. Failures keep the offending inputs so the caller can dump them for
replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable

from .core import MatrixOperator, MeasureSpace
from .gallery import (
    random_commuting_family,
    random_dominated_pair,
    random_positive_contraction,
    random_rational,
)
from .theorems import (
    CommutingFamily,
    DominatedPair,
    Verdict,
    VerdictReport,
    _exact,
    _first_failure,
    _power_products,
    check_family_grid,
    check_meet_bound,
    check_pair_product,
)

__all__ = [
    "SweepFailure",
    "SweepResult",
    "sweep_dominated_powers",
    "sweep_pair_product",
    "sweep_family_grid",
    "sweep_meet_bound",
    "meet_bound_instance",
]


@dataclass(frozen=True)
class SweepFailure:
    seed: int
    description: str
    payload: object


@dataclass(frozen=True)
class SweepResult:
    kind: str
    requested: int
    checked: int
    passed: int
    skipped: int  # premise-failing instances, drawn but not counted
    seeds_consumed: int
    failures: tuple[SweepFailure, ...]

    @property
    def ok(self) -> bool:
        return self.checked == self.requested and not self.failures


def _sweep(
    kind: str,
    count: int,
    seed0: int,
    draw: Callable[[int], object],
    check: Callable[[object], tuple[Verdict, str]],
) -> SweepResult:
    """Draw ``draw(seed)`` for consecutive seeds until ``count`` instances
    pass their premise. ``check(instance)`` returns the verdict and a
    failure description; HYPOTHESIS_UNMET instances are skipped, and any
    verdict other than VERIFIED is recorded as a failure carrying the
    instance for replay."""
    if count < 1:
        raise ValueError("count must be >= 1")
    checked = passed = skipped = consumed = 0
    failures: list[SweepFailure] = []
    # Skipping premise-failing draws must terminate even for bad parameters.
    guard = max(20 * count, count + 50)
    for seed in range(seed0, seed0 + guard):
        consumed += 1
        instance = draw(seed)
        verdict, description = check(instance)
        if verdict is Verdict.HYPOTHESIS_UNMET:
            skipped += 1
            continue
        checked += 1
        if verdict is Verdict.VERIFIED:
            passed += 1
        else:
            failures.append(SweepFailure(seed=seed, description=description, payload=instance))
        if checked == count:
            break
    else:
        raise RuntimeError(
            f"could not collect {count} premise-satisfying instances within {guard} seeds"
        )
    return SweepResult(kind, count, checked, passed, skipped, consumed, tuple(failures))


def sweep_dominated_powers(
    count: int,
    n: int = 4,
    n_max: int = 50,
    seed0: int = 0,
    density: float = 1.0,
    denom_cap: int | None = None,
) -> SweepResult:
    """Random dominated pairs with gap norm strictly below one must keep
    |S^j - T^j| strictly below one for every j up to n_max, exactly."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")

    def check(pair: DominatedPair) -> tuple[Verdict, str]:
        if pair.gap_norm() >= 1:
            return Verdict.HYPOTHESIS_UNMET, ""
        products = _power_products(pair.s, pair.t, pair.s, pair.t, 1, n_max)
        failure = _first_failure(((j,), s_pow.distance(t_pow)) for j, s_pow, t_pow in products)
        if failure is None:
            return Verdict.VERIFIED, ""
        (j,), gap = failure
        return Verdict.FALSIFIED, f"gap norm {_exact(gap)} at power {j}"

    return _sweep(
        "dominated-powers",
        count,
        seed0,
        lambda seed: random_dominated_pair(seed, n, density=density, denom_cap=denom_cap),
        check,
    )


def _report_outcome(report: VerdictReport, where: str) -> tuple[Verdict, str]:
    description = f"gap norm {_exact(report.failure_norm)} at {where} {report.failure_point}"
    return report.verdict, description


def sweep_pair_product(
    count: int,
    n: int = 3,
    n_max: int = 30,
    degree: int = 2,
    seed0: int = 0,
    denom_cap: int | None = None,
) -> SweepResult:
    """Random commuting quadruples (two dominated pairs, shared polynomial
    base) with the base gap norm below one must verify the product law."""

    def check(family: CommutingFamily) -> tuple[Verdict, str]:
        (p1, p2) = family.pairs
        return _report_outcome(check_pair_product(p1.t, p2.t, p1.s, p2.s, 1, n_max), "n =")

    return _sweep(
        "pair-product",
        count,
        seed0,
        lambda seed: random_commuting_family(seed, 2, n, degree=degree, denom_cap=denom_cap),
        check,
    )


def sweep_family_grid(
    count: int,
    n_pairs: int = 3,
    n: int = 3,
    m_max: tuple[int, ...] = (30, 5, 5),
    degree: int = 2,
    seed0: int = 0,
    denom_cap: int | None = None,
) -> SweepResult:
    """Random commuting families must verify the grid form of the product
    law over the full exponent grid up to m_max."""
    if len(m_max) != n_pairs:
        raise ValueError("m_max needs one bound per pair")
    return _sweep(
        "family-grid",
        count,
        seed0,
        lambda seed: random_commuting_family(seed, n_pairs, n, degree=degree, denom_cap=denom_cap),
        lambda family: _report_outcome(check_family_grid(family, m_max), "grid point"),
    )


def meet_bound_instance(
    seed: int,
    n: int = 3,
    denom_cap: int | None = None,
) -> tuple[MatrixOperator, MatrixOperator, int, int]:
    """Deterministic (Z, T, m, k) with Z a sup-preserving contraction that
    commutes with T by construction.

    Three shapes rotate by seed: a scalar multiple of the identity against
    a general positive contraction, a pair of diagonal contractions, and a
    permutation against the average of a contraction's conjugates under
    that permutation (taken on a uniform space, where permutations have
    norm one).
    """
    rng = Random(seed)
    shape = seed % 3
    m = rng.randint(0, 2)
    k = rng.randint(1, 3)
    if shape == 0:
        t = random_positive_contraction(rng.randrange(2**30), n, denom_cap=denom_cap)
        z = MatrixOperator.identity(t.space) * random_rational(rng, 8)
        return z, t, m, k
    if shape == 1:
        space = MeasureSpace((1,) * n)
        cap = denom_cap or 16
        t = MatrixOperator.diagonal(space, tuple(random_rational(rng, cap) for _ in range(n)))
        z = MatrixOperator.diagonal(space, tuple(random_rational(rng, cap) for _ in range(n)))
        return z, t, m, k
    space = MeasureSpace((1,) * n)
    perm = list(range(n))
    rng.shuffle(perm)
    z = MatrixOperator.permutation(space, tuple(perm))
    raw = random_positive_contraction(rng.randrange(2**30), n, denom_cap=denom_cap, space=space)
    identity = MatrixOperator.identity(space)
    inverse = z.adjoint()  # permutation inverse equals its transpose on uniform weights
    conjugate = raw
    total = raw
    z_power = z
    order = 1
    while z_power != identity:  # sum Z^j raw Z^-j until Z^order is the identity
        conjugate = z @ conjugate @ inverse
        total = total + conjugate
        z_power = z_power @ z
        order += 1
    t = total / order
    return z, t, m, k


def sweep_meet_bound(
    count: int,
    n: int = 3,
    seed0: int = 0,
    denom_cap: int | None = None,
) -> SweepResult:
    """The halving step must hold on every premise-satisfying instance."""

    def check(instance) -> tuple[Verdict, str]:
        z, t, m, k = instance
        report = check_meet_bound(z, t, m, k)
        return report.verdict, f"conclusion norm {_exact(report.failure_norm)} (m={m}, k={k})"

    return _sweep(
        "meet-bound",
        count,
        seed0,
        lambda seed: meet_bound_instance(seed, n, denom_cap=denom_cap),
        check,
    )
