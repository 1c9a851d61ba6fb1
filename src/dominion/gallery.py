"""Canonical worked operators and seeded random input generators.

The fixed constructions live on two-point spaces and come with closed-form
norms, so every exact computation in the engine can be validated against a
hand calculation. The random generators build hypothesis-satisfying inputs
(dominated contraction pairs, commuting families) deterministically from an
integer seed; denominators of freshly drawn rationals stay below a
configurable cap so entries remain small over long power iterations.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .core import MatrixOperator, MeasureSpace, RationalLike, rat
from .theorems import CommutingFamily, DominatedPair

__all__ = [
    "DEFAULT_DENOMINATOR_CAP",
    "denominator_cap",
    "ShearTrio",
    "shear_trio",
    "UnitGapPair",
    "unit_gap_pair",
    "PNormGapPair",
    "p_norm_gap_pair",
    "sigma_max_uniform_2x2",
    "random_space",
    "random_rational",
    "random_positive_contraction",
    "random_signed_operator",
    "random_dominated_pair",
    "random_commuting_family",
]

DEFAULT_DENOMINATOR_CAP = 64


def denominator_cap() -> int:
    """Denominator bound for freshly drawn rationals.

    The DOMINION_DENOM_CAP environment variable overrides the default of 64.
    """
    raw = os.environ.get("DOMINION_DENOM_CAP")
    if raw is None:
        return DEFAULT_DENOMINATOR_CAP
    cap = int(raw)
    if cap < 1:
        raise ValueError("DOMINION_DENOM_CAP must be a positive integer")
    return cap


# -- fixed worked constructions -----------------------------------------------


@dataclass(frozen=True)
class ShearTrio:
    """Parametrized damping trio on the uniform two-point space.

    Z is the upper-triangular shear (u, v / 0, u), S the averaging map
    ((x1+x2)/2, x2/2), and T the scaled nilpotent (lam*x2, 0). The norms
    admit closed forms that must agree with the exact engine values:

        |Z| = u + v,    |S| = 1,    |T| = lam,
        |Z(S - T)| = u/2 + |u*(1/2 - lam) + v/2|,

    and the last reduces to (1 + u*(1 - 2*lam)) / 2 on the u + v = 1 slice.
    Domination T <= S holds exactly when 2*lam <= 1.
    """

    u: Fraction
    v: Fraction
    lam: Fraction
    space: MeasureSpace
    z: MatrixOperator
    s: MatrixOperator
    t: MatrixOperator
    z_norm: Fraction
    s_norm: Fraction
    t_norm: Fraction
    damped_gap_norm: Fraction
    z_boundary: bool
    dominance: bool


def shear_trio(
    u: RationalLike,
    v: RationalLike,
    lam: RationalLike,
    require_dominance: bool = False,
) -> ShearTrio:
    """Build the damping trio (Z, S, T) with its closed-form norms.

    Contractivity of Z needs u + v <= 1; the boundary u + v = 1, where the
    damping has norm exactly one, is flagged rather than rejected. The
    dominance condition 2*lam <= 1 is only enforced when requested.
    """
    u, v, lam = rat(u), rat(v), rat(lam)
    if u < 0 or v < 0 or lam < 0:
        raise ValueError("parameters must be nonnegative")
    if u + v > 1:
        raise ValueError("contractivity requires u + v <= 1")
    if require_dominance and 2 * lam > 1:
        raise ValueError("domination requires 2*lam <= 1")
    space = MeasureSpace((1, 1))
    half = Fraction(1, 2)
    z = MatrixOperator(space, ((u, v), (0, u)))
    s = MatrixOperator(space, ((half, half), (0, half)))
    t = MatrixOperator(space, ((0, lam), (0, 0)))
    gap = u / 2 + abs(u * (half - lam) + v / 2)
    return ShearTrio(
        u=u,
        v=v,
        lam=lam,
        space=space,
        z=z,
        s=s,
        t=t,
        z_norm=u + v,
        s_norm=Fraction(1),
        t_norm=lam,
        damped_gap_norm=gap,
        z_boundary=(u + v == 1),
        dominance=(2 * lam <= 1),
    )


@dataclass(frozen=True)
class UnitGapPair:
    """The fixed dominated pair whose gap norm sits exactly at one for the
    first power and drops strictly below one from the second power on.

    S averages both coordinates to x1/2 + x2/3 and T is the nilpotent
    (x2/4, 0). Hand-computed regression values: |S| = 1, |T| = 1/4,
    |S - T| = 1, |S^2 - T^2| = 5/6, and S^2 = (5/6) S entrywise.
    """

    space: MeasureSpace
    s: MatrixOperator
    t: MatrixOperator
    s_norm: Fraction
    t_norm: Fraction
    gap_norm: Fraction
    squared_gap_norm: Fraction


def unit_gap_pair() -> UnitGapPair:
    space = MeasureSpace((1, 1))
    s = MatrixOperator(space, ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 3))))
    t = MatrixOperator(space, ((0, Fraction(1, 4)), (0, 0)))
    return UnitGapPair(
        space=space,
        s=s,
        t=t,
        s_norm=Fraction(1),
        t_norm=Fraction(1, 4),
        gap_norm=Fraction(1),
        squared_gap_norm=Fraction(15, 18),
    )


@dataclass(frozen=True)
class PNormGapPair:
    """The two-point pair that breaks the gap-persistence pattern once the
    ambient norm is a p-norm with p > 1.

    On weights (1/2, 1/2), S averages both coordinates and T sends
    (x1, x2) to (0, x1/2). At p = 2 the gap norm is strictly below one
    while the squared gap norm is exactly one; in the weighted L1 norm the
    exact contrast values are recorded alongside.
    """

    space: MeasureSpace
    s: MatrixOperator
    t: MatrixOperator
    gap_l2: float  # largest singular value of s - t (Gram polynomial oracle)
    squared_gap_l2: float  # largest singular value of s^2 - t^2
    gap_l1: Fraction  # exact weighted column-sum norm of s - t
    squared_gap_l1: Fraction


def p_norm_gap_pair() -> PNormGapPair:
    half = Fraction(1, 2)
    space = MeasureSpace((half, half))
    s = MatrixOperator(space, ((half, half), (half, half)))
    t = MatrixOperator(space, ((0, 0), (half, 0)))
    gap = s - t
    squared_gap = s @ s - t @ t
    return PNormGapPair(
        space=space,
        s=s,
        t=t,
        gap_l2=sigma_max_uniform_2x2(gap),
        squared_gap_l2=sigma_max_uniform_2x2(squared_gap),
        gap_l1=gap.norm(),
        squared_gap_l1=squared_gap.norm(),
    )


def sigma_max_uniform_2x2(a: MatrixOperator) -> float:
    """Largest singular value of a 2x2 operator on a uniform-weight space,
    computed from the characteristic polynomial of the exact Gram matrix.

    On uniform weights the weighted 2-norm ratio reduces to the Euclidean
    one, so this is an independent closed-form oracle for the p = 2
    operator norm.
    """
    if a.space.n != 2:
        raise ValueError("the Gram polynomial oracle is for two-point spaces")
    if len(set(a.space.weights)) != 1:
        raise ValueError("the Gram polynomial oracle needs uniform weights")
    (p, q_), (r, s) = a.entries
    g11 = p * p + r * r
    g12 = p * q_ + r * s
    g22 = q_ * q_ + s * s
    trace = g11 + g22
    det = g11 * g22 - g12 * g12
    disc = trace * trace - 4 * det
    lam_max = (float(trace) + math.sqrt(float(disc))) / 2.0
    return math.sqrt(lam_max)


# -- seeded random generators --------------------------------------------------


def _seeded(seed: int, n: int, denom_cap: int | None) -> tuple[Random, int]:
    """Check the point count ``n``; return the seed's generator and the cap
    on drawn denominators (``denom_cap``, else :func:`denominator_cap`)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Random(seed), denom_cap if denom_cap is not None else denominator_cap()


def random_rational(rng: Random, cap: int) -> Fraction:
    """Uniform-ish rational in [0, 1] with denominator at most ``cap``."""
    den = rng.randint(1, cap)
    return Fraction(rng.randint(0, den), den)


def random_space(rng: Random, n: int, weight_cap: int = 4) -> MeasureSpace:
    """Random weights in [1/weight_cap, weight_cap] with small denominators."""
    return MeasureSpace(tuple(
        Fraction(rng.randint(1, weight_cap), rng.randint(1, weight_cap))
        for _ in range(n)
    ))


def _positive_contraction(
    rng: Random,
    space: MeasureSpace,
    density: float,
    cap: int,
) -> MatrixOperator:
    """Column-substochastic positive matrix built exactly.

    Column j gets integer masses c_i with sum at most a drawn denominator D;
    the entry is mu_j * c_i / (D * mu_i), which makes the weighted column
    sum equal to sum(c_i) / D <= 1 with no normalization step afterwards.
    """
    n = space.n
    mu = space.weights
    columns: list[list[Fraction]] = []
    for j in range(n):
        den = rng.randint(max(2, cap // 2), cap)
        masses = [
            rng.randint(0, den) if rng.random() < density else 0
            for _ in range(n)
        ]
        total = sum(masses)
        if total > den:
            masses = [c * den // total for c in masses]
        columns.append([mu[j] * Fraction(c, den) / mu[i] for i, c in enumerate(masses)])
    rows = tuple(tuple(columns[j][i] for j in range(n)) for i in range(n))
    return MatrixOperator(space, rows)


def random_positive_contraction(
    seed: int,
    n: int,
    density: float = 1.0,
    denom_cap: int | None = None,
    space: MeasureSpace | None = None,
) -> MatrixOperator:
    """Deterministic positive contraction on a random (or given) space."""
    rng, cap = _seeded(seed, n, denom_cap)
    if space is None:
        space = random_space(rng, n)
    return _positive_contraction(rng, space, density, cap)


def random_signed_operator(
    seed: int,
    n: int,
    denom_cap: int | None = None,
    space: MeasureSpace | None = None,
) -> MatrixOperator:
    """Deterministic operator with entries of both signs in [-1, 1]."""
    rng, cap = _seeded(seed, n, denom_cap)
    if space is None:
        space = random_space(rng, n)
    rows = tuple(
        tuple(
            (1 if rng.random() < 0.5 else -1) * random_rational(rng, cap)
            for _ in range(n)
        )
        for _ in range(n)
    )
    return MatrixOperator(space, rows)


def random_dominated_pair(
    seed: int,
    n: int,
    density: float = 1.0,
    denom_cap: int | None = None,
) -> DominatedPair:
    """Deterministic dominated pair: S is a random column-substochastic
    positive matrix and T damps S entrywise by random factors in [0, 1],
    which guarantees 0 <= T <= S and both contraction properties exactly.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng, cap = _seeded(seed, n, denom_cap)
    space = random_space(rng, n)
    s = _positive_contraction(rng, space, density, cap)
    damping = MatrixOperator(space, tuple(
        tuple(random_rational(rng, cap) for _ in range(n)) for _ in range(n)
    ))
    return DominatedPair(s=s, t=s.hadamard(damping))


def random_commuting_family(
    seed: int,
    n_pairs: int,
    n: int,
    degree: int = 2,
    denom_cap: int | None = None,
) -> CommutingFamily:
    """Deterministic commuting family of dominated pairs.

    Every S_i is a polynomial with nonnegative rational coefficients in one
    shared random positive contraction B, rescaled exactly to norm at most
    one; T_i damps the coefficients of S_i by random factors in [0, 1].
    Both the S and the T members are then polynomials in B, so pairwise
    commutation holds by construction; it is still re-verified exactly when
    the family validates itself.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    rng, cap = _seeded(seed, n, denom_cap)
    space = random_space(rng, n)
    base = _positive_contraction(rng, space, 1.0, cap)
    base_powers = [MatrixOperator.identity(space)]
    for _ in range(degree):
        base_powers.append(base_powers[-1] @ base)

    pairs: list[DominatedPair] = []
    for _ in range(n_pairs):
        coeffs = [random_rational(rng, cap) for _ in range(degree + 1)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = Fraction(1, 2)
        damped = [c * random_rational(rng, cap) for c in coeffs]
        s_raw = _polynomial(base_powers, coeffs)
        t_raw = _polynomial(base_powers, damped)
        s_norm = s_raw.norm()
        if s_norm > 1:
            s_raw = s_raw / s_norm
            t_raw = t_raw / s_norm
        pairs.append(DominatedPair(s=s_raw, t=t_raw))
    return CommutingFamily(pairs=tuple(pairs), base_exponents=(1,) * n_pairs)


def _polynomial(
    base_powers: list[MatrixOperator],
    coeffs: list[Fraction],
) -> MatrixOperator:
    acc = MatrixOperator.zero(base_powers[0].space)
    for c, bp in zip(coeffs, base_powers):
        if c != 0:
            acc = acc + bp * c
    return acc
