"""Canonical worked operators and seeded random input generators.

The fixed constructions live on two-point spaces and come with closed-form
norms, so every exact computation in the engine can be validated against a
hand calculation. The random generators build hypothesis-satisfying inputs
(dominated contraction pairs, commuting families) deterministically from an
integer seed; denominators of freshly drawn rationals are at most the
``denom_cap`` argument (64 by default) so entries remain small over long
power iterations.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .core import MatrixOperator, MeasureSpace, Numerators, RationalLike, _column_norm, _scaled, rat
from .theorems import CommutingFamily, DominatedPair

__all__ = [
    "DEFAULT_DENOMINATOR_CAP",
    "ShearTrio",
    "shear_trio",
    "UnitGapPair",
    "unit_gap_pair",
    "PNormGapPair",
    "p_norm_gap_pair",
    "random_space",
    "random_rational",
    "random_positive_contraction",
    "random_signed_operator",
    "random_dominated_pair",
    "random_commuting_family",
]

DEFAULT_DENOMINATOR_CAP = 64


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
) -> ShearTrio:
    """Build the damping trio (Z, S, T) with its closed-form norms.

    Contractivity of Z needs u + v <= 1; the boundary u + v = 1, where the
    damping has norm exactly one, is flagged rather than rejected. So is a
    failure of the dominance condition 2*lam <= 1 (``dominance``).
    """
    u, v, lam = rat(u), rat(v), rat(lam)
    if u < 0 or v < 0 or lam < 0:
        raise ValueError("parameters must be nonnegative")
    if u + v > 1:
        raise ValueError("contractivity requires u + v <= 1")
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
    (x1, x2) to (0, x1/2). At p = 2 the gap norm is
    ``((3 + 5^(1/2)) / 8)^(1/2) = 0.809...``, strictly below one, while the
    squared gap norm is exactly one. ``gap_l2`` and ``squared_gap_l2``
    record these as the expected signs of ``norm - 1`` that
    :func:`~dominion.core.compare_l2_norm` returns; in the weighted L1 norm,
    where the gap already reaches one, the exact contrast values are
    recorded alongside.
    """

    space: MeasureSpace
    s: MatrixOperator
    t: MatrixOperator
    gap_l2: int  # sign of |s - t|_2 - 1
    squared_gap_l2: int  # sign of |s^2 - t^2|_2 - 1
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
        gap_l2=-1,
        squared_gap_l2=0,
        gap_l1=gap.norm(),
        squared_gap_l1=squared_gap.norm(),
    )


# -- seeded random generators --------------------------------------------------
# Each operator is drawn as integer numerators over one denominator, reduced
# by one gcd; values and generator calls are those of a per-entry Fraction draw.


def _seeded(seed: int, n: int, denom_cap: int | None, least_cap: int = 2) -> tuple[Random, int]:
    """Check the point count ``n`` and the cap; return the seed's generator
    and the cap on drawn denominators (``denom_cap``, else
    ``DEFAULT_DENOMINATOR_CAP``), which must be at least ``least_cap``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cap = DEFAULT_DENOMINATOR_CAP if denom_cap is None else denom_cap
    if cap < least_cap:
        raise ValueError(f"denom_cap must be >= {least_cap}, got {cap}")
    return Random(seed), cap


def _random_pair(rng: Random, cap: int) -> tuple[int, int]:
    """``(p, q)`` with ``0 <= p <= q <= cap``, the rational p/q unreduced."""
    den = rng.randint(1, cap)
    return rng.randint(0, den), den


def random_rational(rng: Random, cap: int) -> Fraction:
    """Uniform-ish rational in [0, 1] with denominator at most ``cap``."""
    return Fraction(*_random_pair(rng, cap))


def random_space(rng: Random, n: int) -> MeasureSpace:
    """Random weights in [1/4, 4] with denominators at most 4."""
    return MeasureSpace(tuple(
        Fraction(rng.randint(1, 4), rng.randint(1, 4))
        for _ in range(n)
    ))


def _positive_contraction(
    rng: Random,
    space: MeasureSpace,
    density: float,
    cap: int,
) -> MatrixOperator:
    """Column-substochastic positive matrix built exactly.

    Column j gets integer masses c_i with sum at most a drawn denominator
    D_j. With the integer weights ``w`` the entry is w_j c_i / (D_j w_i),
    over lcm(D) lcm(w), which makes the weighted column sum equal to
    sum(c_i) / D_j <= 1 with no normalization step afterwards.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    n = space.n
    w = space._integer_weights
    dens, columns = [], []
    for _ in range(n):
        den = rng.randint(max(2, cap // 2), cap)
        masses = [
            rng.randint(0, den) if rng.random() < density else 0
            for _ in range(n)
        ]
        total = sum(masses)
        if total > den:
            masses = [c * den // total for c in masses]
        dens.append(den)
        columns.append(masses)
    den_lcm, w_lcm = math.lcm(*dens), math.lcm(*w)
    col_scales = [w_j * (den_lcm // d) for w_j, d in zip(w, dens)]
    num = tuple(
        tuple(c[i] * s * (w_lcm // w_i) for c, s in zip(columns, col_scales))
        for i, w_i in enumerate(w)
    )
    return MatrixOperator._from_numerators(space, num, den_lcm * w_lcm)


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
    rng, cap = _seeded(seed, n, denom_cap, least_cap=1)
    if space is None:
        space = random_space(rng, n)
    rows = [
        [(1 if rng.random() < 0.5 else -1, *_random_pair(rng, cap)) for _ in range(n)]
        for _ in range(n)
    ]
    return MatrixOperator._from_pairs(space, [[(sign * p, q) for sign, p, q in row] for row in rows])


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
    rng, cap = _seeded(seed, n, denom_cap)
    space = random_space(rng, n)
    s = _positive_contraction(rng, space, density, cap)
    damping = MatrixOperator._from_pairs(space, [[_random_pair(rng, cap) for _ in range(n)] for _ in range(n)])
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
    base_powers = [MatrixOperator.identity(space), base][: degree + 1]
    for _ in range(degree - 1):
        base_powers.append(base_powers[-1] @ base)

    pairs: list[DominatedPair] = []
    for _ in range(n_pairs):
        coeffs = [_random_pair(rng, cap) for _ in range(degree + 1)]
        if not any(p for p, _ in coeffs):
            coeffs[0] = (1, 2)
        factors = [_random_pair(rng, cap) for _ in coeffs]
        damped = [(p * fp, q * fq) for (p, q), (fp, fq) in zip(coeffs, factors)]
        s_num, s_den = _polynomial(base_powers, coeffs)
        norm = _column_norm(space._integer_weights, zip(*s_num), s_den)
        p, q = max(norm, Fraction(1)).as_integer_ratio()  # S_i, T_i get divided by p / q
        s, t = (
            MatrixOperator._from_numerators(space, _scaled(num, q), den * p)
            for num, den in ((s_num, s_den), _polynomial(base_powers, damped))
        )
        pairs.append(DominatedPair(s=s, t=t))
    return CommutingFamily(pairs=tuple(pairs), base_exponents=(1,) * n_pairs)


def _polynomial(
    base_powers: list[MatrixOperator], coeffs: list[tuple[int, int]]
) -> tuple[Numerators, int]:
    """Numerators and denominator of sum_k (p_k / q_k) B^k, unreduced, over
    the lcm of the denominators of the terms with p_k != 0."""
    den = math.lcm(*(q * bp.den for (p, q), bp in zip(coeffs, base_powers) if p))
    factors = [p * den // (q * bp.den) for (p, q), bp in zip(coeffs, base_powers)]
    num = tuple(
        tuple(sum(map(operator.mul, factors, entries)) for entries in zip(*rows))
        for rows in zip(*(bp.num for bp in base_powers))
    )
    return num, den
