"""Executable checkers for the dominated-contraction statements.

Every checker validates its hypotheses exactly before touching the
conclusion, and the two failure modes stay distinct: an unmet hypothesis
produces a HYPOTHESIS_UNMET report, while an exact conclusion failure under
verified hypotheses produces FALSIFIED together with a note that this
indicates a transcription or implementation bug (the statements themselves
are established results, and a finite exact check cannot refute them).

Conclusions are quantified over all exponents; a finite tool checks a
caller-chosen range and says so. Where a monotonicity argument applies
(the zero-two trace sequence is exactly nonincreasing), a prefix check
upgrades to a tail guarantee and the report records which kind was earned.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .calculus import is_lattice_homomorphism, operator_meet
from .core import (
    InternalConsistencyError,
    MatrixOperator,
    RationalLike,
    rat,
    unlimited_int_digits,
)

__all__ = [
    "Verdict",
    "HypothesisCheck",
    "VerdictReport",
    "HypothesisViolation",
    "GridCapExceeded",
    "DominatedPair",
    "CommutingFamily",
    "ZeroTwoTrace",
    "DecompositionWitness",
    "AveragingDefectRow",
    "AveragingDefectReport",
    "CertificateSearch",
    "check_pair_product",
    "check_damped_powers",
    "check_family_grid",
    "check_meet_bound",
    "build_decomposition",
    "averaging_defect",
    "zero_two_trace",
    "find_epsilon_certificate",
]

PREFIX_ONLY = "prefix-only"
TAIL_BY_MONOTONICITY = "tail-by-monotonicity"

INTERNAL_INCONSISTENCY_NOTE = (
    "exact conclusion failure under verified hypotheses: this indicates a "
    "transcription or implementation bug, not a counterexample"
)


class Verdict(Enum):
    VERIFIED = "VERIFIED"
    FALSIFIED = "FALSIFIED"
    HYPOTHESIS_UNMET = "HYPOTHESIS_UNMET"
    EXHAUSTED = "EXHAUSTED"


class HypothesisViolation(ValueError):
    """A construction-level hypothesis does not hold."""


class GridCapExceeded(RuntimeError):
    """The requested exponent grid is larger than the configured cap."""


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    holds: bool
    detail: str = ""


@dataclass(frozen=True)
class VerdictReport:
    """Outcome of one checker run.

    ``ranges`` lists the inclusive exponent range per axis that the
    conclusion was checked over, ``guarantee`` says whether that range gives
    prefix evidence only or a tail bound, and FALSIFIED reports always carry
    the exact failing grid point and norm.
    """

    command: str
    hypotheses: tuple[HypothesisCheck, ...]
    verdict: Verdict
    ranges: tuple[tuple[int, int], ...] = ()
    guarantee: str = ""
    values: tuple[tuple[str, Fraction], ...] = ()
    failure_point: tuple[int, ...] | None = None
    failure_norm: Fraction | None = None
    notes: tuple[str, ...] = ()

    def failed_hypotheses(self) -> tuple[HypothesisCheck, ...]:
        return tuple(h for h in self.hypotheses if not h.holds)


# -- validated hypothesis bundles --------------------------------------------


@dataclass(frozen=True)
class DominatedPair:
    """Two positive contractions with ``t`` dominated by ``s``; all five
    conditions are enforced exactly at construction."""

    s: MatrixOperator
    t: MatrixOperator

    def __post_init__(self) -> None:
        if self.s.space != self.t.space:
            raise HypothesisViolation("pair members live on different spaces")
        if not self.t.is_positive():
            raise HypothesisViolation("T is not positive")
        if not self.s.is_positive():
            raise HypothesisViolation("S is not positive")
        if not self.s.dominates(self.t):
            raise HypothesisViolation("S does not dominate T")
        if not self.s.is_contraction():
            raise HypothesisViolation("S is not a contraction")
        if not self.t.is_contraction():
            raise HypothesisViolation("T is not a contraction")

    def gap_norm(self) -> Fraction:
        return self.s.distance(self.t)


@dataclass(frozen=True)
class CommutingFamily:
    """Dominated pairs whose S members commute pairwise and whose T members
    commute pairwise, with a base exponent (>= 1) per pair."""

    pairs: tuple[DominatedPair, ...]
    base_exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise HypothesisViolation("a commuting family needs at least one pair")
        if len(self.base_exponents) != len(self.pairs):
            raise HypothesisViolation("one base exponent is required per pair")
        if any(e < 1 for e in self.base_exponents):
            raise HypothesisViolation("base exponents must be >= 1")
        space = self.pairs[0].s.space
        if any(p.s.space != space for p in self.pairs):
            raise HypothesisViolation("family members live on different spaces")
        for i, j in itertools.combinations(range(len(self.pairs)), 2):
            if not self.pairs[i].s.commutes_with(self.pairs[j].s):
                raise HypothesisViolation(f"S_{i + 1} and S_{j + 1} do not commute")
            if not self.pairs[i].t.commutes_with(self.pairs[j].t):
                raise HypothesisViolation(f"T_{i + 1} and T_{j + 1} do not commute")

    @property
    def size(self) -> int:
        return len(self.pairs)


# -- verification artifacts ---------------------------------------------------


@dataclass(frozen=True)
class ZeroTwoTrace:
    """Exact norm sequence a_n = |Z^d (T^(n+k) - T^n)| for n = 0..n_max.

    The sequence is exactly nonincreasing (each step is the previous
    difference multiplied by the contraction T), which is what upgrades a
    single sub-threshold value to a bound for every later n.
    """

    z: MatrixOperator
    t: MatrixOperator
    k: int
    d: int
    records: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        indices = [n for n, _ in self.records]
        if indices != sorted(indices):
            raise InternalConsistencyError("trace records are not ordered by n")
        norms = [a for _, a in self.records]
        for prev, nxt in zip(norms, norms[1:]):
            if nxt > prev:
                raise InternalConsistencyError(
                    "trace norms increased, which contradicts contractivity"
                )

    @property
    def norms(self) -> tuple[Fraction, ...]:
        return tuple(a for _, a in self.records)

    def first_below(self, threshold: RationalLike) -> int | None:
        """First recorded n with a_n below the threshold, found by bisection
        on the nonincreasing norms."""
        bound = rat(threshold)
        i = bisect.bisect_right(self.records, -bound, key=lambda record: -record[1])
        return self.records[i][0] if i < len(self.records) else None


@dataclass(frozen=True)
class DecompositionWitness:
    """Exact witnesses for the averaged-power decomposition
    T^(d * ell * (m+k)) = ((I+T)/2)^ell V_d + Q^d.

    ``v_sequence`` holds V_1..V_d; the identity is verified exactly for
    every prefix before the witness is returned.
    """

    t: MatrixOperator
    m: int
    k: int
    ell: int
    d: int
    averaged: MatrixOperator
    q: MatrixOperator
    v_sequence: tuple[MatrixOperator, ...]

    def v(self, index: int) -> MatrixOperator:
        """1-based accessor for V_index."""
        return self.v_sequence[index - 1]

    def max_v_norm(self) -> Fraction:
        return max(v.norm() for v in self.v_sequence)


@dataclass(frozen=True)
class AveragingDefectRow:
    ell: int
    norm: Fraction
    scaled: float  # sqrt(ell) * norm


@dataclass(frozen=True)
class AveragingDefectReport:
    """Exact defects |T^k R^ell - R^ell| for R = (I+T)/2, with the
    empirical constant gamma_hat = max over ell of sqrt(ell) * defect."""

    k: int
    rows: tuple[AveragingDefectRow, ...]
    gamma_hat: float
    k_fold_bounded: bool  # defect at k never exceeds k times the defect at 1


@dataclass(frozen=True)
class CertificateSearch:
    """Result of the lexicographic (d, n0) search for a_{n0} < epsilon.

    A successful search is a tail guarantee by trace monotonicity.
    Exhaustion of the caps is reported as such and never as a
    falsification. The search costs O(log n0_cap) products per d and
    stops at the first d whose Z^d repeats an earlier power, so exhausting
    is reported without running every d up to ``d_cap``.
    """

    command: str
    hypotheses: tuple[HypothesisCheck, ...]
    verdict: Verdict
    epsilon: Fraction
    d_cap: int
    n0_cap: int
    certificate: tuple[int, int] | None = None
    achieved_norm: Fraction | None = None
    guarantee: str = ""


# -- shared hypothesis helpers ------------------------------------------------


@unlimited_int_digits
def _exact(value: object) -> str:
    """``str(value)`` for detail and command strings, whatever the size of
    the exact numbers in it."""
    return str(value)


def _positive_contraction_checks(name: str, op: MatrixOperator) -> list[HypothesisCheck]:
    nrm = op.norm()
    return [
        HypothesisCheck(f"{name} positive", op.is_positive()),
        HypothesisCheck(f"{name} contraction", nrm <= 1, f"norm = {_exact(nrm)}"),
    ]


def _damping_hypotheses(
    z: MatrixOperator,
    t: MatrixOperator,
    t_high: MatrixOperator,
    t_low: MatrixOperator,
) -> tuple[list[HypothesisCheck], Fraction]:
    """Ledger of the meet bound and the certificate search: Z is a
    sup-preserving contraction commuting with the positive contraction T,
    and the premise norm |Z (T^(m+k) - T^m)| is below two."""
    premise = (z @ (t_high - t_low)).norm()
    return [
        HypothesisCheck("Z sup-preserving", bool(is_lattice_homomorphism(z))),
        HypothesisCheck("Z contraction", z.is_contraction(), f"norm = {_exact(z.norm())}"),
        HypothesisCheck("Z T = T Z", z.commutes_with(t)),
        *_positive_contraction_checks("T", t),
        HypothesisCheck("damped gap norm < 2", premise < 2, f"norm = {_exact(premise)}"),
    ], premise


# -- power-gap persistence checkers -------------------------------------------


def _power_products(
    ax: MatrixOperator,
    by: MatrixOperator,
    x: MatrixOperator,
    y: MatrixOperator,
    n0: int,
    n_max: int,
) -> Iterator[tuple[int, MatrixOperator, MatrixOperator]]:
    """The power-gap kernel: yield ``(n, A X^n, B Y^n)`` for n = n0..n_max
    from ``ax = A X^n0`` and ``by = B Y^n0``, by one right multiplication
    per side per step, so factor order is kept and nothing need commute."""
    yield n0, ax, by
    for n in range(n0 + 1, n_max + 1):
        ax = ax @ x
        by = by @ y
        yield n, ax, by


def _grid_gaps(
    s_factors: Sequence[MatrixOperator],
    t_factors: Sequence[MatrixOperator],
    n0s: Sequence[int],
    m_max: Sequence[int],
) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """Yield ``(exponents, |S_1^(n_1)...S_k^(n_k) - T_1^(n_1)...T_k^(n_k)|)``
    for n_i in [n0s[i], m_max[i]] in lexicographic order.

    The leading axes run as an odometer of cached prefix products: stepping
    axis j multiplies prefix j by S_j (and T_j), and the deeper prefixes are
    rebuilt from their base powers. The last axis runs the power-gap kernel.
    """
    last = len(n0s) - 1
    s_base = [s**n0 for s, n0 in zip(s_factors, n0s)]
    t_base = [t**n0 for t, n0 in zip(t_factors, n0s)]
    exponents = list(n0s[:last])
    s_prefix: list[MatrixOperator] = []
    t_prefix: list[MatrixOperator] = []
    axis = 0
    while axis >= 0:
        del s_prefix[axis:], t_prefix[axis:]
        for j in range(axis, last):
            s_prefix.append(s_prefix[-1] @ s_base[j] if j else s_base[j])
            t_prefix.append(t_prefix[-1] @ t_base[j] if j else t_base[j])
        s_start = s_prefix[-1] @ s_base[last] if last else s_base[last]
        t_start = t_prefix[-1] @ t_base[last] if last else t_base[last]
        lead = tuple(exponents)
        for n, s_prod, t_prod in _power_products(
            s_start, t_start, s_factors[last], t_factors[last], n0s[last], m_max[last]
        ):
            yield lead + (n,), s_prod.distance(t_prod)
        axis = last - 1
        while axis >= 0 and exponents[axis] == m_max[axis]:
            exponents[axis] = n0s[axis]
            axis -= 1
        if axis >= 0:
            exponents[axis] += 1
            s_prefix[axis] = s_prefix[axis] @ s_factors[axis]
            t_prefix[axis] = t_prefix[axis] @ t_factors[axis]
            axis += 1


def _first_failure(
    gaps: Iterable[tuple[tuple[int, ...], Fraction]],
) -> tuple[tuple[int, ...], Fraction] | None:
    """The first ``(point, gap)`` with gap norm >= 1, or None."""
    return next(((point, gap) for point, gap in gaps if gap >= 1), None)


def _power_gap_report(
    command: str,
    hyps: Sequence[HypothesisCheck],
    gaps: Iterator[tuple[tuple[int, ...], Fraction]],
    ranges: tuple[tuple[int, int], ...],
) -> VerdictReport:
    """Take the first gap as the base gap norm and append it to the
    hypotheses; if they all hold, check the remaining gaps over ``ranges``."""
    _, base = next(gaps)
    hyps = (*hyps, HypothesisCheck("base gap norm < 1", base < 1, f"norm = {_exact(base)}"))
    values = (("base gap norm", base),)
    if not all(h.holds for h in hyps):
        return VerdictReport(command, hyps, Verdict.HYPOTHESIS_UNMET, values=values)
    point, gap = _first_failure(gaps) or (None, None)
    return VerdictReport(
        command,
        hyps,
        Verdict.VERIFIED if point is None else Verdict.FALSIFIED,
        ranges=ranges,
        guarantee=PREFIX_ONLY,
        values=values,
        failure_point=point,
        failure_norm=gap,
        notes=() if point is None else (INTERNAL_INCONSISTENCY_NOTE,),
    )


def _check_range(n0: int, n_max: int) -> None:
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    if n_max < n0:
        raise ValueError("n_max must be >= n0")


def check_pair_product(
    t1: MatrixOperator,
    t2: MatrixOperator,
    s1: MatrixOperator,
    s2: MatrixOperator,
    n0: int,
    n_max: int,
    command: str | None = None,
) -> VerdictReport:
    """Product law for two commuting dominated pairs: once the gap norm
    |S1 S2^n - T1 T2^n| drops below one at n = n0, it stays below one.

    Hypotheses checked exactly: positivity and contractivity of all four
    operators, S1 >= T1, S2 >= T2, S1 S2 = S2 S1, and the base gap norm.
    The conclusion is then re-verified for every n in [n0, n_max].
    """
    _check_range(n0, n_max)
    for other in (t2, s1, s2):
        t1._require_same_space(other)
    command = command or f"pair-product(n0={n0}, n_max={n_max})"

    hyps: list[HypothesisCheck] = []
    for name, op in (("T1", t1), ("T2", t2), ("S1", s1), ("S2", s2)):
        hyps.extend(_positive_contraction_checks(name, op))
    hyps.append(HypothesisCheck("S1 dominates T1", s1.dominates(t1)))
    hyps.append(HypothesisCheck("S2 dominates T2", s2.dominates(t2)))
    hyps.append(HypothesisCheck("S1 S2 = S2 S1", s1.commutes_with(s2)))
    products = _power_products(s1 @ s2**n0, t1 @ t2**n0, s2, t2, n0, n_max)
    gaps = (((n,), a.distance(b)) for n, a, b in products)
    return _power_gap_report(command, hyps, gaps, ((n0, n_max),))


def check_damped_powers(
    z: MatrixOperator,
    s: MatrixOperator,
    t: MatrixOperator,
    n0: int,
    n_max: int,
    command: str | None = None,
) -> VerdictReport:
    """Damped power gaps: once |Z (S^n - T^n)| < 1 at n = n0 it stays
    below one, for positive contractions with T <= S and ZS = SZ.

    The gap is evaluated as the distance between Z S^n and Z T^n."""
    _check_range(n0, n_max)
    z._require_same_space(s)
    z._require_same_space(t)
    command = command or f"damped-powers(n0={n0}, n_max={n_max})"

    hyps: list[HypothesisCheck] = []
    for name, op in (("Z", z), ("S", s), ("T", t)):
        hyps.extend(_positive_contraction_checks(name, op))
    hyps.append(HypothesisCheck("S dominates T", s.dominates(t)))
    hyps.append(HypothesisCheck("Z S = S Z", z.commutes_with(s)))
    products = _power_products(z @ s**n0, z @ t**n0, s, t, n0, n_max)
    gaps = (((n,), a.distance(b)) for n, a, b in products)
    return _power_gap_report(command, hyps, gaps, ((n0, n_max),))


def check_family_grid(
    family: CommutingFamily,
    m_max: Sequence[int],
    grid_cap: int = 200_000,
    command: str | None = None,
) -> VerdictReport:
    """Grid form of the product law for a commuting family: if the base gap
    norm |prod S_i^(n_i0) - prod T_i^(n_i0)| is below one, the same holds at
    every exponent tuple with m_i in [n_i0, m_max[i]].

    Family invariants (positivity, domination, contractivity, pairwise
    commutation) were enforced when the family was built; the checker
    re-records them as granted and validates the base norm exactly.

    The grid is walked in lexicographic order, so a FALSIFIED report names
    the lexicographically first failing point. The leading axes run as an
    odometer of cached prefix products and the last axis through the
    power-gap kernel, at about two products per grid point; the walk holds
    O(number of pairs) operators, never a table of powers.
    """
    n0s = family.base_exponents
    if len(m_max) != family.size:
        raise ValueError("one exponent bound is required per pair")
    if any(m < n0 for m, n0 in zip(m_max, n0s)):
        raise ValueError("each m_max entry must be >= the pair's base exponent")
    grid_size = math.prod(m - n0 + 1 for m, n0 in zip(m_max, n0s))
    if grid_size > grid_cap:
        raise GridCapExceeded(
            f"requested grid has {grid_size} points, more than the cap {grid_cap}"
        )
    command = command or f"family-grid(n0={list(n0s)}, m_max={list(m_max)})"

    hyps = [
        HypothesisCheck(
            "family invariants (positivity, domination, contractivity, commutation)",
            True,
            "enforced at construction",
        )
    ]
    s_factors = [pair.s for pair in family.pairs]
    t_factors = [pair.t for pair in family.pairs]
    ranges = tuple((n0, m) for n0, m in zip(n0s, m_max))
    return _power_gap_report(command, hyps, _grid_gaps(s_factors, t_factors, n0s, m_max), ranges)


def check_meet_bound(
    z: MatrixOperator,
    t: MatrixOperator,
    m: int,
    k: int,
    command: str | None = None,
) -> VerdictReport:
    """Halving step of the dichotomy: for a sup-preserving contraction Z
    commuting with the positive contraction T, a damped gap norm
    |Z (T^(m+k) - T^m)| strictly below two forces
    |Z (T^(m+k) - T^(m+k) ^ T^m)| strictly below one.

    Both norms are computed exactly and reported; the sub-two premise is a
    hypothesis of the statement, so its failure yields HYPOTHESIS_UNMET.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    z._require_same_space(t)
    command = command or f"meet-bound(m={m}, k={k})"

    t_high = t ** (m + k)
    t_low = t**m
    hyps, premise = _damping_hypotheses(z, t, t_high, t_low)
    report = functools.partial(VerdictReport, command, tuple(hyps))
    if not all(h.holds for h in hyps):
        return report(Verdict.HYPOTHESIS_UNMET, values=(("premise norm", premise),))

    conclusion = (z @ (t_high - operator_meet(t_high, t_low))).norm()
    values = (("premise norm", premise), ("conclusion norm", conclusion))
    if conclusion >= 1:
        return report(
            Verdict.FALSIFIED,
            values=values,
            failure_point=(m, k),
            failure_norm=conclusion,
            notes=(INTERNAL_INCONSISTENCY_NOTE,),
        )
    return report(Verdict.VERIFIED, values=values)


# -- decomposition machinery --------------------------------------------------


def build_decomposition(
    t: MatrixOperator,
    m: int,
    k: int,
    ell: int,
    d: int,
) -> DecompositionWitness:
    """Construct the averaged-power decomposition witnesses exactly.

    With R = (I+T)/2, W = T^(m+k) ^ T^m, and L = T^(ell*(m+k)):

        V_1 = W^ell,  Q = L - R^ell V_1,  V_(j+1) = L V_j + V_1 Q^j,

    and the identity L^j = R^ell V_j + Q^j is verified exactly for every
    prefix j <= d before returning. An identity failure is fatal: it can
    only mean the construction itself is wrong.
    """
    if m < 0 or k < 1 or ell < 1 or d < 1:
        raise ValueError("require m >= 0, k >= 1, ell >= 1, d >= 1")
    if not t.is_positive() or not t.is_contraction():
        raise HypothesisViolation("the base operator must be a positive contraction")

    identity = MatrixOperator.identity(t.space)
    averaged = ((identity + t) * Fraction(1, 2)) ** ell
    meet_power = operator_meet(t ** (m + k), t**m) ** ell
    long_power = t ** (ell * (m + k))
    q = long_power - averaged @ meet_power

    v_sequence: list[MatrixOperator] = [meet_power]
    q_pow = q
    lhs = long_power
    for j in range(1, d + 1):
        if j > 1:
            v_sequence.append(long_power @ v_sequence[-1] + meet_power @ q_pow)
            q_pow = q_pow @ q
            lhs = lhs @ long_power
        if lhs != averaged @ v_sequence[-1] + q_pow:
            raise InternalConsistencyError(
                f"decomposition identity failed at prefix {j} "
                f"(m={m}, k={k}, ell={ell})"
            )
    return DecompositionWitness(
        t=t,
        m=m,
        k=k,
        ell=ell,
        d=d,
        averaged=averaged,
        q=q,
        v_sequence=tuple(v_sequence),
    )


def averaging_defect(
    t: MatrixOperator,
    k: int,
    ell_max: int,
) -> AveragingDefectReport:
    """Exact averaging defects |T^k R^ell - R^ell| for ell = 1..ell_max,
    where R = (I+T)/2, together with the empirical decay constant
    gamma_hat = max over ell of sqrt(ell) * defect.

    Also verifies exactly that the defect at step k never exceeds k times
    the defect at step 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if ell_max < 1:
        raise ValueError("ell_max must be >= 1")
    if not t.is_contraction():
        raise HypothesisViolation("the base operator must be a contraction")

    identity = MatrixOperator.identity(t.space)
    averaged_step = (identity + t) * Fraction(1, 2)
    t_k = t**k
    r_pow = identity
    rows: list[AveragingDefectRow] = []
    k_fold_ok = True
    for ell in range(1, ell_max + 1):
        r_pow = r_pow @ averaged_step
        defect_k = (t_k @ r_pow).distance(r_pow)
        defect_1 = (t @ r_pow).distance(r_pow)
        if defect_k > k * defect_1:
            k_fold_ok = False
        rows.append(
            AveragingDefectRow(ell=ell, norm=defect_k, scaled=math.sqrt(ell) * float(defect_k))
        )
    gamma_hat = max((row.scaled for row in rows), default=0.0)
    return AveragingDefectReport(
        k=k, rows=tuple(rows), gamma_hat=gamma_hat, k_fold_bounded=k_fold_ok
    )


# -- zero-two traces and certificates ----------------------------------------


def zero_two_trace(
    z: MatrixOperator,
    t: MatrixOperator,
    k: int,
    d: int,
    n_max: int,
) -> ZeroTwoTrace:
    """Exact norm sequence a_n = |Z^d (T^(n+k) - T^n)| for n = 0..n_max.

    Requires commuting positive contractions; non-commuting inputs are
    rejected because the monotonicity of the sequence depends on pulling
    the extra factor of T through Z^d.
    """
    if k < 1 or d < 1:
        raise ValueError("require k >= 1 and d >= 1")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    z._require_same_space(t)
    if not z.commutes_with(t):
        raise HypothesisViolation("the damping operator must commute with the base")
    for name, op in (("Z", z), ("T", t)):
        if not op.is_positive() or not op.is_contraction():
            raise HypothesisViolation(f"{name} must be a positive contraction")

    current = (z**d) @ (t**k - MatrixOperator.identity(t.space))
    norms = [current.norm()]
    for _ in range(n_max):  # each difference is the previous one times T
        current = t @ current
        norms.append(current.norm())
    return ZeroTwoTrace(z=z, t=t, k=k, d=d, records=tuple(enumerate(norms)))


def _probe(op: MatrixOperator, upper: Fraction, lower: Fraction = Fraction(0)) -> Fraction:
    """|op|, which must lie between the trace values bracketing its n."""
    norm = op.norm()
    if not lower <= norm <= upper:
        raise InternalConsistencyError(
            "a certificate probe broke the monotonicity of the zero-two trace"
        )
    return norm


def _gallop_first_below(
    start: MatrixOperator,
    squares: list[MatrixOperator],
    eps: Fraction,
    n0_cap: int,
) -> tuple[int, Fraction] | None:
    """The first n <= n0_cap with a_n = |T^n start| < eps, and a_n there.

    a_n is nonincreasing because T is a contraction. So the search probes
    n = 0, 1, 2, 4, ... below n0_cap, then n0_cap itself, and bisects the
    first bracket (lo, hi] with a_hi < eps by descending powers of two from
    T^lo start. ``squares[i]`` is T^(2^i); the list starts as [T], grows on
    demand and is shared by the calls of one search. No product goes past
    T^n0_cap start.
    """

    def square(i: int) -> MatrixOperator:
        while len(squares) <= i:
            squares.append(squares[-1] @ squares[-1])
        return squares[i]

    lo, lo_x, lo_a = 0, start, start.norm()
    if lo_a < eps:
        return 0, lo_a
    while True:
        if lo == n0_cap:
            return None
        hi = min(max(2 * lo, 1), n0_cap)
        hi_x = lo_x
        for i in range((hi - lo).bit_length()):
            if (hi - lo) >> i & 1:
                hi_x = square(i) @ hi_x
        hi_a = _probe(hi_x, lo_a)
        if hi_a < eps:
            break
        lo, lo_x, lo_a = hi, hi_x, hi_a
    for i in reversed(range((hi - lo - 1).bit_length())):
        mid = lo + (1 << i)
        if mid < hi:
            mid_x = square(i) @ lo_x
            mid_a = _probe(mid_x, lo_a, hi_a)
            if mid_a < eps:
                hi, hi_a = mid, mid_a
            else:
                lo, lo_x, lo_a = mid, mid_x, mid_a
    return hi, hi_a


def find_epsilon_certificate(
    z: MatrixOperator,
    t: MatrixOperator,
    m: int,
    k: int,
    epsilon: RationalLike,
    d_cap: int = 8,
    n0_cap: int = 10_000,
) -> CertificateSearch:
    """Search lexicographically over (d, n0) for a_{n0} < epsilon, where
    a_n = |Z^d (T^(n+k) - T^n)|.

    The premise |Z (T^(m+k) - T^m)| < 2 together with Z being a
    sup-preserving contraction commuting with T guarantees a certificate
    exists for every positive epsilon; within finite caps the search either
    returns the first pair found (sufficient for all n >= n0 because the
    trace is exactly nonincreasing) or reports exhaustion, never a
    falsification.

    Monotonicity also makes the search cheap: each d costs O(log n0_cap)
    products and norms (``_gallop_first_below``), with the squares T^(2^i)
    shared by every d. The trace depends on d only through Z^d, so the d loop
    stops at the first Z^d equal to an earlier power: that trace, and every
    later one, repeats a trace that already exhausted.
    """
    if m < 0 or k < 1:
        raise ValueError("require m >= 0 and k >= 1")
    if d_cap < 1 or n0_cap < 0:
        raise ValueError("caps must allow at least one candidate")
    eps = rat(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    z._require_same_space(t)
    command = f"certificate(m={m}, k={k}, epsilon={_exact(eps)})"

    hyps, premise = _damping_hypotheses(z, t, t ** (m + k), t**m)
    search = functools.partial(
        CertificateSearch, command, tuple(hyps), epsilon=eps, d_cap=d_cap, n0_cap=n0_cap
    )
    if not all(h.holds for h in hyps):
        return search(Verdict.HYPOTHESIS_UNMET)

    gap = t**k - MatrixOperator.identity(t.space)
    squares = [t]
    z_powers: set[MatrixOperator] = set()
    z_power = z
    for d in range(1, d_cap + 1):
        if d > 1:
            z_power = z @ z_power
        if z_power in z_powers:
            break
        z_powers.add(z_power)
        found = _gallop_first_below(z_power @ gap, squares, eps, n0_cap)
        if found is not None:
            n, norm = found
            return search(
                Verdict.VERIFIED,
                certificate=(d, n),
                achieved_norm=norm,
                guarantee=TAIL_BY_MONOTONICITY,
            )
    return search(Verdict.EXHAUSTED)
