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
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .calculus import is_lattice_homomorphism, operator_meet, operator_modulus
from .core import (
    InternalConsistencyError,
    MatrixOperator,
    RationalLike,
    _column_max,
    _reduced,
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
    "CertificateSearch",
    "HomIdentityReport",
    "check_pair_product",
    "check_damped_powers",
    "check_family_grid",
    "check_meet_bound",
    "check_hom_identities",
    "build_decomposition",
    "zero_two_trace",
    "find_epsilon_certificate",
]

PREFIX_ONLY = "prefix-only"
TAIL_BY_MONOTONICITY = "tail-by-monotonicity"
GRID_CAP = 200_000  # most exponent points one power-gap check walks
# Steps between content divisions in zero_two_trace. Mean CPU of 250-step dense 4-point traces
# at 1, 2, 4, 8, 16, 32 (2 cores, CPython 3.11.7): 10.3, 7.9, 7.2, 7.2, 8.1, 9.3 ms.
CONTENT_INTERVAL = 4

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
    """The requested exponent grid has more than ``GRID_CAP`` points."""


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


# -- the hypothesis ledger ----------------------------------------------------


@unlimited_int_digits
def _exact(value: object) -> str:
    """``str(value)`` for detail and command strings, whatever the size of
    the exact numbers in it."""
    return str(value)


# Each kind of line: report name, violation message, and a predicate on one or two
# operands that looks its method or function up when it runs, so a rebinding reaches it.
_KINDS = {
    "positive": ("{} positive", "{} is not positive", lambda a, _: a.is_positive()),
    "contraction": ("{} contraction", "{} is not a contraction", lambda a, _: a.is_contraction()),
    "dominates": ("{} dominates {}", "{} does not dominate {}", lambda a, b: a.dominates(b)),
    "commutes": ("{0} {1} = {1} {0}", "{} and {} do not commute", lambda a, b: a.commutes_with(b)),
    "sup-preserving":
        ("{} sup-preserving", "{} is not sup-preserving", lambda a, _: bool(is_lattice_homomorphism(a))),
}


def _line(kind: str, a: str, b: str | None = None) -> tuple:
    """A ledger line: kind, predicate, operand names, report name and message."""
    name, message, holds = _KINDS[kind]
    return kind, holds, a, b, name.format(a, b), message.format(a, b)


# Each statement's hypotheses in checking order; a commuting family's come from ``_family_ledger``.
_LEDGER = {key: tuple(_line(*line.split()) for line in text.split(",")) for key, text in {
    "dominated pair": "positive T, positive S, dominates S T, contraction S, contraction T",
    "pair-product": "positive T1, contraction T1, positive T2, contraction T2, positive S1, "
    "contraction S1, positive S2, contraction S2, dominates S1 T1, dominates S2 T2, commutes S1 S2",
    "damped-powers": "positive Z, contraction Z, positive S, contraction S, positive T, "
    "contraction T, dominates S T, commutes Z S",
    "meet-bound": "sup-preserving Z, contraction Z, commutes Z T, positive T, contraction T",
    "zero-two trace": "commutes Z T, positive Z, contraction Z, positive T, contraction T",
    "decomposition": "positive T, contraction T",
    "transport identities": "sup-preserving Z, positive S, contraction S, positive T, contraction T",
}.items()}


@functools.cache
def _family_ledger(size: int) -> tuple[tuple[str, ...], tuple[tuple, ...]]:
    """The operand names S_1, T_1, ... of ``size`` pairs, and per i < j the S then T lines."""
    names = tuple(f"{x}_{i}" for i in range(1, size + 1) for x in "ST")
    pairs = itertools.combinations(range(1, size + 1), 2)
    return names, tuple(_line("commutes", f"{x}_{i}", f"{x}_{j}") for i, j in pairs for x in "ST")


def _failures(lines: Iterable[tuple], operands: dict) -> Iterator[str]:
    """Each failing line's message, in order; a line that holds formats and measures nothing."""
    for _, holds, a, b, _, message in lines:
        if not holds(operands[a], operands.get(b)):
            yield message


def _require(lines: Iterable[tuple], operands: dict) -> None:
    """Raise the first failing line's message."""
    for message in _failures(lines, operands):
        raise HypothesisViolation(message)


def _report(lines: Iterable[tuple], operands: dict) -> Iterator[HypothesisCheck]:
    """One check per line; a contraction line's verdict is the one norm its detail prints."""
    for kind, holds, a, b, name, _ in lines:
        if kind == "contraction":
            norm = operands[a].norm()
            yield HypothesisCheck(name, norm <= 1, f"norm = {_exact(norm)}")
        else:
            yield HypothesisCheck(name, holds(operands[a], operands.get(b)))


def _damping_hypotheses(
    z: MatrixOperator, t: MatrixOperator, t_high: MatrixOperator, t_low: MatrixOperator
) -> tuple[list[HypothesisCheck], Fraction]:
    """The report of the meet bound and the certificate search, ending with
    their premise |Z (T^(m+k) - T^m)| < 2, and the premise norm."""
    premise = (z @ (t_high - t_low)).norm()
    damped = HypothesisCheck("damped gap norm < 2", premise < 2, f"norm = {_exact(premise)}")
    return [*_report(_LEDGER["meet-bound"], {"Z": z, "T": t}), damped], premise


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
        _require(_LEDGER["dominated pair"], {"S": self.s, "T": self.t})


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
        names, lines = _family_ledger(len(self.pairs))
        _require(lines, dict(zip(names, [op for pair in self.pairs for op in (pair.s, pair.t)])))

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
        if any(m >= n for m, n in zip(indices, indices[1:])):
            raise InternalConsistencyError("trace records are not ordered by n")
        norms = [a for _, a in self.records]
        for prev, nxt in zip(norms, norms[1:]):
            # reduced denominators nearly always nest: a linear-cost compare
            q, r = divmod(nxt.denominator, prev.denominator)
            if nxt.numerator > prev.numerator * q if r == 0 else nxt > prev:
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


@dataclass(frozen=True)
class HomIdentityReport:
    """Exact verdicts for the two transport identities of a sup-preserving
    operator: Z|S - T| = |Z(S - T)| and Z(S ^ T) = ZS ^ ZT.

    A hypothesis violation (Z not sup-preserving, or S, T not positive
    contractions) is reported via ``failed_hypotheses`` and leaves the
    identity fields unset; it is never conflated with an identity failure.
    """

    hypotheses_ok: bool
    failed_hypotheses: tuple[str, ...]
    modulus_identity: bool | None
    meet_identity: bool | None

    @property
    def both_hold(self) -> bool:
        return bool(self.hypotheses_ok and self.modulus_identity and self.meet_identity)


# -- power-gap persistence checkers -------------------------------------------


def _grid_gaps(
    s_factors: Sequence[MatrixOperator],
    t_factors: Sequence[MatrixOperator],
    n0s: Sequence[int],
    m_max: Sequence[int],
) -> tuple[Fraction, Iterator[tuple[int, ...]]]:
    """The power-gap walk over the box n_i in [n0s[i], m_max[i]] of the gap
    ``|S_1^(n_1)...S_k^(n_k) - T_1^(n_1)...T_k^(n_k)|``. It returns ``(base,
    points)``: ``base`` is the exact gap at the base point, and ``points``
    lazily yields, in lexicographic order, each other point of the box
    whose gap is 1.

    It is the one check of the exponent box: before measuring anything it
    needs one S factor, T factor, base exponent and bound per axis, every
    n0 >= 1 and m_max[i] >= n0s[i] (else ``ValueError``), and at most
    ``GRID_CAP`` points (else ``GridCapExceeded``).

    The base gap is the ``distance`` of the base products, since the
    caller's hypotheses may fail there. ``points`` is read only once they
    hold, and they give ``0 <= T_i <= S_i`` with S_i a contraction. Then
    ``P = prod S`` and ``Q = prod T`` have ``0 <= Q <= P`` and ``w^T P e_j
    <= w_j`` for the weights w, so the gap ``max_j w^T (P - Q) e_j / w_j``
    lies in [0, 1]. It is exactly 1 iff some column lies in both ``Zl(P) =
    {j : w^T P e_j = w_j}``, the columns whose full mass P keeps, and
    ``Zc(Q) = {j : Q e_j = 0}``, the zero columns of Q. So each point is
    decided on supports: the state ``(Zl, Zc)``, two int bitsets, starts at
    the identity's ``(every column, {})`` and is right-multiplied in factor
    order (nothing need commute) by

        Zl(AB) = {j in Zl(B) : supp(B e_j) in Zl(A)}   (B an S factor)
        Zc(AB) = {j : supp(B e_j) in Zc(A)}            (B a T factor)

    The first rule holds as ``w^T A B e_j = sum_i (w^T A e_i) B_ij <= w^T B
    e_j <= w_j`` for positive contractions. Axis i steps the state of the
    axes before it by ``(S_i^(n0_i), T_i^(n0_i))``, then by ``(S_i, T_i)``,
    and stops once Zl is empty, as it then stays. Each yielded point is
    measured again with ``distance``; a gap other than 1 there raises
    ``InternalConsistencyError``.
    """
    if not len(s_factors) == len(t_factors) == len(n0s):
        raise ValueError("one S factor, one T factor and one base exponent are required per axis")
    if len(m_max) != len(n0s):
        raise ValueError("one exponent bound is required per pair")
    if any(n0 < 1 for n0 in n0s):
        raise ValueError("n0 must be >= 1")
    for n0, m in zip(n0s, m_max):
        if m < n0:
            raise ValueError(f"n_max must be >= {n0}")
    size = math.prod(m - n0 + 1 for m, n0 in zip(m_max, n0s))
    if size > GRID_CAP:
        raise GridCapExceeded(f"requested grid has {size} points, more than the cap {GRID_CAP}")
    s_base = [s**n0 for s, n0 in zip(s_factors, n0s)]
    t_base = [t**n0 for t, n0 in zip(t_factors, n0s)]
    return _gap(s_base, t_base), _unit_gap_points(s_factors, t_factors, n0s, m_max, s_base, t_base)


def _gap(s_powers: Iterable[MatrixOperator], t_powers: Iterable[MatrixOperator]) -> Fraction:
    """The distance between the products of ``s_powers`` and ``t_powers``."""
    s_prod, t_prod = (functools.reduce(operator.matmul, p) for p in (s_powers, t_powers))
    return s_prod.distance(t_prod)


def _unit_gap_points(
    s_factors: Sequence, t_factors: Sequence, n0s: Sequence, m_max: Sequence, s_base: list, t_base: list
) -> Iterator[tuple[int, ...]]:
    """The ``points`` of ``_grid_gaps``, given the powers at its base point."""
    steps = [_support_pair(s, t) for s, t in zip(s_factors, t_factors)]
    axes = tuple(
        (n0, m, step if n0 == 1 else _support_pair(s, t), step)  # S**1 is S
        for n0, m, step, s, t in zip(n0s, m_max, steps, s_base, t_base)
    )
    base_point = tuple(n0s)
    for point in _support_points(axes, ((1 << s_factors[0].space.n) - 1, 0)):
        if point == base_point:
            continue  # measured by _grid_gaps
        if _gap(map(pow, s_factors, point), map(pow, t_factors, point)) != 1:
            raise InternalConsistencyError(f"the support walk misjudged the gap at {point}")
        yield point


# A module-level generator: nested in ``_grid_gaps``, the recursive walk would
# hold itself in its closure, a reference cycle left to the garbage collector
# on every call.
def _support_points(axes: tuple, state: tuple[int, int], lead: tuple = ()) -> Iterator[tuple]:
    """The points of the box ``axes``, one ``(n0, top, base pair, step
    pair)`` per axis, whose state stepped from the prefix ``state`` has
    ``Zl & Zc`` nonempty, in lexicographic order."""
    (n0, top, base, step), rest = axes[0], axes[1:]
    for n in range(n0, top + 1):
        state = zl, zc = _support_step(state, base if n == n0 else step)
        if not zl:
            return  # and so it stays along this axis
        if rest:
            yield from _support_points(rest, state, (*lead, n))
        elif zl & zc:
            yield (*lead, n)


def _support_pair(s: MatrixOperator, t: MatrixOperator) -> tuple:
    """``(Zl(S), S column supports, T column supports)`` as bitsets: bit j
    of ``Zl(S)`` is set when ``w^T S e_j = w_j``, and bit i of a support
    when its column's entry i is nonzero."""
    w, den = s.space._integer_weights, s.den
    s_cols = tuple(zip(*s.num))
    kept = _bits(sum(map(operator.mul, w, col)) == w_j * den for w_j, col in zip(w, s_cols))
    return kept, tuple(map(_bits, s_cols)), tuple(map(_bits, zip(*t.num)))


def _support_step(state: tuple[int, int], pair: tuple) -> tuple[int, int]:
    """``(Zl(AB), Zc(AB))`` from ``state = (Zl(A), Zc(A))`` and the
    ``_support_pair`` of the factors B, by the rules of ``_grid_gaps``."""
    zl, zc = state
    kept, s_cols, t_cols = pair
    return kept & _bits(not col & ~zl for col in s_cols), _bits(not col & ~zc for col in t_cols)


def _bits(flags: Iterable[object]) -> int:
    """The bitset of the positions of the true ``flags``."""
    bits = 0
    for j, flag in enumerate(flags):
        if flag:
            bits |= 1 << j
    return bits


def _power_gap_report(
    command: str, hyps: Iterable[HypothesisCheck], base: Fraction, points: Iterator, ranges: tuple
) -> VerdictReport:
    """Append the base gap norm ``base`` to the hypotheses; if they all
    hold, report the first of ``points``, the points of gap 1 over
    ``ranges`` past the base point, if any."""
    hyps = (*hyps, HypothesisCheck("base gap norm < 1", base < 1, f"norm = {_exact(base)}"))
    values = (("base gap norm", base),)
    if not all(h.holds for h in hyps):
        return VerdictReport(command, hyps, Verdict.HYPOTHESIS_UNMET, values=values)
    point = next(points, None)
    return VerdictReport(
        command,
        hyps,
        Verdict.VERIFIED if point is None else Verdict.FALSIFIED,
        ranges=ranges,
        guarantee=PREFIX_ONLY,
        values=values,
        failure_point=point,
        failure_norm=None if point is None else Fraction(1),
        notes=() if point is None else (INTERNAL_INCONSISTENCY_NOTE,),
    )


def _held_axis_report(
    statement: str, operands: dict, s_factors: tuple, t_factors: tuple, n0: int, n_max: int
) -> VerdictReport:
    """The report of ``statement``, a ``_LEDGER`` key and the command name, on
    |S_1 S_2^n - T_1 T_2^n| for n in [n0, n_max]: the walk with axis 1 held at 1."""
    for op in operands.values():
        s_factors[0]._require_same_space(op)
    base, points = _grid_gaps(s_factors, t_factors, (1, n0), (1, n_max))
    command = f"{statement}(n0={n0}, n_max={n_max})"
    hyps = _report(_LEDGER[statement], operands)
    return _power_gap_report(command, hyps, base, (p[1:] for p in points), ((n0, n_max),))


def check_pair_product(
    t1: MatrixOperator,
    t2: MatrixOperator,
    s1: MatrixOperator,
    s2: MatrixOperator,
    n0: int,
    n_max: int,
) -> VerdictReport:
    """Product law for two commuting dominated pairs: once the gap norm
    |S1 S2^n - T1 T2^n| drops below one at n = n0, it stays below one.

    Hypotheses checked exactly: positivity and contractivity of all four
    operators, S1 >= T1, S2 >= T2, S1 S2 = S2 S1, and the base gap norm.
    The conclusion is then re-verified for every n in [n0, n_max].
    """
    operands = {"T1": t1, "T2": t2, "S1": s1, "S2": s2}
    return _held_axis_report("pair-product", operands, (s1, s2), (t1, t2), n0, n_max)


def check_damped_powers(
    z: MatrixOperator,
    s: MatrixOperator,
    t: MatrixOperator,
    n0: int,
    n_max: int,
) -> VerdictReport:
    """Damped power gaps: once |Z (S^n - T^n)| < 1 at n = n0 it stays
    below one, for positive contractions with T <= S and ZS = SZ.

    The gap is evaluated as the distance between Z S^n and Z T^n."""
    operands = {"Z": z, "S": s, "T": t}
    return _held_axis_report("damped-powers", operands, (z, s), (z, t), n0, n_max)


def check_family_grid(
    family: CommutingFamily,
    m_max: Sequence[int],
) -> VerdictReport:
    """Grid form of the product law for a commuting family: if the base gap
    norm |prod S_i^(n_i0) - prod T_i^(n_i0)| is below one, the same holds at
    every exponent tuple with m_i in [n_i0, m_max[i]].

    Family invariants (positivity, domination, contractivity, pairwise
    commutation) were enforced when the family was built; the checker
    re-records them as granted and validates the base norm exactly.

    The grid is walked by ``_grid_gaps``, the one power-gap walk, in
    lexicographic order, so a FALSIFIED report names the lexicographically
    first failing point; more than ``GRID_CAP`` points raises
    ``GridCapExceeded``, the cap all three power-gap checkers share.
    A one-pair family with base exponent 1 is Zaharopol's |S^n - T^n| < 1.
    """
    n0s = family.base_exponents
    command = f"family-grid(n0={list(n0s)}, m_max={list(m_max)})"

    invariants = "family invariants (positivity, domination, contractivity, commutation)"
    hyps = [HypothesisCheck(invariants, True, "enforced at construction")]
    s_factors, t_factors = zip(*((pair.s, pair.t) for pair in family.pairs))
    ranges = tuple((n0, m) for n0, m in zip(n0s, m_max))
    return _power_gap_report(command, hyps, *_grid_gaps(s_factors, t_factors, n0s, m_max), ranges)


def check_meet_bound(
    z: MatrixOperator,
    t: MatrixOperator,
    m: int,
    k: int,
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
    command = f"meet-bound(m={m}, k={k})"

    t_high, t_low = t ** (m + k), t**m
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


def check_hom_identities(z: MatrixOperator, s: MatrixOperator, t: MatrixOperator) -> HomIdentityReport:
    """Verify the modulus and meet transport identities exactly."""
    if z.space != s.space or z.space != t.space:
        failed = ("operators live on different measure spaces",)
    else:
        failed = tuple(_failures(_LEDGER["transport identities"], {"Z": z, "S": s, "T": t}))
    if failed:
        return HomIdentityReport(False, failed, None, None)
    gap = s - t
    modulus_ok = z @ operator_modulus(gap) == operator_modulus(z @ gap)
    meet_ok = z @ operator_meet(s, t) == operator_meet(z @ s, z @ t)
    return HomIdentityReport(True, (), modulus_ok, meet_ok)


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
    _require(_LEDGER["decomposition"], {"T": t})

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

    Since Z and T commute, the n-th difference is T^n D for the one
    operator D = Z^d (T^k - I). The walk steps D's integer numerator columns
    by T's integer rows (den *= den(T)): n^3 integer products per step. Every
    prime of every den divides ``r = den(D) den(T)``, so each gcd has a short
    operand: every ``CONTENT_INTERVAL`` steps the state is divided by
    ``gcd(den, r^CONTENT_INTERVAL, *entries)``, and ``core._reduced`` brings
    each a_n = s / (w_j den) to lowest terms against ``w_j r``.
    """
    if k < 1 or d < 1:
        raise ValueError("require k >= 1 and d >= 1")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    z._require_same_space(t)
    _require(_LEDGER["zero-two trace"], {"Z": z, "T": t})

    start = (z**d) @ (t**k - MatrixOperator.identity(t.space))
    weights, cols, den = t.space._integer_weights, list(zip(*start.num)), start.den
    radical, norms = start.den * t.den, []
    for n in range(n_max + 1):
        if n:  # each difference is the previous one times T
            cols, den = [[sum(map(operator.mul, row, col)) for row in t.num] for col in cols], den * t.den
            if n % CONTENT_INTERVAL == 0:
                h = math.gcd(den, radical**CONTENT_INTERVAL, *itertools.chain.from_iterable(cols))
                cols, den = [[entry // h for entry in col] for col in cols], den // h
        col_sum, w_j = _column_max(weights, cols)
        norms.append(_reduced(col_sum, w_j * den, w_j * radical))
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
