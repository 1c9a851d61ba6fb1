"""Checker semantics: hypothesis ledgers, verdicts, the power-gap kernel,
traces, decomposition witnesses, and the certificate search."""

import itertools
import math
import time
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import dominion.theorems
from dominion import (
    CommutingFamily,
    DominatedPair,
    GridCapExceeded,
    HypothesisViolation,
    MatrixOperator,
    MeasureSpace,
    Verdict,
    build_decomposition,
    check_damped_powers,
    check_family_grid,
    check_meet_bound,
    check_pair_product,
    find_epsilon_certificate,
    p_norm_gap_pair,
    random_positive_contraction,
    shear_trio,
    unit_gap_pair,
    zero_two_trace,
)
from dominion.sweeps import meet_bound_instance, sweep_dominated_powers, sweep_meet_bound
from dominion.core import InternalConsistencyError
from dominion.gallery import random_commuting_family, random_dominated_pair, random_space
from dominion.theorems import (
    HypothesisCheck,
    ZeroTwoTrace,
    _grid_gaps,
    _power_gap_report,
    _support_pair,
    _support_step,
)

from conftest import (
    column_stochastic,
    matrix_grid_gaps,
    noncommuting_t_pairs,
    ref_certificate_scan,
    ref_compose,
    ref_grid_gaps,
    ref_norm,
    ref_power,
    ref_sub,
    ref_zero_two_trace,
)


@pytest.fixture
def identity2(two_point):
    return MatrixOperator.identity(two_point)


@pytest.fixture
def flip(two_point):
    return MatrixOperator.permutation(two_point, (1, 0))


@pytest.fixture
def state_steps(monkeypatch):
    """The factor pairs of the power-gap walk's state steps, recorded."""
    pairs = []

    def recorded(state, pair):
        pairs.append(pair)
        return _support_step(state, pair)

    monkeypatch.setattr(dominion.theorems, "_support_step", recorded)
    return pairs


@pytest.fixture
def walk_reads(monkeypatch):
    """The box of each power-gap walk that its checker read past the base
    point, recorded: a lazy walk's points start only on the first read."""
    reads = []
    grid_gaps = _grid_gaps

    def recorded(s_factors, t_factors, n0s, m_max):
        base, points = grid_gaps(s_factors, t_factors, n0s, m_max)

        def read():
            reads.append((tuple(n0s), tuple(m_max)))
            yield from points

        return base, read()

    monkeypatch.setattr(dominion.theorems, "_grid_gaps", recorded)
    return reads


class TestDominatedPair:
    def test_valid_pair_builds(self, gap_pair):
        pair = DominatedPair(s=gap_pair.s, t=gap_pair.t)
        assert pair.s.distance(pair.t) == 1

    def test_rejects_missing_domination(self):
        trio = shear_trio("1/2", "1/2", "3/4")
        with pytest.raises(HypothesisViolation, match="dominate"):
            DominatedPair(s=trio.s, t=trio.t)

    def test_rejects_expansive_operator(self, two_point):
        big = MatrixOperator.identity(two_point) * 2
        with pytest.raises(HypothesisViolation, match="contraction"):
            DominatedPair(s=big, t=MatrixOperator.zero(two_point))

    def test_rejects_signed_entries(self, two_point):
        signed = MatrixOperator(two_point, ((0, "-1/2"), (0, 0)))
        with pytest.raises(HypothesisViolation, match="positive"):
            DominatedPair(s=MatrixOperator.identity(two_point), t=signed)

    # (S, T, the operator whose predicate is forced false or None, message).
    # 0 <= T <= S makes "S positive" and "T contraction" follow from the other
    # lines, so those two fail alone only with their predicate forced false.
    @pytest.mark.parametrize("s, t, forced, message", [
        ("I", "signed", None, "T is not positive"),
        ("I", "I/2", ("is_positive", "s"), "S is not positive"),
        ("I/2", "I", None, "S does not dominate T"),
        ("2I", "0", None, "S is not a contraction"),
        ("I", "I/2", ("is_contraction", "t"), "T is not a contraction"),
    ])
    def test_each_line_raises_its_exact_message(self, two_point, monkeypatch, s, t, forced, message):
        identity = MatrixOperator.identity(two_point)
        ops = {
            "I": identity, "I/2": identity * Fraction(1, 2), "2I": identity * 2,
            "0": MatrixOperator.zero(two_point),
            "signed": MatrixOperator(two_point, ((0, "-1/2"), (0, 0))),
        }
        s, t = ops[s], ops[t]
        if forced is not None:
            method, role = forced
            original, target = getattr(MatrixOperator, method), {"s": s, "t": t}[role]
            monkeypatch.setattr(MatrixOperator, method, lambda op: op is not target and original(op))
        lines = {
            "T is not positive": t.is_positive(),
            "S is not positive": s.is_positive(),
            "S does not dominate T": s.dominates(t),
            "S is not a contraction": s.is_contraction(),
            "T is not a contraction": t.is_contraction(),
        }
        assert [m for m, holds in lines.items() if not holds] == [message]
        with pytest.raises(HypothesisViolation) as raised:
            DominatedPair(s=s, t=t)
        assert str(raised.value) == message

    def test_space_message(self, two_point):
        other = MeasureSpace((1, 2))
        with pytest.raises(HypothesisViolation) as raised:
            DominatedPair(s=MatrixOperator.identity(two_point), t=MatrixOperator.identity(other))
        assert str(raised.value) == "pair members live on different spaces"


class TestCommutingFamily:
    def test_s_message_names_the_first_noncommuting_pair(self, two_point):
        zero = MatrixOperator.zero(two_point)
        members = (
            MatrixOperator.identity(two_point) * Fraction(1, 2),
            MatrixOperator(two_point, ((0, "1/2"), (0, 0))),
            MatrixOperator(two_point, ((0, 0), ("1/2", 0))),
        )
        pairs = tuple(DominatedPair(s=s, t=zero) for s in members)
        with pytest.raises(HypothesisViolation) as raised:
            CommutingFamily(pairs=pairs, base_exponents=(1, 1, 1))
        assert str(raised.value) == "S_2 and S_3 do not commute"

    def test_t_message_when_the_s_members_commute(self, two_point):
        with pytest.raises(HypothesisViolation) as raised:
            CommutingFamily(pairs=noncommuting_t_pairs(two_point), base_exponents=(1, 1))
        assert str(raised.value) == "T_1 and T_2 do not commute"

    def test_rejects_non_commuting_members(self, two_point):
        up = MatrixOperator(two_point, ((0, "1/2"), (0, 0)))
        down = MatrixOperator(two_point, ((0, 0), ("1/2", 0)))
        zero = MatrixOperator.zero(two_point)
        pairs = (DominatedPair(s=up, t=zero), DominatedPair(s=down, t=zero))
        with pytest.raises(HypothesisViolation, match="commute"):
            CommutingFamily(pairs=pairs, base_exponents=(1, 1))

    def test_rejects_bad_exponents(self, gap_pair):
        pair = DominatedPair(s=gap_pair.s, t=gap_pair.t)
        with pytest.raises(HypothesisViolation):
            CommutingFamily(pairs=(pair,), base_exponents=(0,))
        with pytest.raises(HypothesisViolation):
            CommutingFamily(pairs=(pair,), base_exponents=(1, 1))


def _other_identity():
    return MatrixOperator.identity(MeasureSpace((1,)))


# Each argument check no other test reaches, called on 2-point operators i:
# the call, the exception and its exact message.
ARGUMENT_ERRORS = {
    "meet-bound-m": (lambda i: check_meet_bound(i, i, -1, 1), ValueError, "m must be >= 0"),
    "meet-bound-k": (lambda i: check_meet_bound(i, i, 0, 0), ValueError, "k must be >= 1"),
    "trace-k": (lambda i: zero_two_trace(i, i, 0, 1, 3), ValueError, "require k >= 1 and d >= 1"),
    "trace-d": (lambda i: zero_two_trace(i, i, 1, 0, 3), ValueError, "require k >= 1 and d >= 1"),
    "trace-n-max": (lambda i: zero_two_trace(i, i, 1, 1, -1), ValueError, "n_max must be >= 0"),
    "certificate-m": (lambda i: find_epsilon_certificate(i, i, -1, 1, "1/2"), ValueError,
                      "require m >= 0 and k >= 1"),
    "certificate-k": (lambda i: find_epsilon_certificate(i, i, 0, 0, "1/2"), ValueError,
                      "require m >= 0 and k >= 1"),
    "certificate-d-cap": (lambda i: find_epsilon_certificate(i, i, 0, 1, "1/2", d_cap=0), ValueError,
                          "caps must allow at least one candidate"),
    "certificate-n0-cap": (lambda i: find_epsilon_certificate(i, i, 0, 1, "1/2", n0_cap=-1), ValueError,
                           "caps must allow at least one candidate"),
    "family-without-pairs": (lambda i: CommutingFamily((), ()), HypothesisViolation,
                             "a commuting family needs at least one pair"),
    "family-on-two-spaces": (
        lambda i: CommutingFamily((DominatedPair(i, i), DominatedPair(*[_other_identity()] * 2)), (1, 1)),
        HypothesisViolation, "family members live on different spaces",
    ),
    "sweep-count": (lambda i: sweep_meet_bound(0), ValueError, "count must be >= 1"),
}


@pytest.mark.parametrize("case", ARGUMENT_ERRORS)
def test_argument_errors_carry_their_exact_message(identity2, case):
    call, error, message = ARGUMENT_ERRORS[case]
    with pytest.raises(error) as raised:
        call(identity2)
    assert type(raised.value) is error and str(raised.value) == message


class TestPairProduct:
    def test_unit_gap_quadruple_verifies_from_one(self, gap_pair):
        report = check_pair_product(
            gap_pair.t, gap_pair.t, gap_pair.s, gap_pair.s, 1, 10
        )
        assert report.verdict is Verdict.VERIFIED
        assert dict(report.values)["base gap norm"] == Fraction(15, 18)
        assert report.ranges == ((1, 10),)
        assert report.guarantee == "prefix-only"

    def test_equal_pair_gives_zero_gaps(self, gap_pair):
        report = check_pair_product(
            gap_pair.s, gap_pair.s, gap_pair.s, gap_pair.s, 1, 6
        )
        assert report.verdict is Verdict.VERIFIED
        assert dict(report.values)["base gap norm"] == 0

    def test_dominance_failure_is_hypothesis_unmet(self):
        trio = shear_trio("1/2", "1/2", "3/4")
        report = check_pair_product(trio.t, trio.t, trio.s, trio.s, 1, 5)
        assert report.verdict is Verdict.HYPOTHESIS_UNMET
        failed = [h.name for h in report.failed_hypotheses()]
        assert "S1 dominates T1" in failed

    def test_range_validation(self, gap_pair):
        with pytest.raises(ValueError, match="n0 must be >= 1"):
            check_pair_product(gap_pair.t, gap_pair.t, gap_pair.s, gap_pair.s, 0, 5)
        with pytest.raises(ValueError, match="n_max must be >= 3"):
            check_pair_product(gap_pair.t, gap_pair.t, gap_pair.s, gap_pair.s, 3, 2)


class TestDampedPowers:
    def test_shear_damping_verifies(self):
        trio = shear_trio("1/2", "1/2", "1/4")
        report = check_damped_powers(trio.z, trio.s, trio.t, 1, 20)
        assert report.verdict is Verdict.VERIFIED
        assert dict(report.values)["base gap norm"] == Fraction(5, 8)

    def test_unit_gap_fails_at_first_power(self, gap_pair, identity2):
        report = check_damped_powers(identity2, gap_pair.s, gap_pair.t, 1, 20)
        assert report.verdict is Verdict.HYPOTHESIS_UNMET
        base = [h for h in report.hypotheses if h.name == "base gap norm < 1"][0]
        assert not base.holds
        assert "norm = 1" in base.detail

    def test_unit_gap_verifies_from_second_power(self, gap_pair, identity2):
        report = check_damped_powers(identity2, gap_pair.s, gap_pair.t, 2, 20)
        assert report.verdict is Verdict.VERIFIED


class TestFamilyGrid:
    def test_single_pair_from_second_power(self, gap_pair):
        family = CommutingFamily(
            pairs=(DominatedPair(s=gap_pair.s, t=gap_pair.t),),
            base_exponents=(2,),
        )
        report = check_family_grid(family, (8,))
        assert report.verdict is Verdict.VERIFIED
        assert report.ranges == ((2, 8),)

    def test_two_pairs_on_a_grid(self, gap_pair):
        pair = DominatedPair(s=gap_pair.s, t=gap_pair.t)
        family = CommutingFamily(pairs=(pair, pair), base_exponents=(1, 1))
        report = check_family_grid(family, (5, 5))
        assert report.verdict is Verdict.VERIFIED
        assert dict(report.values)["base gap norm"] == Fraction(15, 18)

    def test_equal_members_are_trivially_verified(self, gap_pair):
        pair = DominatedPair(s=gap_pair.s, t=gap_pair.s)
        family = CommutingFamily(pairs=(pair, pair), base_exponents=(1, 1))
        report = check_family_grid(family, (4, 4))
        assert report.verdict is Verdict.VERIFIED

    def test_grid_cap(self, gap_pair):
        pair = DominatedPair(s=gap_pair.s, t=gap_pair.t)
        family = CommutingFamily(pairs=(pair, pair), base_exponents=(1, 1))
        with pytest.raises(GridCapExceeded):
            check_family_grid(family, (1000, 1000))

    def test_bound_validation(self, gap_pair):
        pair = DominatedPair(s=gap_pair.s, t=gap_pair.t)
        family = CommutingFamily(pairs=(pair,), base_exponents=(2,))
        with pytest.raises(ValueError, match="n_max must be >= 2"):
            check_family_grid(family, (1,))
        with pytest.raises(ValueError, match="one exponent bound is required per pair"):
            check_family_grid(family, (3, 3))


# Mass-conserving factors on 3 uniform points: S_1 swaps the first and last
# point, S_2 moves everything to the first, S_3 spreads it evenly. Below
# them, T_1 halves S_1 and drops its last column, T_2 halves S_2, and T_3
# drops the middle column of S_3.
THIRD, HALF = Fraction(1, 3), Fraction(1, 2)
S1, T1 = ((0, 0, 1), (0, 1, 0), (1, 0, 0)), ((0, 0, 0), (0, HALF, 0), (HALF, 0, 0))
S2, T2 = ((1, 1, 1), (0, 0, 0), (0, 0, 0)), ((HALF, HALF, HALF), (0, 0, 0), (0, 0, 0))
S3, T3 = ((THIRD,) * 3,) * 3, ((THIRD, 0, THIRD),) * 3
# The gap of S_1 S_2 is 3/4 at (1, 1) and 1 at (2, 1), where T_1^2 T_2 = 0;
# that of S_2 S_1 S_2 is 7/8 at (1, 1, 1) and 1 at (1, 2, 1).
FALSIFIED_CONSERVATIVE = (
    ((Fraction(1),) * 3, [S1, S2], [T1, T2], (1, 1), (2, 2)),
    ((Fraction(1),) * 3, [S2, S1, S2], [T2, T1, T2], (1, 1, 1), (2, 2, 2)),
)


def walk(*args):
    """``_grid_gaps(*args)`` with its lazy points read out: ``(base, points)``."""
    base, points = _grid_gaps(*args)
    return base, list(points)


class TestExponentBox:
    """``_grid_gaps`` alone checks the exponent box, before any gap is
    measured, and walks it with one step of the state's two rows, ``Zl`` and
    ``Zc``, per prefix point of the box it reaches before ``Zl`` empties."""

    def test_every_power_gap_checker_shares_the_grid_cap(self, gap_pair, identity2, monkeypatch):
        monkeypatch.setattr(dominion.theorems, "GRID_CAP", 10)
        s, t = gap_pair.s, gap_pair.t
        with pytest.raises(GridCapExceeded, match="requested grid has 11 points"):
            check_pair_product(t, t, s, s, 1, 11)
        with pytest.raises(GridCapExceeded, match="requested grid has 11 points"):
            check_damped_powers(identity2, s, t, 1, 11)  # raises though the base gap is 1
        assert check_pair_product(t, t, s, s, 1, 10).verdict is Verdict.VERIFIED
        assert check_damped_powers(identity2, s, t, 1, 10).verdict is Verdict.HYPOTHESIS_UNMET

    @pytest.mark.parametrize("lengths", [(2, 3, 3), (3, 2, 3), (3, 3, 2)], ids=["s", "t", "n0s"])
    def test_walk_needs_one_factor_pair_and_base_exponent_per_axis(self, gap_pair, lengths):
        """A shorter list would otherwise leave ``zip`` walking a shorter product."""
        s_factors, t_factors, n0s = ([x] * k for x, k in zip((gap_pair.s, gap_pair.t, 1), lengths))
        with pytest.raises(ValueError, match="one S factor, one T factor and one base exponent"):
            _grid_gaps(s_factors, t_factors, n0s, [2] * 3)

    @pytest.mark.parametrize("family, n0s, m_max, steps", [
        ("random", (1, 1, 1), (30, 5, 5), 3),
        ("random", (2, 3, 1), (4, 5, 3), 1),
        ("conservative", (1, 1, 1), (30, 5, 5), 30 + 30 * 5 + 30 * 5 * 5),
        ("conservative", (2, 3, 1), (4, 5, 3), 3 + 3 * 3 + 3 * 3 * 3),
    ], ids=["random", "random-offset", "conservative", "conservative-offset"])
    def test_walk_steps_both_rows_per_capped_point(self, state_steps, family, n0s, m_max, steps):
        """Each S factor of the random family keeps the full mass of one
        column, but ``S_1 S_2`` and every ``S_i^2`` keep none: from (1, 1, 1)
        the walk steps the prefixes (1), (1, 1) and (2), and stops at each;
        from (2, 3, 1) it steps (2) only. No point past the base point has
        gap 1. Every column of the conservative family's S products keeps
        its full mass, so the walk steps every prefix point of the box, and
        the zero middle column of ``T_3``, the last factor of every T
        product, gives every point gap 1, the base point too."""
        if family == "random":
            pairs = random_commuting_family(2, 3, 3, degree=2, denom_cap=64).pairs
            s_factors, t_factors = [p.s for p in pairs], [p.t for p in pairs]
        else:
            space = MeasureSpace((1, 1, 1))
            s_factors = [MatrixOperator(space, rows) for rows in (S1, S2, S3)]
            t_factors = [MatrixOperator(space, rows) for rows in (T1, T2, T3)]
        base, points = walk(s_factors, t_factors, n0s, m_max)
        box = list(itertools.product(*map(range, n0s, (m + 1 for m in m_max))))
        assert (base == 1, points) == ((True, box[1:]) if family == "conservative" else (False, []))
        assert len(state_steps) == steps


def _entries(low):
    return st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=Fraction(low), max_value=Fraction(2), max_denominator=6),
    )


signed_entries = _entries(-2)
positive_entries = _entries(0)  # up to 2: ``contracted`` scales a grid case's S to norm 1
shares = st.one_of(
    st.sampled_from((Fraction(0), Fraction(1))),
    st.fractions(min_value=0, max_value=1, max_denominator=6),
)


def _space_weights(draw, min_n=1):
    n = draw(st.integers(min_value=min_n, max_value=3))
    return tuple(draw(st.lists(
        st.fractions(min_value=Fraction(1, 3), max_value=Fraction(4), max_denominator=4),
        min_size=n, max_size=n, unique=True,
    )))


def _rows(draw, n, entries):
    return tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))


def contracted(weights, rows):
    """``rows`` scaled to norm 1 unless zero: a positive contraction whose
    widest column keeps its full mass."""
    norm = ref_norm(weights, rows)
    return rows if norm == 0 else tuple(tuple(x / norm for x in row) for row in rows)


@st.composite
def grid_case(draw, min_axes=1, min_n=1):
    """``min_axes`` to three axes of (S_i, T_i) with ``0 <= T_i <= S_i`` and
    S_i a contraction on a ``min_n`` to 3 point space, with base exponents
    up to 3 and up to three exponents per axis. Nothing makes the factors
    commute."""
    weights = _space_weights(draw, min_n)
    axes = draw(st.integers(min_value=min_axes, max_value=3))
    s_rows = [contracted(weights, _rows(draw, len(weights), positive_entries)) for _ in range(axes)]
    t_rows = [
        tuple(tuple(x * draw(shares) for x in row) for row in s) for s in s_rows
    ]
    n0s = tuple(draw(st.integers(min_value=1, max_value=3)) for _ in range(axes))
    m_max = tuple(n0 + draw(st.integers(min_value=0, max_value=2)) for n0 in n0s)
    return weights, s_rows, t_rows, n0s, m_max


@st.composite
def undominated_case(draw):
    """``(weights, A, X, B, Y)`` on a 1 to 3 point space where ``0 <= Y <= X``
    fails: some entry of X or Y is negative, or X and Y are positive and
    some entry of Y exceeds X's. A and B are positive or signed."""
    weights = _space_weights(draw)
    n = len(weights)
    entries = draw(st.sampled_from((signed_entries, positive_entries)))
    a, x, b, y = (_rows(draw, n, entries) for _ in range(4))
    pairs = [(p, q) for rx, ry in zip(x, y) for p, q in zip(rx, ry)]
    assume(any(min(p, q) < 0 or q > p for p, q in pairs))
    return weights, a, x, b, y


def walk_args(case):
    """``(S factors, T factors, n0s, m_max)`` of a case built from rows."""
    weights, s_rows, t_rows, n0s, m_max = case
    space = MeasureSpace(weights)
    ops = ([MatrixOperator(space, r) for r in rows] for rows in (s_rows, t_rows))
    return (*ops, n0s, m_max)


def assert_walk_yields_unit_gaps(args, ref):
    """``_grid_gaps(*args)`` against ``ref``, the exact gap at every point of
    the box in lexicographic order, on contractions S_i with ``0 <= T_i <=
    S_i``. By the support lemma of ``_grid_gaps`` every gap past the base
    point is at most 1, and the walk returns the exact base gap and then
    yields exactly the later points of gap 1, in order: the first failure
    is the first one yielded."""
    base, points = walk(*args)
    assert (tuple(args[2]), base) == ref[0]
    assert all(gap <= 1 for _, gap in ref[1:])
    assert points == [p for p, gap in ref[1:] if gap == 1]


class TestPowerGapKernel:
    """The support walk against products built from scratch in the Fraction
    reference, on contractions with ``0 <= T_i <= S_i`` that need not
    commute. Each S scaled to norm 1 keeps some column's full mass, so some
    gaps reach 1."""

    @staticmethod
    def assert_grid_matches(case):
        assert_walk_yields_unit_gaps(walk_args(case), ref_grid_gaps(*case))

    @settings(max_examples=40)
    @given(grid_case())
    def test_grid_gaps_match_reference(self, case):
        self.assert_grid_matches(case)

    @settings(max_examples=15)
    @given(grid_case(min_axes=3, min_n=2))
    def test_three_axis_grids_match_reference(self, case):
        self.assert_grid_matches(case)

    @settings(max_examples=40)
    @given(grid_case(min_axes=2), st.integers(min_value=0, max_value=4))
    def test_first_axis_held_at_one_matches_reference(self, case, steps):
        """The shape the pair-product and damped-powers checkers walk:
        |A X^n - B Y^n| for 0 <= B <= A and 0 <= Y <= X, not commuting."""
        weights, (a, x, *_), (b, y, *_), (_, n0, *_), _ = case
        args = walk_args((weights, [a, x], [b, y], (1, n0), (1, n0 + steps)))
        assert_walk_yields_unit_gaps(args, [
            ((1, n), ref_norm(weights, ref_sub(
                ref_compose(a, ref_power(x, n)), ref_compose(b, ref_power(y, n))
            )))
            for n in range(n0, n0 + steps + 1)
        ])

    def test_grid_keeps_axis_order_of_non_commuting_factors(self):
        """``s1`` moves all mass to the first point and ``s2`` halves it
        there: ``s1^a s2^b = s1 s2^b`` keeps the second column's full mass,
        while ``s2^a s1^b`` leaks from both columns."""
        space = MeasureSpace((1, 1))
        s1 = MatrixOperator(space, ((1, 1), (0, 0)))
        s2 = MatrixOperator(space, ((HALF, 0), (0, 1)))
        zero = MatrixOperator.zero(space)
        assert s1 @ s2 != s2 @ s1 and s1 @ s1 == s1
        assert (s1 @ s2).norm() == 1 and (s2 @ s1).norm() == HALF
        box = list(itertools.product((1, 2), repeat=2))
        assert walk([s1, s2], [zero, zero], (1, 1), (2, 2)) == (1, box[1:])
        assert walk([s2, s1], [zero, zero], (1, 1), (2, 2)) == (HALF, [])

    def test_a_misjudged_point_is_an_internal_inconsistency(self, monkeypatch):
        """Each yielded point is measured again with ``distance``: a gap other
        than 1 there means the support walk is wrong."""
        args = walk_args(FALSIFIED_CONSERVATIVE[0])
        assert walk(*args)[1][:2] == [(2, 1), (2, 2)]
        _, points = _grid_gaps(*args)
        distance = MatrixOperator.distance
        monkeypatch.setattr(MatrixOperator, "distance", lambda a, b: distance(a, b) * HALF)
        with pytest.raises(InternalConsistencyError, match=r"at \(2, 1\)"):
            next(points)

    @settings(max_examples=30)
    @given(undominated_case(), st.integers(min_value=1, max_value=3))
    def test_unmet_reports_carry_the_exact_base_gap(self, case, n0):
        """Signed or undominated factors: the checkers report the base gap,
        with absolute values, and walk no further."""
        weights, a, x, b, y = case
        space = MeasureSpace(weights)
        ops = [MatrixOperator(space, r) for r in (a, x, b, y)]
        pair = check_pair_product(ops[2], ops[3], ops[0], ops[1], n0, n0 + 2)
        assert pair.verdict is Verdict.HYPOTHESIS_UNMET
        assert pair.values == (("base gap norm", ref_norm(weights, ref_sub(
            ref_compose(a, ref_power(x, n0)), ref_compose(b, ref_power(y, n0))
        ))),)
        damped = check_damped_powers(ops[0], ops[1], ops[3], n0, n0 + 2)
        assert damped.verdict is Verdict.HYPOTHESIS_UNMET
        assert damped.values == (("base gap norm", ref_norm(weights, ref_sub(
            ref_compose(a, ref_power(x, n0)), ref_compose(a, ref_power(y, n0))
        ))),)

    # Each checker call on 2 uniform points, and the hypothesis its report
    # fails. Only the base-gap cases also fail "base gap norm < 1".
    UNMET = {
        "pair-product-signed": ("pair", ("signed", "0", "I/2", "I/2"), "T1 positive"),
        "pair-product-undominated": ("pair", ("I", "I/2", "I/2", "I/2"), "S1 dominates T1"),
        "pair-product-non-contraction": ("pair", ("0", "I/4", "big", "I/4"), "S1 contraction"),
        "pair-product-non-commuting": ("pair", ("0", "0", "up", "down"), "S1 S2 = S2 S1"),
        "pair-product-base-gap": ("pair", ("0", "0", "I", "I"), "base gap norm < 1"),
        "damped-powers-signed": ("damped", ("-I/2", "I/2", "0"), "Z positive"),
        "damped-powers-undominated": ("damped", ("I", "I/2", "I"), "S dominates T"),
        "damped-powers-non-contraction": ("damped", ("I/4", "big", "0"), "S contraction"),
        "damped-powers-non-commuting": ("damped", ("up", "down", "0"), "Z S = S Z"),
        "damped-powers-base-gap": ("damped", ("I", "I", "0"), "base gap norm < 1"),
        "family-grid-base-gap": ("grid", ("I", "0"), "base gap norm < 1"),
    }

    @staticmethod
    def run_checker(space, checker, names):
        identity = MatrixOperator.identity(space)
        ops = {
            "I": identity, "I/2": identity / 2, "I/4": identity / 4, "-I/2": identity * Fraction(-1, 2),
            "0": MatrixOperator.zero(space), "big": MatrixOperator(space, ((2, 0), (0, HALF))),
            "signed": MatrixOperator(space, ((0, "-1/2"), (0, 0))),
            "up": MatrixOperator(space, ((0, HALF), (0, 0))),
            "down": MatrixOperator(space, ((0, 0), (HALF, 0))),
        }
        args = [ops[name] for name in names]
        if checker == "pair":
            return check_pair_product(*args, 1, 3)
        if checker == "damped":
            return check_damped_powers(*args, 1, 3)
        return check_family_grid(CommutingFamily((DominatedPair(*args),), (1,)), (3,))

    @pytest.mark.parametrize("case", UNMET)
    def test_unmet_reports_never_advance_the_walk(self, walk_reads, two_point, case):
        """The walk's support lemma needs ``0 <= T_i <= S_i`` with S_i a
        contraction, which it no longer checks: no HYPOTHESIS_UNMET report
        reads a point past the base, whichever line fails."""
        checker, names, failed = self.UNMET[case]
        report = self.run_checker(two_point, checker, names)
        assert report.verdict is Verdict.HYPOTHESIS_UNMET
        assert failed in [h.name for h in report.failed_hypotheses()]
        assert (failed == "base gap norm < 1") == (dict(report.values)["base gap norm"] >= 1)
        assert walk_reads == []

    @pytest.mark.parametrize("checker, names", [
        ("pair", ("0", "0", "I/2", "I/2")), ("damped", ("I", "I/2", "0")), ("grid", ("I/2", "0")),
    ])
    def test_verified_reports_read_the_walk(self, walk_reads, two_point, checker, names):
        """The control of the test above: the wrapped walk records a read."""
        assert self.run_checker(two_point, checker, names).verdict is Verdict.VERIFIED
        assert walk_reads == [((1, 1), (1, 3)) if checker != "grid" else ((1,), (3,))]

    def test_report_names_the_first_gap_of_norm_one_or_more(self):
        """Every point the walk yields has gap 1: the report names the first,
        and reads none once the base gap is 1 or more."""
        points = [(1, 2), (2, 1)]
        report = _power_gap_report("c", [], HALF, iter(points), ((1, 2), (1, 2)))
        assert report.verdict is Verdict.FALSIFIED
        assert (report.failure_point, report.failure_norm) == ((1, 2), 1)
        assert report.values == (("base gap norm", HALF),)
        unread = iter(points)
        unmet = _power_gap_report("c", [], Fraction(1), unread, ((1, 2), (1, 2)))
        assert unmet.verdict is Verdict.HYPOTHESIS_UNMET and unmet.failure_point is None
        assert list(unread) == points


class TestRowWalkAtWorkloadScale:
    """The walk of the two support rows ``(Zl, Zc)`` against products of
    ``MatrixOperator`` powers measured with ``distance``, on the benchmark's
    shapes: criterion 03's dense 4-point pairs over 50 powers and criterion
    04's (30, 5, 5) grids, whose gaps carry thousand-bit denominators, and
    on a mass-conserving pair at the grid cap."""

    @staticmethod
    def assert_walks_agree(s_factors, t_factors, n0s, m_max):
        ref = matrix_grid_gaps(s_factors, t_factors, n0s, m_max)
        assert_walk_yields_unit_gaps((s_factors, t_factors, n0s, m_max), ref)
        assert max(gap.denominator for _, gap in ref).bit_length() > 1000

    @pytest.mark.parametrize("seed", [5, 7_000_003, 31_000_017])
    def test_dominated_powers(self, seed):
        pair = random_dominated_pair(seed, 4, denom_cap=64)
        self.assert_walks_agree([pair.s], [pair.t], (1,), (50,))

    @pytest.mark.parametrize("seed", [2, 31_000_000])
    def test_three_pair_grid(self, seed):
        family = random_commuting_family(seed, 3, 3, degree=2, denom_cap=64)
        s_factors = [pair.s for pair in family.pairs]
        t_factors = [pair.t for pair in family.pairs]
        self.assert_walks_agree(s_factors, t_factors, family.base_exponents, (30, 5, 5))

    def test_conservative_pair_builds_every_t_row(self, state_steps):
        """A dense 4-point S that keeps every column's full mass, and T that
        zeroes some of its entries: Zl never empties, so the walk steps the
        T side's Zc row with the S side's Zl row at every point."""
        rng = Random(12)
        space = random_space(rng, 4)
        parts = [[rng.randint(1, 999) for _ in range(4)] for _ in range(4)]
        s_rows = column_stochastic(space.weights, parts)
        t_rows = tuple(tuple(x if rng.random() < 0.6 else 0 for x in row) for row in s_rows)
        s, t = MatrixOperator(space, s_rows), MatrixOperator(space, t_rows)
        self.assert_walks_agree([s], [t], (1,), (50,))
        assert len(state_steps) == 50

    def test_a_conservative_pair_verifies_at_the_grid_cap(self):
        """A dense mass-conserving pair, whose exact powers gain bits at every
        step: ``T = S / 2`` has no zero column, so no gap reaches 1, and the
        walk decides all ``GRID_CAP`` powers on supports within the budget."""
        space = MeasureSpace((1,) * 4)
        rng = Random(3)
        parts = [[rng.randint(1, 15) for _ in range(4)] for _ in range(4)]
        s = MatrixOperator(space, column_stochastic(space.weights, parts))
        identity = MatrixOperator.identity(space)
        start = time.process_time()
        report = check_damped_powers(identity, s, s / 2, 1, dominion.theorems.GRID_CAP)
        assert report.verdict is Verdict.VERIFIED
        assert time.process_time() - start < 5


@st.composite
def conservative_case(draw):
    """One to three axes of (S_i, T_i) on a 2 or 3 point space: each S_i
    keeps every column's full mass, ``w^T S_i = w^T``, and T_i is S_i with
    some entries zeroed. Nothing makes the factors commute."""
    weights = _space_weights(draw, min_n=2)
    n = len(weights)
    column = st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n).filter(any)
    axes = draw(st.integers(min_value=1, max_value=3))
    s_rows = [column_stochastic(weights, [draw(column) for _ in range(n)]) for _ in range(axes)]
    kept = st.integers(min_value=0, max_value=2)  # an entry is zeroed when 0 is drawn
    t_rows = [tuple(tuple(x if draw(kept) else 0 for x in row) for row in s) for s in s_rows]
    n0s = tuple(draw(st.integers(min_value=1, max_value=2)) for _ in range(axes))
    m_max = tuple(n0 + draw(st.integers(min_value=0, max_value=2)) for n0 in n0s)
    return weights, s_rows, t_rows, n0s, m_max


class TestConservativeRegime:
    """Mass-conserving S, the regime where gaps reach exactly 1: ``Zl`` never
    empties, so the walk steps every point of the box and yields its points
    of gap 1, and a report names the first gap >= 1 of the matrix walk."""

    @staticmethod
    def report(args):
        return _power_gap_report("c", [], *_grid_gaps(*args), tuple(zip(*args[2:])))

    @settings(max_examples=60)
    @given(conservative_case())
    @example(FALSIFIED_CONSERVATIVE[0])
    @example(FALSIFIED_CONSERVATIVE[1])
    def test_reports_match_the_matrix_walk(self, case):
        args = walk_args(case)
        ref = matrix_grid_gaps(*args)
        assert_walk_yields_unit_gaps(args, ref)
        report = self.report(args)
        if ref[0][1] >= 1:
            assert report.verdict is Verdict.HYPOTHESIS_UNMET
            return
        failure = next(((p, gap) for p, gap in ref[1:] if gap >= 1), (None, None))
        assert report.verdict is (Verdict.VERIFIED if failure[0] is None else Verdict.FALSIFIED)
        assert (report.failure_point, report.failure_norm) == failure

    @pytest.mark.parametrize("case, base, first_failure", [
        (FALSIFIED_CONSERVATIVE[0], Fraction(3, 4), ((2, 1), 1)),
        (FALSIFIED_CONSERVATIVE[1], Fraction(7, 8), ((1, 2, 1), 1)),
    ])
    def test_examples_fail_at_their_first_unit_gap(self, case, base, first_failure):
        report = self.report(walk_args(case))
        assert report.values == (("base gap norm", base),)
        assert report.verdict is Verdict.FALSIFIED
        assert (report.failure_point, report.failure_norm) == first_failure


@st.composite
def leaking_case(draw):
    """A ``conservative_case`` with some columns of each S_i, and the same
    columns of T_i, scaled by 1/2: those columns leak mass, the others keep
    it, so the sets ``Zl(S_i^n)`` shrink to empty or stop at a nonempty set."""
    weights, s_rows, t_rows, n0s, m_max = draw(conservative_case())
    scales = [[draw(st.sampled_from((1, 1, HALF))) for _ in weights] for _ in s_rows]

    def scaled(axes):
        return [tuple(tuple(x * c_j for x, c_j in zip(row, c)) for row in rows) for rows, c in zip(axes, scales)]

    return weights, scaled(s_rows), scaled(t_rows), n0s, m_max


@st.composite
def gallery_case(draw):
    """One or two commuting pairs of ``random_commuting_family`` on three
    points, with a box of up to four exponents per axis."""
    family = random_commuting_family(draw(st.integers(0, 10**6)), draw(st.integers(1, 2)), 3, degree=2)
    rows = ([getattr(p, side).entries for p in family.pairs] for side in "st")
    m_max = tuple(draw(st.integers(min_value=1, max_value=4)) for _ in family.pairs)
    return (family.pairs[0].s.space.weights, *rows, family.base_exponents, m_max)


def bitset(indices):
    return sum(1 << j for j in indices)


def support_rows(s, t, n):
    """The walk's states ``(Zl(S^k), Zc(T^k))`` for k = 1, ..., n, stepped
    from the identity's ``(every column, {})`` by ``_support_step``."""
    state, pair, states = (bitset(range(s.space.n)), 0), _support_pair(s, t), []
    for _ in range(n):
        state = _support_step(state, pair)
        states.append(state)
    return states


# On weights (1, 2), S keeps the full mass of its first column only, and
# moves some of it to the second point, so Zl(S) = {0} and Zl(S^2) is empty.
# On 3 uniform points the shift e_0 -> e_1 -> e_2 -> e_2 / 2 has
# Zl = {0, 1}, {0}, {} for its first three powers, and T is half of it.
QUARTER = Fraction(1, 4)
SHIFT = ((0, 0, 0), (1, 0, 0), (0, 1, HALF))
LEAKS_AT = {
    2: ((Fraction(1), Fraction(2)), [((HALF, 0), (QUARTER, QUARTER))], [((0, 0), (QUARTER, QUARTER))], (1,), (4,)),
    3: ((Fraction(1),) * 3, [SHIFT, SHIFT], [tuple(tuple(x * HALF for x in row) for row in SHIFT)] * 2, (1, 1), (4, 4)),
}
# On weights (1, 2, 3, 5), S1 = diag(1, 1/2, 1/2, 1/2) keeps the full mass of
# column 0 only and S2 = diag(1/2, 1, 1/2, 1/2) of column 1 only, and T_i is
# S_i / 2: no axis leaks, yet every product S1^a S2^b leaks from every column,
# so the walk stops axis 2 at its first step for every a.
MIXED_S = [
    ((1, 0, 0, 0), (0, HALF, 0, 0), (0, 0, HALF, 0), (0, 0, 0, HALF)),
    ((HALF, 0, 0, 0), (0, 1, 0, 0), (0, 0, HALF, 0), (0, 0, 0, HALF)),
]
MIXED_T = [tuple(tuple(x * HALF for x in row) for row in s) for s in MIXED_S]
MIXED = ((Fraction(1), Fraction(2), Fraction(3), Fraction(5)), MIXED_S, MIXED_T, (1, 1), (6, 6))


class TestLeakDepth:
    """Each axis of the walk stops once ``Zl`` of the S product is empty,
    which it then stays: every column of every later product leaks mass, so
    every gap there is below 1. That covers an axis past its S factor's leak
    depth, the first n with ``Zl(S_i^n)`` empty, and a product that leaks
    though no axis does. Every other check of the walk still runs."""

    @settings(max_examples=60)
    @given(st.one_of(conservative_case(), leaking_case(), gallery_case()))
    @example(LEAKS_AT[2])
    @example(LEAKS_AT[3])
    def test_chain_is_the_full_mass_columns_of_each_power(self, case):
        """The update rules against exact powers: ``Zl(S^n)``, the columns
        whose full mass S^n keeps, and ``Zc(T^n)``, the zero columns of T^n."""
        weights, s_rows, t_rows, *_ = case
        space = MeasureSpace(weights)
        columns = range(len(weights))
        for s, t in zip(s_rows, t_rows):
            s_op, t_op = MatrixOperator(space, s), MatrixOperator(space, t)
            for n, (kept, zeros) in enumerate(support_rows(s_op, t_op, len(weights) + 2), 1):
                s_power, t_power = ref_power(s, n), ref_power(t, n)
                masses = [sum(w * row[j] for w, row in zip(weights, s_power)) for j in columns]
                assert kept == bitset(j for j in columns if masses[j] == weights[j])
                assert zeros == bitset(j for j in columns if not any(row[j] for row in t_power))

    @settings(max_examples=60)
    @given(st.one_of(conservative_case(), leaking_case(), gallery_case()))
    @example(LEAKS_AT[2])
    @example(LEAKS_AT[3])
    @example(FALSIFIED_CONSERVATIVE[1])
    def test_walk_yields_exactly_the_unit_gaps(self, case):
        """The support lemma on contractions: the base yield is the matrix
        walk's base gap, every later gap is at most 1, and the later yields
        are exactly the points of gap 1."""
        args = walk_args(case)
        assert_walk_yields_unit_gaps(args, matrix_grid_gaps(*args))

    def test_a_product_that_leaks_though_no_axis_does_is_cut_short(self, state_steps):
        """The mixed regime on a (100, 100) box: for every power of S1 the
        walk steps axis 2 once, finds ``Zl`` empty and moves on, and the
        verdict is the matrix walk's, whose gaps are all below 1."""
        s_factors, t_factors, n0s, _ = walk_args(MIXED)
        assert [support_rows(s, t, 4)[-1][0] for s, t in zip(s_factors, t_factors)] == [1, 2]
        got = walk(s_factors, t_factors, n0s, (100, 100))
        assert len(state_steps) == 200
        ref = matrix_grid_gaps(s_factors, t_factors, n0s, (100, 100))
        assert got == (ref[0][1], [])
        assert max(gap for _, gap in ref) < 1
        pairs = tuple(DominatedPair(s, t) for s, t in zip(s_factors, t_factors))
        report = check_family_grid(CommutingFamily(pairs, (1, 1)), (100, 100))
        assert report.verdict is Verdict.VERIFIED

    def test_gallery_family_leaks_by_its_second_power(self):
        pairs = random_commuting_family(2, 3, 3, degree=2, denom_cap=64).pairs
        for pair in pairs:
            (first, _), (second, _) = support_rows(pair.s, pair.t, 2)
            assert first and not second

    def test_checkers_report_the_refused_factors_as_unmet(self):
        """Factors outside the support lemma, a non-contraction S or T above
        S, fail the checkers' hypotheses: HYPOTHESIS_UNMET."""
        space = MeasureSpace((1, 1))
        identity, zero = MatrixOperator.identity(space), MatrixOperator.zero(space)
        non_contraction = MatrixOperator(space, ((2, 0), (0, HALF)))
        for s, t, failed in (
            (non_contraction, zero, "S contraction"),
            (identity / 2, identity, "S dominates T"),
        ):
            report = check_damped_powers(identity, s, t, 1, 3)
            assert report.verdict is Verdict.HYPOTHESIS_UNMET
            assert failed in [h.name for h in report.failed_hypotheses()]

    def test_grid_cap_is_judged_on_the_requested_box(self, gap_pair):
        pair = DominatedPair(s=gap_pair.s, t=gap_pair.t)
        (first, _), (second, _) = support_rows(pair.s, pair.t, 2)
        assert first and not second
        family = CommutingFamily(pairs=(pair, pair), base_exponents=(1, 1))
        with pytest.raises(GridCapExceeded, match="requested grid has 1001000 points"):
            check_family_grid(family, (1001, 1000))


class TestCompositionCounts:
    """Products made, counted by wrapping ``MatrixOperator.compose``."""

    @pytest.fixture
    def compositions(self, monkeypatch):
        calls = []
        compose = MatrixOperator.compose

        def counted(self, other):
            calls.append(None)
            return compose(self, other)

        monkeypatch.setattr(MatrixOperator, "compose", counted)
        return calls

    ROWS = ((Fraction(1, 2), Fraction(1, 3), 0), (Fraction(1, 4), 0, 1), (0, Fraction(2, 3), 0))

    def test_zeroth_and_first_powers_make_no_product(self, compositions):
        x = MatrixOperator(MeasureSpace((1, 2, 3)), self.ROWS)
        assert x**0 == MatrixOperator.identity(x.space)
        assert x**1 is x
        assert compositions == []

    @pytest.mark.parametrize("e", range(5))
    def test_powers_match_reference(self, compositions, e):
        x = MatrixOperator(MeasureSpace((1, 2, 3)), self.ROWS)
        assert (x**e).entries == ref_power(x.entries, e)
        # one squaring per bit below the top, one product per set bit but the first
        assert len(compositions) == max(e.bit_length() + e.bit_count() - 2, 0)

    def test_dominated_powers_sweep_makes_no_product(self, compositions):
        """The one-pair walk steps bitset states, and S**1 is S: no product at all."""
        result = sweep_dominated_powers(5, n=4, n_max=50, seed0=7_000_000, denom_cap=64)
        assert result.checked == 5
        assert compositions == []

    def test_zero_two_trace_makes_no_product_per_step(self, compositions):
        t = random_positive_contraction(9500, 3, denom_cap=64)
        counts = []
        for n_max in (10, 200):
            compositions.clear()
            zero_two_trace(t, t, 2, 2, n_max)
            counts.append(len(compositions))
        assert counts[0] == counts[1]


class TestMeetBound:
    def test_averaging_map(self, gap_pair, identity2):
        report = check_meet_bound(identity2, gap_pair.s, 0, 1)
        assert report.verdict is Verdict.VERIFIED
        values = dict(report.values)
        assert values["premise norm"] == 1
        assert values["conclusion norm"] == Fraction(1, 2)

    def test_nilpotent_map(self, gap_pair, identity2):
        report = check_meet_bound(identity2, gap_pair.t, 0, 1)
        assert report.verdict is Verdict.VERIFIED
        assert dict(report.values)["conclusion norm"] == Fraction(1, 4)

    def test_zero_damping(self, gap_pair, two_point):
        report = check_meet_bound(MatrixOperator.zero(two_point), gap_pair.s, 0, 1)
        assert report.verdict is Verdict.VERIFIED
        values = dict(report.values)
        assert values["premise norm"] == 0 and values["conclusion norm"] == 0

    def test_premise_at_two_is_hypothesis_unmet(self, identity2, flip):
        report = check_meet_bound(identity2, flip, 0, 1)
        assert report.verdict is Verdict.HYPOTHESIS_UNMET
        assert dict(report.values)["premise norm"] == 2

    def test_sweep_never_falsifies(self):
        result = sweep_meet_bound(100, n=3)
        assert result.ok
        assert result.passed == 100


class TestDecomposition:
    def test_nilpotent_witness_collapses(self, gap_pair):
        witness = build_decomposition(gap_pair.t, 0, 1, 1, 1)
        assert witness.q == gap_pair.t
        assert witness.v_sequence[0] == MatrixOperator.zero(gap_pair.space)

    def test_identity_witness_is_trivial(self, two_point, identity2):
        witness = build_decomposition(identity2, 1, 2, 3, 2)
        assert witness.q == MatrixOperator.zero(two_point)
        assert all(v == identity2 for v in witness.v_sequence)

    def test_averaging_witness_builds_deep(self, gap_pair):
        witness = build_decomposition(gap_pair.s, 0, 1, 2, 3)
        assert len(witness.v_sequence) == 3
        assert witness.max_v_norm() <= 2
        assert witness.q.norm() <= 1

    def test_norm_bounds_on_random_contractions(self):
        for trial in range(10):
            t = random_positive_contraction(seed=7100 + trial, n=3)
            witness = build_decomposition(t, m=trial % 2, k=1 + trial % 2, ell=2, d=3)
            assert witness.max_v_norm() <= 2
            assert witness.q.norm() <= 1

    def test_parameter_validation(self, gap_pair, two_point):
        with pytest.raises(ValueError):
            build_decomposition(gap_pair.s, -1, 1, 1, 1)
        with pytest.raises(HypothesisViolation) as raised:
            build_decomposition(MatrixOperator.identity(two_point) * 2, 0, 1, 1, 1)
        assert str(raised.value) == "T is not a contraction"


class TestZeroTwoTrace:
    def test_geometric_decay_of_averaging_map(self, gap_pair, identity2):
        trace = zero_two_trace(identity2, gap_pair.s, 1, 1, 20)
        for n in range(1, 21):
            assert trace.norms[n] == Fraction(1, 6) * Fraction(5, 6) ** (n - 1)

    def test_identity_trace_is_zero(self, identity2):
        trace = zero_two_trace(identity2, identity2, 1, 1, 10)
        assert all(a == 0 for a in trace.norms)

    def test_permutation_stays_at_two(self, identity2, flip):
        trace = zero_two_trace(identity2, flip, 1, 1, 20)
        assert all(a == 2 for a in trace.norms)

    def test_monotone_on_random_inputs(self):
        for trial in range(20):
            t = random_positive_contraction(seed=9300 + trial, n=3)
            identity = MatrixOperator.identity(t.space)
            trace = zero_two_trace(identity, t, 1 + trial % 3, 1 + trial % 2, 15)
            norms = trace.norms
            assert all(b <= a for a, b in zip(norms, norms[1:]))

    def test_first_below(self, gap_pair, identity2):
        trace = zero_two_trace(identity2, gap_pair.s, 1, 1, 20)
        assert trace.first_below(Fraction(1, 100)) == 17
        assert trace.first_below(Fraction(1, 10 ** 9)) is None

    def test_first_below_matches_a_linear_search(self, identity2, flip):
        t = random_positive_contraction(seed=9400, n=3, denom_cap=64)
        traces = [
            zero_two_trace(MatrixOperator.identity(t.space), t, 2, 1, 30),
            zero_two_trace(identity2, flip, 1, 1, 6),  # constant 2
            zero_two_trace(identity2, identity2, 1, 1, 6),  # constant 0
        ]
        for trace in traces:
            norms = trace.norms
            thresholds = {Fraction(0), Fraction(-1), norms[0] + 1, *norms}
            thresholds |= {(a + b) / 2 for a, b in zip(norms, norms[1:])}
            for threshold in thresholds:
                linear = next((n for n, a in trace.records if a < threshold), None)
                assert trace.first_below(threshold) == linear, threshold

    def test_rejects_non_commuting(self, two_point):
        up = MatrixOperator(two_point, ((0, "1/2"), (0, 0)))
        down = MatrixOperator(two_point, ((0, 0), ("1/2", 0)))
        with pytest.raises(HypothesisViolation) as raised:
            zero_two_trace(up, down, 1, 1, 5)
        assert str(raised.value) == "Z and T do not commute"

    def test_rejects_signed_damping(self, identity2):
        with pytest.raises(HypothesisViolation) as raised:
            zero_two_trace(identity2 * Fraction(-1, 2), identity2, 1, 1, 5)
        assert str(raised.value) == "Z is not positive"

    def test_rejects_expansive_input(self, two_point, identity2):
        with pytest.raises(HypothesisViolation) as raised:
            zero_two_trace(identity2, identity2 * 2, 1, 1, 5)
        assert str(raised.value) == "T is not a contraction"


class TestZeroTwoTraceConstruction:
    """Every ``ZeroTwoTrace`` checks its own records: strictly increasing n,
    and norms that never increase, compared through one quotient when the
    reduced denominators nest and by cross-multiplication when they do not."""

    @staticmethod
    def build(identity, *records):
        return ZeroTwoTrace(z=identity, t=identity, k=1, d=1, records=tuple(
            (n, Fraction(a)) for n, a in records
        ))

    @pytest.mark.parametrize("prev, nxt", [
        ("1/2", "3/4"),  # 2 divides 4
        ("1/3", "1/2"),  # 3 does not divide 2
        ("1/3", "2/3"),  # equal denominators
        ("1", "5/4"),
    ], ids=["nested", "not-nested", "same-denominator", "integer-below"])
    def test_increasing_norms_are_rejected(self, identity2, prev, nxt):
        with pytest.raises(InternalConsistencyError, match="trace norms increased"):
            self.build(identity2, (0, "2"), (1, prev), (2, nxt), (3, "0"))

    @pytest.mark.parametrize("norms", [
        ("1/3", "1/3"),
        ("2", "2", "2"),
        ("0", "0"),
        ("1/2", "1/3", "1/6", "1/6", "0"),
    ], ids=["equal-fractions", "equal-integers", "zeros", "mixed"])
    def test_equal_and_falling_norms_are_accepted(self, identity2, norms):
        trace = self.build(identity2, *enumerate(norms))
        assert trace.norms == tuple(Fraction(a) for a in norms)

    @pytest.mark.parametrize("indices", [(0, 0), (0, 2, 1), (3, 3, 4)],
                             ids=["repeated", "descending", "repeated-first"])
    def test_n_must_strictly_increase(self, identity2, indices):
        with pytest.raises(InternalConsistencyError, match="not ordered by n"):
            self.build(identity2, *((n, "1") for n in indices))

    def test_gaps_in_n_are_accepted(self, identity2):
        assert self.build(identity2, (0, "1"), (5, "1/2")).first_below("3/4") == 5

    @given(
        st.integers(0, 2**200), st.integers(1, 2**100),
        st.integers(0, 2**200), st.integers(1, 2**100), st.booleans(),
    )
    def test_rejects_exactly_the_increases(self, a, b, c, m, nested):
        prev = Fraction(a, b)
        nxt = Fraction(c, prev.denominator * m if nested else m)
        records = ((0, prev), (1, nxt))
        identity = MatrixOperator.identity(MeasureSpace((1, 1)))
        if nxt > prev:
            with pytest.raises(InternalConsistencyError):
                self.build(identity, *records)
        else:
            assert self.build(identity, *records).norms == (prev, nxt)


@st.composite
def trace_cases(draw):
    """(Z, T, k, d, n_max): Z = I or Z = T against a random positive
    contraction on 1-5 points, or a ``meet_bound_instance``, whose Z is a
    scalar, a diagonal or a permutation."""
    seed = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(("identity", "self", "meet")))
    if kind == "meet":
        z, t, _, _ = meet_bound_instance(seed, 3, denom_cap=64)
    else:
        density = draw(st.sampled_from((0.5, 1.0)))
        t = random_positive_contraction(seed, draw(st.integers(1, 5)), density=density, denom_cap=64)
        z = MatrixOperator.identity(t.space) if kind == "identity" else t
    return z, t, draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 40))


_IDENTITY2 = MatrixOperator.identity(MeasureSpace((1, 1)))
_FLIP2 = MatrixOperator.permutation(_IDENTITY2.space, (1, 0))


class TestZeroTwoTraceWalk:
    """The integer column walk against ``ref_zero_two_trace``, the operator
    walk it replaces."""

    @given(trace_cases())
    @example((_IDENTITY2, _IDENTITY2, 1, 1, 12))  # constant 0
    @example((_IDENTITY2, _FLIP2, 1, 1, 12))  # constant 2
    def test_matches_the_operator_walk(self, case):
        """Every record equals the reference and is a canonical ``Fraction``."""
        trace = zero_two_trace(*case)
        assert trace.records == ref_zero_two_trace(*case)
        for _, a in trace.records:
            assert a.denominator > 0 and math.gcd(a.numerator, a.denominator) == 1

    def test_workload_scale(self):
        """The benchmark's trace shape: 4 dense points, 250 steps."""
        t = random_positive_contraction(31_000_017, 4, density=1.0, denom_cap=64)
        z = MatrixOperator.identity(t.space)
        trace = zero_two_trace(z, t, 1, 1, 250)
        assert trace.records == ref_zero_two_trace(z, t, 1, 1, 250)
        assert trace.norms[-1].denominator.bit_length() > 1000

    def test_long_trace_within_budget(self):
        """2,000 steps of the benchmark's trace shape, to 29,000-bit
        denominators, within 2 s of CPU (about 0.2 s on CPython 3.11.7); the
        last record is checked against one power of T."""
        t = random_positive_contraction(31_000_017, 4, density=1.0, denom_cap=64)
        identity = MatrixOperator.identity(t.space)
        start = time.process_time()
        trace = zero_two_trace(identity, t, 1, 1, 2000)
        assert time.process_time() - start < 2
        assert trace.norms[-1] == ((t**2000) @ (t - identity)).norm()


class TestCertificateSearch:
    def test_geometric_target(self, gap_pair, identity2):
        search = find_epsilon_certificate(identity2, gap_pair.s, 0, 1, "1/100")
        assert search.verdict is Verdict.VERIFIED
        assert search.certificate == (1, 17)
        assert search.achieved_norm == Fraction(1, 6) * Fraction(5, 6) ** 16
        assert search.guarantee == "tail-by-monotonicity"

    def test_threshold_two_succeeds_immediately(self, gap_pair, identity2):
        search = find_epsilon_certificate(identity2, gap_pair.s, 0, 1, 2)
        assert search.certificate == (1, 0)

    def test_permutation_premise_fails(self, identity2, flip):
        search = find_epsilon_certificate(identity2, flip, 0, 1, "1/10")
        assert search.verdict is Verdict.HYPOTHESIS_UNMET
        assert search.certificate is None

    def test_exhaustion_is_reported_not_falsified(self, gap_pair, identity2):
        search = find_epsilon_certificate(
            identity2, gap_pair.s, 0, 1, "1/100", d_cap=1, n0_cap=5
        )
        assert search.verdict is Verdict.EXHAUSTED
        assert search.certificate is None

    def test_epsilon_validation(self, gap_pair, identity2):
        with pytest.raises(ValueError):
            find_epsilon_certificate(identity2, gap_pair.s, 0, 1, 0)

    def test_all_shipped_examples_certify(self):
        # every shipped operator with a sub-two premise must certify at 1/10
        pair = unit_gap_pair()
        trio = shear_trio("1/2", "1/2", "1/4")
        lp = p_norm_gap_pair()
        shipped = [pair.s, pair.t, trio.z, trio.s, trio.t, lp.s, lp.t]
        for t in shipped:
            identity = MatrixOperator.identity(t.space)
            premise = (t - identity).norm()
            search = find_epsilon_certificate(identity, t, 0, 1, "1/10")
            if premise < 2:
                assert search.verdict is Verdict.VERIFIED, repr(t)
            else:
                assert search.verdict is Verdict.HYPOTHESIS_UNMET


def _ref_scan(z, t, k, epsilon, d_cap, n0_cap):
    return ref_certificate_scan(
        t.space.weights, z.entries, t.entries, k, Fraction(epsilon), d_cap, n0_cap
    )


def _certificate_cases():
    pair = unit_gap_pair()
    identity = MatrixOperator.identity(pair.space)
    flip = MatrixOperator.permutation(pair.space, (1, 0))
    cases = []
    # a_1 = 1/6 for the unit-gap S: the search needs a_n strictly below epsilon.
    settings = (("1/100", 8, 40), ("1/100", 2, 5), ("1/6", 1, 5), ("1/2", 1, 0), ("2", 1, 3))
    for t in (pair.s, pair.t):
        for epsilon, d_cap, n0_cap in settings:
            cases.append((identity, t, 0, 1, epsilon, d_cap, n0_cap))
    # The flip fails the premise at k = 1; at k = 2 its trace is zero.
    cases.append((identity, flip, 0, 1, "1/10", 2, 4))
    cases.append((identity, flip, 1, 2, "1/10", 2, 4))
    for seed in range(12):
        z, t, m, k = meet_bound_instance(seed, 3, denom_cap=64)
        for epsilon in ("1/5", "1/20"):
            cases.append((z, t, m, k, epsilon, 4, 3))
    return cases


class TestCertificateMatchesTraceScan:
    """``find_epsilon_certificate`` must return the first (d, n0) that the
    d-ordered linear reference scan ``ref_certificate_scan`` finds."""

    @pytest.mark.parametrize("case", _certificate_cases())
    def test_search_equals_scan(self, case):
        z, t, m, k, epsilon, d_cap, n0_cap = case
        search = find_epsilon_certificate(z, t, m, k, epsilon, d_cap=d_cap, n0_cap=n0_cap)
        if search.verdict is Verdict.HYPOTHESIS_UNMET:
            assert any(not h.holds for h in search.hypotheses)
            assert search.certificate is None
            return
        certificate, norm = _ref_scan(z, t, k, epsilon, d_cap, n0_cap)
        assert search.certificate == certificate
        assert search.achieved_norm == norm
        expected = Verdict.EXHAUSTED if certificate is None else Verdict.VERIFIED
        assert search.verdict is expected

    def test_cases_cover_every_outcome(self):
        outcomes = set()
        for z, t, m, k, epsilon, d_cap, n0_cap in _certificate_cases():
            search = find_epsilon_certificate(z, t, m, k, epsilon, d_cap=d_cap, n0_cap=n0_cap)
            d = search.certificate[0] if search.certificate else None
            outcomes.add((search.verdict, d is not None and d > 1))
        assert outcomes == {
            (Verdict.VERIFIED, False),
            (Verdict.VERIFIED, True),
            (Verdict.EXHAUSTED, False),
            (Verdict.HYPOTHESIS_UNMET, False),
        }


N0_CAPS = (0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33)


@st.composite
def galloping_cases(draw):
    """(Z, T, m, k, epsilon, d_cap, n0_cap) with epsilon at, just above or
    just below a trace value of d = 1 or 2: Z = I against a random positive
    contraction, or a ``meet_bound_instance``, whose Z is a scalar, a
    diagonal or a permutation."""
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        t = random_positive_contraction(seed, draw(st.integers(2, 4)), denom_cap=64)
        z, m, k = MatrixOperator.identity(t.space), 0, draw(st.integers(1, 3))
    else:
        z, t, m, k = meet_bound_instance(seed, 3, denom_cap=64)
    n0_cap = draw(st.sampled_from(N0_CAPS))
    at = draw(st.integers(0, n0_cap + 1))
    z_d = ref_power(z.entries, draw(st.integers(1, 2)))
    t_rows = t.entries
    value = ref_norm(t.space.weights, ref_compose(
        z_d, ref_sub(ref_power(t_rows, at + k), ref_power(t_rows, at))
    ))
    nudge = draw(st.sampled_from((0, 1, -1)))
    epsilon = value * (1 + Fraction(nudge, 10**9))
    assume(epsilon > 0)
    return z, t, m, k, epsilon, draw(st.integers(1, 4)), n0_cap


class TestGallopingSearch:
    @settings(max_examples=80)
    @given(galloping_cases())
    def test_matches_the_linear_reference_scan(self, case):
        z, t, m, k, epsilon, d_cap, n0_cap = case
        search = find_epsilon_certificate(z, t, m, k, epsilon, d_cap=d_cap, n0_cap=n0_cap)
        assert (search.epsilon, search.d_cap, search.n0_cap) == (epsilon, d_cap, n0_cap)
        if search.verdict is Verdict.HYPOTHESIS_UNMET:
            assert search.certificate is None
            return
        certificate, norm = _ref_scan(z, t, k, epsilon, d_cap, n0_cap)
        assert (search.certificate, search.achieved_norm) == (certificate, norm)
        assert search.verdict is (Verdict.EXHAUSTED if certificate is None else Verdict.VERIFIED)

    @staticmethod
    def _norm_calls(monkeypatch, *args, **caps):
        calls = []
        norm = MatrixOperator.norm

        def counting(self):
            calls.append(None)
            return norm(self)

        with monkeypatch.context() as patch:
            patch.setattr(MatrixOperator, "norm", counting)
            search = find_epsilon_certificate(*args, **caps)
        return len(calls), search

    def test_identity_z_searches_one_d(self, monkeypatch, gap_pair, identity2):
        args = (identity2, gap_pair.s, 0, 1, Fraction(1, 10**6))
        one, _ = self._norm_calls(monkeypatch, *args, d_cap=1, n0_cap=40)
        fifty, search = self._norm_calls(monkeypatch, *args, d_cap=50, n0_cap=40)
        assert fifty == one
        assert search.verdict is Verdict.EXHAUSTED
        assert search.d_cap == 50

    def test_permutation_z_stops_after_its_period(self, monkeypatch):
        z, t, m, k = meet_bound_instance(8, 3, denom_cap=64)  # Z^3 = I, Z^2 != I
        args = (z, t, m, k, Fraction(1, 20))
        counts = [
            self._norm_calls(monkeypatch, *args, d_cap=d_cap, n0_cap=5)[0] for d_cap in (2, 3, 8)
        ]
        assert counts[0] < counts[1] == counts[2]

    def test_norms_grow_with_the_log_of_the_cap(self, monkeypatch, gap_pair, identity2):
        args = (identity2, gap_pair.s, 0, 1, Fraction(1, 10**1000))  # a_10000 > 10^-800
        base, _ = self._norm_calls(monkeypatch, *args, d_cap=1, n0_cap=0)
        probes, search = self._norm_calls(monkeypatch, *args, d_cap=1, n0_cap=10_000)
        assert search.verdict is Verdict.EXHAUSTED
        assert probes - base <= 2 * (10_000).bit_length()

    def test_a_rising_probe_is_an_internal_inconsistency(self, monkeypatch, identity2):
        # 2 I passes no contraction check; with the ledger forced to hold,
        # its trace 1, 2, 4, ... rises, and the search must refuse it.
        monkeypatch.setattr(
            dominion.theorems,
            "_damping_hypotheses",
            lambda *args: ([HypothesisCheck("forced", True)], Fraction(0)),
        )
        with pytest.raises(InternalConsistencyError, match="monotonicity"):
            find_epsilon_certificate(identity2, identity2 * 2, 0, 1, Fraction(1, 2))


class TestDominatedPowersProperty:
    def test_rejects_n_max_below_one(self):
        for n_max in (0, -5):
            with pytest.raises(ValueError, match="n_max"):
                sweep_dominated_powers(2, n=3, n_max=n_max)

    def test_small_sweep_passes(self):
        result = sweep_dominated_powers(20, n=3, n_max=30, seed0=500)
        assert result.ok
        assert result.passed == 20
