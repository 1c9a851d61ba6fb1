"""Checker semantics: hypothesis ledgers, verdicts, the power-gap kernel,
traces, decomposition witnesses, and the certificate search."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import dominion.theorems
from dominion import (
    CommutingFamily,
    DominatedPair,
    GridCapExceeded,
    HypothesisViolation,
    MatrixOperator,
    MeasureSpace,
    Verdict,
    averaging_defect,
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
from dominion.theorems import HypothesisCheck, _grid_gaps, _power_gap_report, _power_products

from conftest import (
    ref_certificate_scan,
    ref_compose,
    ref_grid_gaps,
    ref_norm,
    ref_power,
    ref_sub,
)


@pytest.fixture
def identity2(two_point):
    return MatrixOperator.identity(two_point)


@pytest.fixture
def flip(two_point):
    return MatrixOperator.permutation(two_point, (1, 0))


class TestDominatedPair:
    def test_valid_pair_builds(self, gap_pair):
        pair = DominatedPair(s=gap_pair.s, t=gap_pair.t)
        assert pair.gap_norm() == 1

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


class TestCommutingFamily:
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
        with pytest.raises(ValueError):
            check_pair_product(gap_pair.t, gap_pair.t, gap_pair.s, gap_pair.s, 0, 5)
        with pytest.raises(ValueError):
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
            check_family_grid(family, (1000, 1000), grid_cap=1000)

    def test_bound_validation(self, gap_pair):
        pair = DominatedPair(s=gap_pair.s, t=gap_pair.t)
        family = CommutingFamily(pairs=(pair,), base_exponents=(2,))
        with pytest.raises(ValueError):
            check_family_grid(family, (1,))


kernel_entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=Fraction(-2), max_value=Fraction(2), max_denominator=6),
)


@st.composite
def grid_case(draw, min_axes=1, min_n=1):
    """``min_axes`` to three axes of arbitrary (S_i, T_i) on a ``min_n`` to 3
    point space, with base exponents up to 3 and up to three exponents per
    axis."""
    n = draw(st.integers(min_value=min_n, max_value=3))
    weights = tuple(draw(st.lists(
        st.fractions(min_value=Fraction(1, 3), max_value=Fraction(4), max_denominator=4),
        min_size=n, max_size=n, unique=True,
    )))
    axes = draw(st.integers(min_value=min_axes, max_value=3))

    def rows():
        return tuple(tuple(draw(kernel_entries) for _ in range(n)) for _ in range(n))

    s_rows = [rows() for _ in range(axes)]
    t_rows = [rows() for _ in range(axes)]
    n0s = tuple(draw(st.integers(min_value=1, max_value=3)) for _ in range(axes))
    m_max = tuple(n0 + draw(st.integers(min_value=0, max_value=2)) for n0 in n0s)
    return weights, s_rows, t_rows, n0s, m_max


class TestPowerGapKernel:
    """The power-gap kernel and the grid odometer against products built
    from scratch in the Fraction reference."""

    @staticmethod
    def assert_grid_matches(case):
        """The whole sequence of (exponents, gap): its order pins the first
        failure, its values pin the factor order of every product."""
        weights, s_rows, t_rows, n0s, m_max = case
        space = MeasureSpace(weights)
        s_ops = [MatrixOperator(space, r) for r in s_rows]
        t_ops = [MatrixOperator(space, r) for r in t_rows]
        got = list(_grid_gaps(s_ops, t_ops, n0s, m_max))
        assert got == ref_grid_gaps(weights, s_rows, t_rows, n0s, m_max)

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
    def test_power_products_match_reference(self, case, steps):
        weights, (a, x, *_), (b, y, *_), (_, n0, *_), _ = case
        space = MeasureSpace(weights)
        ax = MatrixOperator(space, ref_compose(a, ref_power(x, n0)))
        by = MatrixOperator(space, ref_compose(b, ref_power(y, n0)))
        xs, ys = MatrixOperator(space, x), MatrixOperator(space, y)
        got = [(n, p.entries, q.entries) for n, p, q in _power_products(ax, by, xs, ys, n0, n0 + steps)]
        assert got == [
            (n, ref_compose(a, ref_power(x, n)), ref_compose(b, ref_power(y, n)))
            for n in range(n0, n0 + steps + 1)
        ]

    def test_grid_keeps_axis_order_of_non_commuting_factors(self):
        space = MeasureSpace((1, 3))
        t1 = MatrixOperator(space, ((1, 1), (0, 0)))
        t2 = MatrixOperator(space, ((1, 0), (1, 0)))
        zero = MatrixOperator.zero(space)
        assert t1 @ t2 != t2 @ t1
        gaps = dict(_grid_gaps([zero, zero], [t1, t2], (1, 1), (1, 1)))
        assert gaps == {(1, 1): (t1 @ t2).norm()} == {(1, 1): Fraction(2)}
        assert (t2 @ t1).norm() == 4

    def test_report_names_the_first_gap_of_norm_one_or_more(self):
        gaps = [((1, 1), Fraction(1, 2)), ((1, 2), Fraction(1)), ((2, 1), Fraction(3))]
        report = _power_gap_report("c", [], iter(gaps), ((1, 2), (1, 2)))
        assert report.verdict is Verdict.FALSIFIED
        assert (report.failure_point, report.failure_norm) == ((1, 2), 1)
        assert report.values == (("base gap norm", Fraction(1, 2)),)
        unmet = _power_gap_report("c", [], iter(gaps[1:]), ((1, 2), (1, 2)))
        assert unmet.verdict is Verdict.HYPOTHESIS_UNMET and unmet.failure_point is None


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
        with pytest.raises(HypothesisViolation):
            build_decomposition(MatrixOperator.identity(two_point) * 2, 0, 1, 1, 1)


class TestAveragingDefect:
    def test_identity_has_no_defect(self, identity2):
        report = averaging_defect(identity2, 1, 4)
        assert all(row.norm == 0 for row in report.rows)
        assert report.gamma_hat == 0.0

    def test_nilpotent_first_defect(self, gap_pair):
        # (I+T)/2 - T(I+T)/2 = (I - T^2)/2 = I/2 for the nilpotent T
        report = averaging_defect(gap_pair.t, 1, 1)
        assert report.rows[0].norm == Fraction(1, 2)
        assert report.k_fold_bounded

    def test_defect_decays_on_random_contractions(self):
        for trial in range(50):
            t = random_positive_contraction(seed=8200 + trial, n=3)
            report = averaging_defect(t, 1, 4)
            assert report.rows[3].norm <= report.rows[0].norm
            assert report.k_fold_bounded

    def test_k_fold_report(self, gap_pair):
        report = averaging_defect(gap_pair.s, 3, 5)
        assert report.k_fold_bounded

    @pytest.mark.parametrize("seed", [3, 17, 41])
    def test_defects_match_difference_operator_norms(self, seed):
        t = random_positive_contraction(seed, 3, denom_cap=16)
        averaged = (MatrixOperator.identity(t.space) + t) * Fraction(1, 2)
        report = averaging_defect(t, 3, 5)
        k_fold = True
        for row in report.rows:
            r_pow = averaged**row.ell
            assert row.norm == (t**3 @ r_pow - r_pow).norm()
            k_fold &= row.norm <= 3 * (t @ r_pow - r_pow).norm()
        assert report.k_fold_bounded == k_fold


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
        with pytest.raises(HypothesisViolation, match="commute"):
            zero_two_trace(up, down, 1, 1, 5)

    def test_rejects_expansive_input(self, two_point, identity2):
        with pytest.raises(HypothesisViolation):
            zero_two_trace(identity2, identity2 * 2, 1, 1, 5)


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
