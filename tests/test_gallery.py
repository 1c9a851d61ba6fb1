"""Gallery constructions: closed forms against the exact engine, and the
deterministic random generators."""

import hashlib
from fractions import Fraction

import pytest

from dominion import (
    CommutingFamily,
    DominatedPair,
    MatrixOperator,
    MeasureSpace,
    compare_l2_norm,
    p_norm_gap_pair,
    random_commuting_family,
    random_dominated_pair,
    random_positive_contraction,
    random_signed_operator,
    shear_trio,
    unit_gap_pair,
)
from dominion.sweeps import meet_bound_instance

from conftest import (
    ref_random_commuting_family,
    ref_random_dominated_pair,
    ref_random_positive_contraction,
    ref_random_signed_operator,
    sigma_max_uniform_2x2,
)

# SHA-256 of every draw in ``TestDrawsPinned``.
PINNED_DRAW_DIGEST = "aee6acb60db3b55c1e596a5951cf0a131157ff3072d156822ecf3d17e907b909"


class TestShearTrio:
    def test_closed_forms_match_engine(self):
        grid = [
            ("0", "1", "0"),
            ("1/3", "2/3", "1/8"),
            ("1/2", "1/2", "1/4"),
            ("1/4", "1/4", "3/8"),  # strictly sub-unit damping norm
            ("2/3", "1/4", "1/2"),
            ("1/2", "0", "3/4"),  # no domination, closed form still exact
            ("1", "0", "1/2"),
        ]
        for u, v, lam in grid:
            trio = shear_trio(u, v, lam)
            assert trio.z.norm() == trio.z_norm
            assert trio.s.norm() == trio.s_norm == 1
            assert trio.t.norm() == trio.t_norm
            assert (trio.z @ (trio.s - trio.t)).norm() == trio.damped_gap_norm

    def test_unit_slice_reduction(self):
        # on the u + v = 1 slice the damped gap norm is (1 + u(1 - 2 lam)) / 2
        for u in (Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)):
            for lam in (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
                trio = shear_trio(u, 1 - u, lam)
                assert trio.damped_gap_norm == (1 + u * (1 - 2 * lam)) / 2
                assert trio.z_boundary

    def test_boundary_lambda_keeps_domination(self):
        trio = shear_trio("1/2", "1/2", "1/2")
        assert trio.dominance
        assert trio.s.dominates(trio.t)
        assert trio.damped_gap_norm == Fraction(1, 2)

    def test_degenerate_damping(self):
        trio = shear_trio(0, 1, 0)
        assert trio.t_norm == 0
        assert trio.damped_gap_norm == Fraction(1, 2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            shear_trio("-1/2", "1/2", 0)
        with pytest.raises(ValueError):
            shear_trio("2/3", "2/3", 0)
        assert not shear_trio("1/2", "1/2", "3/4").dominance
        assert shear_trio("1/2", "1/2", "1/2").dominance

    def test_shear_commutes_with_averaging(self):
        trio = shear_trio("1/5", "2/5", "1/8")
        assert trio.z.commutes_with(trio.s)


class TestUnitGapPair:
    def test_regression_values(self):
        pair = unit_gap_pair()
        assert pair.s.norm() == 1
        assert pair.t.norm() == Fraction(1, 4)
        assert (pair.s - pair.t).norm() == 1
        assert (pair.s @ pair.s - pair.t @ pair.t).norm() == Fraction(15, 18)

    def test_domination(self):
        pair = unit_gap_pair()
        assert pair.s.dominates(pair.t)
        DominatedPair(s=pair.s, t=pair.t)

    def test_averaging_square_identity(self):
        pair = unit_gap_pair()
        assert pair.s @ pair.s == pair.s * Fraction(5, 6)


class TestPNormGapPair:
    def test_expected_l2_values(self):
        pair = p_norm_gap_pair()
        assert (pair.gap_l2, pair.squared_gap_l2) == (-1, 0)
        # the gap norm is ((3 + 5^(1/2)) / 8)^(1/2)
        golden = Fraction(((3 + 5 ** 0.5) / 8) ** 0.5)
        gap = pair.s - pair.t
        assert compare_l2_norm(gap, golden * (1 - Fraction(1, 10**12))) == 1
        assert compare_l2_norm(gap, golden * (1 + Fraction(1, 10**12))) == -1

    def test_l2_straddles_threshold_while_l1_does_not(self):
        pair = p_norm_gap_pair()
        assert compare_l2_norm(pair.s - pair.t, 1) == pair.gap_l2 == -1
        assert compare_l2_norm(pair.s @ pair.s - pair.t @ pair.t, 1) == pair.squared_gap_l2 == 0
        # in the weighted L1 norm the gap already sits at one
        assert pair.gap_l1 == 1
        assert pair.squared_gap_l1 == 1

    def test_oracle_guards(self):
        pair = p_norm_gap_pair()
        skew = MeasureSpace((1, 2))
        with pytest.raises(ValueError):
            sigma_max_uniform_2x2(MatrixOperator.identity(skew))
        three = MeasureSpace((1, 1, 1))
        with pytest.raises(ValueError):
            sigma_max_uniform_2x2(MatrixOperator.identity(three))
        assert sigma_max_uniform_2x2(MatrixOperator.identity(pair.space)) == 1.0


class TestRandomDominatedPair:
    def test_deterministic(self):
        assert random_dominated_pair(7, 4) == random_dominated_pair(7, 4)
        assert random_dominated_pair(7, 4) != random_dominated_pair(8, 4)

    def test_invariants_over_seed_sweep(self):
        for seed in range(100):
            pair = random_dominated_pair(seed, 4)
            # DominatedPair re-validates everything at construction; re-check
            # the two facts the generator is supposed to arrange by design.
            assert pair.s.dominates(pair.t)
            assert pair.t.norm() <= pair.s.norm() <= 1

    def test_density_zero_gives_zero_operators(self):
        pair = random_dominated_pair(3, 3, density=0.0)
        assert pair.s == MatrixOperator.zero(pair.s.space)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_dominated_pair(0, 0)
        with pytest.raises(ValueError):
            random_dominated_pair(0, 2, density=1.5)


class TestRandomCommutingFamily:
    def test_single_pair_family(self):
        family = random_commuting_family(11, 1, 3)
        assert family.size == 1
        assert family.base_exponents == (1,)

    def test_members_commute_exactly(self):
        for seed in range(25):
            family = random_commuting_family(seed, 3, 3)
            for i in range(3):
                for j in range(i + 1, 3):
                    assert family.pairs[i].s.commutes_with(family.pairs[j].s)
                    assert family.pairs[i].t.commutes_with(family.pairs[j].t)

    def test_deterministic(self):
        assert random_commuting_family(5, 2, 3) == random_commuting_family(5, 2, 3)

    def test_invariant_sweep(self):
        for seed in range(50):
            family = random_commuting_family(seed, 3, 3)
            for pair in family.pairs:
                assert pair.s.is_contraction()
                assert pair.s.dominates(pair.t)

    def test_degree_zero_family(self):
        family = random_commuting_family(2, 2, 3, degree=0)
        assert family.size == 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_commuting_family(0, 0, 3)
        with pytest.raises(ValueError):
            random_commuting_family(0, 1, 3, degree=-1)


class TestGeneratorKnobs:
    def test_default_denominator_cap_is_64(self):
        assert random_positive_contraction(4, 3) == random_positive_contraction(4, 3, denom_cap=64)
        assert random_signed_operator(4, 3) == random_signed_operator(4, 3, denom_cap=64)
        assert random_dominated_pair(4, 3) == random_dominated_pair(4, 3, denom_cap=64)
        assert random_commuting_family(4, 2, 3) == random_commuting_family(4, 2, 3, denom_cap=64)

    def test_signed_operator_spans_both_signs(self):
        op = random_signed_operator(12, 5)
        entries = [q for row in op.entries for q in row]
        assert any(q > 0 for q in entries) and any(q < 0 for q in entries)

    def test_positive_contraction_on_given_space(self):
        space = MeasureSpace((1, 1, 1))
        op = random_positive_contraction(9, 3, space=space)
        assert op.space == space
        assert op.is_positive() and op.is_contraction()


class TestGeneratorArguments:
    """Bad caps and densities raise a ValueError naming the argument."""

    @pytest.mark.parametrize("cap", [1, 0, -3])
    def test_denominator_cap_below_two(self, cap):
        with pytest.raises(ValueError, match="denom_cap"):
            random_positive_contraction(0, 3, denom_cap=cap)
        with pytest.raises(ValueError, match="denom_cap"):
            random_dominated_pair(0, 3, denom_cap=cap)
        with pytest.raises(ValueError, match="denom_cap"):
            random_commuting_family(0, 2, 3, denom_cap=cap)

    def test_signed_operator_cap(self):
        # Its entries need no denominator of two or more.
        op = random_signed_operator(5, 3, denom_cap=1)
        assert op.den == 1 and all(abs(p) <= 1 for row in op.num for p in row)
        with pytest.raises(ValueError, match="denom_cap"):
            random_signed_operator(5, 3, denom_cap=0)

    @pytest.mark.parametrize("density", [-1.0, -0.01, 1.01, float("nan")])
    def test_density_outside_unit_interval(self, density):
        with pytest.raises(ValueError, match="density"):
            random_positive_contraction(1, 3, density=density)
        with pytest.raises(ValueError, match="density"):
            random_dominated_pair(1, 3, density=density)

    @pytest.mark.parametrize("seed", [0, 1, 2])  # one seed per shape
    @pytest.mark.parametrize("cap", [0, 1])
    def test_meet_bound_cap_below_two(self, seed, cap):
        with pytest.raises(ValueError, match="denom_cap"):
            meet_bound_instance(seed, 3, denom_cap=cap)

    def test_meet_bound_default_cap(self):
        # Only None selects the default: 16 on the diagonal shape, the
        # generator's 64 on the other two.
        assert meet_bound_instance(4, 3) == meet_bound_instance(4, 3, denom_cap=16)
        for seed in (3, 5):
            assert meet_bound_instance(seed, 3) == meet_bound_instance(seed, 3, denom_cap=64)


def _draw_key(draw):
    """Exact integer content of a draw: every operator's space weights,
    numerators and denominator, nested as the draw nests them."""
    if isinstance(draw, MatrixOperator):
        weights = tuple((w.numerator, w.denominator) for w in draw.space.weights)
        return weights, draw.num, draw.den
    if isinstance(draw, DominatedPair):
        return _draw_key(draw.s), _draw_key(draw.t)
    if isinstance(draw, CommutingFamily):
        return tuple(map(_draw_key, draw.pairs)), draw.base_exponents
    if isinstance(draw, tuple):
        return tuple(map(_draw_key, draw))
    return draw


PIN_SEEDS = range(25)


def _pinned_draws():
    for n in (1, 2, 3, 4):
        for cap in (64, 5):
            for seed in PIN_SEEDS:
                for density in (1.0, 0.6):
                    yield random_positive_contraction(seed, n, density, denom_cap=cap)
                    yield random_dominated_pair(seed, n, density, denom_cap=cap)
                yield random_signed_operator(seed, n, denom_cap=cap)
                yield random_commuting_family(seed, 3, n, denom_cap=cap)
                yield meet_bound_instance(seed, n, denom_cap=cap)


class TestDrawsPinned:
    """Every draw, exactly, over fixed seeds, sizes, densities and caps.
    The digest was recorded on the ``Fraction``-entry construction that
    the integer-numerator draws replace; it must never change."""

    def test_draw_digest(self):
        text = repr([_draw_key(draw) for draw in _pinned_draws()])
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DRAW_DIGEST

    @pytest.mark.parametrize("n, cap", [(1, 64), (2, 5), (3, 64), (4, 64), (4, 5)])
    def test_draws_equal_fraction_reference(self, n, cap):
        def same(weights, rows, op):
            return op.space.weights == weights and op.entries == rows

        for seed in range(60):
            for density in (1.0, 0.6):
                weights, rows = ref_random_positive_contraction(seed, n, density, cap)
                assert same(weights, rows, random_positive_contraction(seed, n, density, denom_cap=cap))
                weights, (s, t) = ref_random_dominated_pair(seed, n, density, cap)
                pair = random_dominated_pair(seed, n, density, denom_cap=cap)
                assert same(weights, s, pair.s) and same(weights, t, pair.t)
            weights, rows = ref_random_signed_operator(seed, n, cap)
            assert same(weights, rows, random_signed_operator(seed, n, denom_cap=cap))
            weights, pairs = ref_random_commuting_family(seed, 2, n, 2, cap)
            family = random_commuting_family(seed, 2, n, denom_cap=cap)
            assert len(family.pairs) == len(pairs)
            for (s, t), pair in zip(pairs, family.pairs):
                assert same(weights, s, pair.s) and same(weights, t, pair.t)
