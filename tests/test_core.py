"""Substrate tests: exact norms, products, lattice structure on vectors,
extreme-point reduction of the operator norm, and the numeric p-norm path."""

import copy
import math
import pickle
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from dominion import (
    L1Vector,
    MatrixOperator,
    MeasureSpace,
    SpaceMismatchError,
    apply,
    commutes,
    compose,
    dominates,
    is_contraction_l1,
    is_positive,
    l1_norm,
    lp_operator_norm,
    operator_norm_l1,
    p_norm_gap_pair,
    power,
    random_dominated_pair,
    random_signed_operator,
    rat,
    shear_trio,
    sigma_max_uniform_2x2,
    vec_abs,
    vec_join,
    vec_meet,
)

from dominion.calculus import operator_meet

from conftest import (
    exact_unit_sphere_points,
    random_vector,
    ref_abs,
    ref_add,
    ref_compose,
    ref_meet,
    ref_norm,
    ref_power,
    ref_sub,
)

small_fractions = st.fractions(
    min_value=Fraction(-2), max_value=Fraction(2), max_denominator=8
)
positive_weights = st.fractions(
    min_value=Fraction(1, 4), max_value=Fraction(3), max_denominator=4
)


@st.composite
def space_with_vectors(draw, count=2, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    space = MeasureSpace(tuple(draw(positive_weights) for _ in range(n)))
    vectors = tuple(
        L1Vector(space, tuple(draw(small_fractions) for _ in range(n)))
        for _ in range(count)
    )
    return (space, *vectors)


@st.composite
def space_with_operators(draw, count=2, max_n=3):
    n = draw(st.integers(min_value=1, max_value=max_n))
    space = MeasureSpace(tuple(draw(positive_weights) for _ in range(n)))
    operators = tuple(
        MatrixOperator(space, tuple(
            tuple(draw(small_fractions) for _ in range(n)) for _ in range(n)
        ))
        for _ in range(count)
    )
    return (space, *operators)


class TestRationals:
    def test_rat_parses_strings_exactly(self):
        assert rat("1/3") == Fraction(1, 3)
        assert rat("-7/2") == Fraction(-7, 2)
        assert rat(4) == Fraction(4)

    def test_rat_rejects_floats(self):
        with pytest.raises(TypeError):
            rat(0.5)

    def test_canonical_form(self):
        q = rat("6/8")
        assert (q.numerator, q.denominator) == (3, 4)
        q = Fraction(5, -10)
        assert (q.numerator, q.denominator) == (-1, 2)


class TestMeasureSpace:
    def test_requires_positive_weights(self):
        with pytest.raises(ValueError):
            MeasureSpace((1, 0))
        with pytest.raises(ValueError):
            MeasureSpace(())

    def test_equality_is_exact(self):
        assert MeasureSpace(("1/2", 3)) == MeasureSpace((Fraction(1, 2), Fraction(3)))
        assert MeasureSpace((1, 1)) != MeasureSpace((1, 1, 1))
        assert MeasureSpace((1, 2)) != MeasureSpace((1, 3))

    def test_single_point_space_is_allowed(self):
        space = MeasureSpace((Fraction(2, 3),))
        op = MatrixOperator(space, ((Fraction(-3, 2),),))
        assert op.norm() == Fraction(3, 2)
        assert l1_norm(op @ space.basis_vector(0)) == 1


class TestL1Norm:
    def test_zero_vector(self):
        space = MeasureSpace((2, 5, 1))
        assert l1_norm(space.zero_vector()) == 0

    def test_unit_coordinate(self):
        space = MeasureSpace((1, 1))
        assert l1_norm(L1Vector(space, (1, 0))) == 1

    def test_weighted_mixed_signs(self):
        space = MeasureSpace((2, 3))
        assert l1_norm(L1Vector(space, ("1/2", "-1/3"))) == 2

    @given(space_with_vectors(count=1))
    @settings(max_examples=60, deadline=None)
    def test_zero_norm_iff_zero_vector(self, data):
        space, x = data
        assert (l1_norm(x) == 0) == (x == space.zero_vector())

    def test_numeric_p_norm_of_vector(self):
        x = L1Vector(MeasureSpace((1, 1)), (3, -4))
        assert abs(x.lp_norm(2.0) - 5.0) <= 1e-12


class TestApply:
    def test_identity(self, two_point):
        x = L1Vector(two_point, ("2/3", "-5"))
        assert apply(MatrixOperator.identity(two_point), x) == x

    def test_nilpotent_swap(self, gap_pair):
        image = apply(gap_pair.t, L1Vector(gap_pair.space, (0, 1)))
        assert image == L1Vector(gap_pair.space, ("1/4", 0))

    def test_zero_operator(self, two_point):
        x = L1Vector(two_point, (7, "-1/9"))
        assert apply(MatrixOperator.zero(two_point), x) == two_point.zero_vector()

    def test_space_mismatch(self, two_point):
        other = MeasureSpace((1, 2))
        with pytest.raises(SpaceMismatchError):
            apply(MatrixOperator.identity(two_point), L1Vector(other, (1, 1)))


class TestComposePower:
    def test_nilpotent_square_vanishes(self, gap_pair):
        assert power(gap_pair.t, 2) == MatrixOperator.zero(gap_pair.space)

    def test_averaging_square_rescales(self, gap_pair):
        # hand product of the averaging map with itself
        assert power(gap_pair.s, 2) == gap_pair.s * Fraction(5, 6)

    def test_identity_is_neutral(self, gap_pair):
        assert compose(gap_pair.s, MatrixOperator.identity(gap_pair.space)) == gap_pair.s

    def test_zeroth_power(self, gap_pair):
        assert power(gap_pair.t, 0) == MatrixOperator.identity(gap_pair.space)

    def test_negative_power_rejected(self, gap_pair):
        with pytest.raises(ValueError):
            power(gap_pair.s, -1)

    def test_space_mismatch(self, two_point):
        other = MeasureSpace((1, 2))
        with pytest.raises(SpaceMismatchError):
            compose(MatrixOperator.identity(two_point), MatrixOperator.identity(other))
        with pytest.raises(SpaceMismatchError):
            MatrixOperator.identity(two_point).distance(MatrixOperator.identity(other))


class TestImmutability:
    def test_fields_cannot_be_assigned(self, gap_pair):
        with pytest.raises(AttributeError):
            gap_pair.s.den = 1
        with pytest.raises(AttributeError):
            del gap_pair.s.num

    def test_pickle_and_copy_round_trip(self, gap_pair):
        product = gap_pair.s @ gap_pair.t
        for clone in (pickle.loads(pickle.dumps(product)), copy.deepcopy(product)):
            assert clone == product and hash(clone) == hash(product)
            assert clone.entries == product.entries


class TestVectorLattice:
    def test_meet_idempotent(self, two_point):
        x = L1Vector(two_point, ("1/2", -3))
        assert vec_meet(x, x) == x

    def test_meet_coordinatewise(self, two_point):
        assert vec_meet(
            L1Vector(two_point, (1, -2)), L1Vector(two_point, (0, 3))
        ) == L1Vector(two_point, (0, -2))

    def test_abs(self, two_point):
        assert vec_abs(L1Vector(two_point, ("-1/2", 3))) == L1Vector(two_point, ("1/2", 3))

    @given(space_with_vectors())
    @settings(max_examples=80, deadline=None)
    def test_meet_matches_averaged_form(self, data):
        _, x, y = data
        averaged = (x + y - vec_abs(x - y)) * Fraction(1, 2)
        assert vec_meet(x, y) == averaged

    @given(space_with_vectors())
    @settings(max_examples=80, deadline=None)
    def test_join_matches_averaged_form(self, data):
        _, x, y = data
        averaged = (x + y + vec_abs(x - y)) * Fraction(1, 2)
        assert vec_join(x, y) == averaged

    @given(space_with_vectors(count=3))
    @settings(max_examples=80, deadline=None)
    def test_lattice_laws(self, data):
        _, x, y, z = data
        assert vec_meet(x, y) == vec_meet(y, x)
        assert vec_join(x, y) == vec_join(y, x)
        assert vec_meet(vec_meet(x, y), z) == vec_meet(x, vec_meet(y, z))
        assert vec_join(vec_join(x, y), z) == vec_join(x, vec_join(y, z))
        assert vec_join(x, vec_meet(x, y)) == x
        assert vec_meet(x, vec_join(x, y)) == x

    @given(space_with_vectors(count=1))
    @settings(max_examples=60, deadline=None)
    def test_abs_is_join_with_negation(self, data):
        _, x = data
        assert vec_abs(x) == vec_join(x, -x)


class TestPositivityDominance:
    def test_shear_damping_is_positive(self):
        trio = shear_trio("1/3", "1/3", "1/4")
        assert is_positive(trio.z)

    def test_signed_entry_is_not_positive(self, two_point):
        assert not is_positive(MatrixOperator(two_point, ((1, -1), (0, 1))))

    def test_zero_is_positive(self, two_point):
        assert is_positive(MatrixOperator.zero(two_point))

    def test_unit_gap_pair_dominates(self, gap_pair):
        assert dominates(gap_pair.s, gap_pair.t)

    def test_shear_dominance_needs_small_lambda(self):
        trio = shear_trio("1/2", "1/2", "3/4")
        assert not dominates(trio.s, trio.t)
        assert not trio.dominance
        assert shear_trio("1/2", "1/2", "1/2").dominance

    def test_dominance_is_reflexive(self, gap_pair):
        assert dominates(gap_pair.t, gap_pair.t)


class TestOperatorNorm:
    def test_unit_gap(self, gap_pair):
        assert operator_norm_l1(gap_pair.s - gap_pair.t) == 1

    def test_squared_gap(self, gap_pair):
        squared = gap_pair.s @ gap_pair.s - gap_pair.t @ gap_pair.t
        assert operator_norm_l1(squared) == Fraction(15, 18)

    def test_weighted_column_reduction(self):
        space = MeasureSpace((2, 3))
        a = MatrixOperator(space, ((0, 1), (0, 0)))
        assert operator_norm_l1(a) == Fraction(2, 3)
        # value frozen from the sampling oracle: attained at a vertex and
        # never exceeded on the sphere
        vertex_best = max(
            l1_norm(a @ space.vertex(j, negative))
            for j in range(2)
            for negative in (False, True)
        )
        assert vertex_best == Fraction(2, 3)
        rng = Random(17)
        for x in exact_unit_sphere_points(space, rng, 200):
            assert l1_norm(a @ x) <= Fraction(2, 3)

    def test_sampling_oracle_bounds_and_vertex_attainment(self):
        rng = Random(4021)
        for trial in range(8):
            n = rng.randint(1, 4)
            a = random_signed_operator(seed=5000 + trial, n=n)
            space = a.space
            norm = operator_norm_l1(a)
            vertex_values = [
                l1_norm(a @ space.vertex(j, negative))
                for j in range(n)
                for negative in (False, True)
            ]
            assert max(vertex_values) == norm
            for x in exact_unit_sphere_points(space, rng, 60):
                assert l1_norm(a @ x) <= norm

    def test_ratio_never_exceeds_norm_on_many_samples(self):
        # ten thousand exact ratio comparisons spread over eight operators
        rng = Random(93120)
        for trial in range(8):
            n = rng.randint(1, 4)
            a = random_signed_operator(seed=9300 + trial, n=n)
            norm = operator_norm_l1(a)
            for _ in range(1250):
                x = random_vector(a.space, rng)
                assert l1_norm(a @ x) <= norm * l1_norm(x)

    def test_positive_cone_sup_equality(self):
        rng = Random(515)
        for trial in range(25):
            n = rng.randint(1, 4)
            a = abs(random_signed_operator(seed=700 + trial, n=n))
            space = a.space
            signed = max(
                l1_norm(a @ space.vertex(j, negative))
                for j in range(n)
                for negative in (False, True)
            )
            positive_only = max(l1_norm(a @ space.vertex(j)) for j in range(n))
            assert signed == positive_only == operator_norm_l1(a)

    def test_norm_subtraction_identity(self):
        rng = Random(2218)
        for trial in range(40):
            pair = random_dominated_pair(seed=1200 + trial, n=rng.randint(1, 4))
            x = abs(random_vector(pair.s.space, rng))
            lhs = l1_norm(pair.s @ x - pair.t @ x)
            assert lhs == l1_norm(pair.s @ x) - l1_norm(pair.t @ x)

    @given(space_with_operators())
    @settings(max_examples=60, deadline=None)
    def test_submultiplicativity(self, data):
        _, a, b = data
        assert operator_norm_l1(a @ b) <= operator_norm_l1(a) * operator_norm_l1(b)

    @given(space_with_operators(count=1))
    @settings(max_examples=60, deadline=None)
    def test_dual_row_sum_agrees(self, data):
        _, a = data
        assert a.adjoint().max_abs_row_sum() == operator_norm_l1(a)

    def test_monotone_dominance(self):
        for trial in range(30):
            pair = random_dominated_pair(seed=3400 + trial, n=3)
            assert operator_norm_l1(pair.t) <= operator_norm_l1(pair.s)


class TestContraction:
    def test_averaging_map_is_boundary_contraction(self, gap_pair):
        assert is_contraction_l1(gap_pair.s)
        assert operator_norm_l1(gap_pair.s) == 1

    def test_nilpotent_is_strict_contraction(self, gap_pair):
        assert is_contraction_l1(gap_pair.t)
        assert operator_norm_l1(gap_pair.t) == Fraction(1, 4)

    def test_doubled_identity_is_not(self, two_point):
        assert not is_contraction_l1(MatrixOperator.identity(two_point) * 2)


class TestCommutes:
    def test_shear_commutes_with_averaging(self):
        trio = shear_trio("1/4", "1/2", "1/8")
        assert commutes(trio.z, trio.s)

    def test_identity_commutes(self, gap_pair):
        assert commutes(gap_pair.s, MatrixOperator.identity(gap_pair.space))

    def test_nilpotents_do_not_commute(self, two_point):
        up = MatrixOperator(two_point, ((0, 1), (0, 0)))
        down = MatrixOperator(two_point, ((0, 0), (1, 0)))
        assert not commutes(up, down)


class TestLpOperatorNorm:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_identity_has_unit_norm(self, p, n):
        space = MeasureSpace(tuple(Fraction(1 + i, 2) for i in range(n)))
        value = lp_operator_norm(MatrixOperator.identity(space), p)
        assert abs(value - 1.0) <= 1e-9

    def test_two_point_counterexample_values(self):
        pair = p_norm_gap_pair()
        gap = lp_operator_norm(pair.s - pair.t, 2.0)
        assert abs(gap - sigma_max_uniform_2x2(pair.s - pair.t)) <= 1e-9
        squared = lp_operator_norm(pair.s @ pair.s - pair.t @ pair.t, 2.0)
        assert abs(squared - 1.0) <= 1e-9

    def test_deterministic(self):
        pair = p_norm_gap_pair()
        a = pair.s - pair.t
        assert lp_operator_norm(a, 2.5) == lp_operator_norm(a, 2.5)

    def test_diagonal_three_point(self):
        # in any p-norm a diagonal operator's norm is its largest entry
        space = MeasureSpace((Fraction(1, 2), 1, 2))
        diag = MatrixOperator.diagonal(space, (Fraction(1, 2), Fraction(3, 4), Fraction(1, 4)))
        for p in (1.5, 2.0, 4.0):
            assert abs(lp_operator_norm(diag, p) - 0.75) <= 1e-7

    def test_one_point_space(self):
        space = MeasureSpace((Fraction(3),))
        op = MatrixOperator(space, ((Fraction(-3, 2),),))
        assert lp_operator_norm(op, 2.0) == 1.5

    def test_parameter_validation(self, two_point):
        op = MatrixOperator.identity(two_point)
        with pytest.raises(ValueError):
            lp_operator_norm(op, 1.0)
        with pytest.raises(ValueError):
            lp_operator_norm(op, 2.0, tol=0.0)

    def test_rejects_nan_exponent(self, two_point):
        with pytest.raises(ValueError, match="p must exceed 1"):
            lp_operator_norm(MatrixOperator.identity(two_point), float("nan"))


oracle_entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=12),
)
oracle_weights = st.fractions(min_value=Fraction(1, 6), max_value=Fraction(5), max_denominator=9)


@st.composite
def oracle_case(draw):
    """Three operators on one space with distinct weights, and an exponent."""
    n = draw(st.integers(min_value=1, max_value=5))
    weights = tuple(draw(st.lists(oracle_weights, min_size=n, max_size=n, unique=True)))
    rows = [
        tuple(tuple(draw(oracle_entries) for _ in range(n)) for _ in range(n))
        for _ in range(3)
    ]
    return MeasureSpace(weights), rows, draw(st.integers(min_value=0, max_value=20))


class TestFractionOracle:
    """The integer kernel against the per-entry Fraction reference."""

    @staticmethod
    def assert_matches(space, op, rows):
        rebuilt = MatrixOperator(space, rows)
        assert op.entries == rows
        assert op == rebuilt and hash(op) == hash(rebuilt)
        assert op.den > 0 and math.gcd(op.den, *(p for row in op.num for p in row)) == 1
        assert op.norm() == ref_norm(space.weights, rows)
        assert op.is_positive() == all(q >= 0 for row in rows for q in row)

    @given(oracle_case())
    def test_operations_match_reference(self, case):
        space, (a, b, c), exponent = case
        for rows in (a, b, c):
            self.assert_matches(space, MatrixOperator(space, rows), rows)
        x, y = MatrixOperator(space, a), MatrixOperator(space, b)
        self.assert_matches(space, x @ y, ref_compose(a, b))
        self.assert_matches(space, x**exponent, ref_power(a, exponent))
        self.assert_matches(space, x + y, ref_add(a, b))
        self.assert_matches(space, x - y, ref_sub(a, b))
        self.assert_matches(space, abs(x), ref_abs(a))
        self.assert_matches(space, operator_meet(x, y), ref_meet(a, b))
        assert x.distance(y) == ref_norm(space.weights, ref_sub(a, b)) == y.distance(x)
        assert (x @ y).distance(x**exponent) == ref_norm(
            space.weights, ref_sub(ref_compose(a, b), ref_power(a, exponent))
        )
        assert x.distance(x) == 0
        assert (x == y) == (a == b)
        assert x.dominates(y) == all(p >= q for ra, rb in zip(a, b) for p, q in zip(ra, rb))
        assert (x + abs(y)).dominates(x)

    @given(oracle_case())
    def test_equal_values_along_different_paths_hash_equal(self, case):
        space, rows, _ = case
        x, y, z = (MatrixOperator(space, r) for r in rows)
        for left, right in (
            ((x @ y) @ z, x @ (y @ z)),
            ((x + y) + z, x + (y + z)),
            (x - y, -(y - x)),
            (x @ (y + z), x @ y + x @ z),
            ((x * 3) / 3, x),
        ):
            assert left == right and hash(left) == hash(right)
