"""Substrate tests: exact norms, products, lattice structure on vectors,
extreme-point reduction of the operator norm, and the exact decision of the
weighted 2-norm."""

import copy
import math
import pickle
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from dominion import (
    L1Vector,
    MatrixOperator,
    MeasureSpace,
    SpaceMismatchError,
    compare_l2_norm,
    p_norm_gap_pair,
    random_dominated_pair,
    random_signed_operator,
    rat,
    shear_trio,
)

from dominion.calculus import operator_meet
from dominion.core import _reduced

from conftest import (
    exact_unit_sphere_points,
    random_vector,
    ref_abs,
    ref_add,
    ref_compose,
    ref_dual_row_sum,
    ref_identity,
    ref_l2_compare,
    ref_meet,
    ref_norm,
    ref_power,
    ref_sub,
    sigma_max_uniform_2x2,
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


@st.composite
def reducer_case(draw):
    """(num, den, radical) where every prime of den divides radical, and
    num shares up to high powers of those primes with den."""
    primes = draw(st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), unique=True, max_size=4))
    radical = math.prod(p ** draw(st.integers(1, 3)) for p in primes) * draw(st.sampled_from((1, 17, 391)))
    den = math.prod(p ** draw(st.integers(0, 80)) for p in primes)
    shared = math.prod(p ** draw(st.integers(0, 80)) for p in primes)
    num = draw(st.one_of(st.just(0), st.integers(-(10**40), 10**40))) * shared
    return num, den, radical


class TestReducer:
    """``_reduced`` finds the canonical ``Fraction`` by gcds against the
    small radical only."""

    @given(reducer_case())
    @example((0, 1, 1))
    @example((0, 2**90 * 3**5, 6))
    @example((7, 1, 1))
    @example((-(3**70) * 5, 2**3 * 3**80, 2 * 3))
    @example((2**200 * 3**10, 2**199, 2))
    def test_equals_the_normalised_fraction(self, case):
        num, den, radical = case
        got, want = _reduced(num, den, radical), Fraction(num, den)
        assert type(got) is Fraction
        assert got == want
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert hash(got) == hash(want)


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
        assert (op @ space.basis_vector(0)).norm() == 1


class TestL1Norm:
    def test_zero_vector(self):
        space = MeasureSpace((2, 5, 1))
        assert space.zero_vector().norm() == 0

    def test_unit_coordinate(self):
        space = MeasureSpace((1, 1))
        assert L1Vector(space, (1, 0)).norm() == 1

    def test_weighted_mixed_signs(self):
        space = MeasureSpace((2, 3))
        assert L1Vector(space, ("1/2", "-1/3")).norm() == 2

    @given(space_with_vectors(count=1))
    @settings(max_examples=60, deadline=None)
    def test_zero_norm_iff_zero_vector(self, data):
        space, x = data
        assert (x.norm() == 0) == (x == space.zero_vector())


class TestApply:
    def test_identity(self, two_point):
        x = L1Vector(two_point, ("2/3", "-5"))
        assert MatrixOperator.identity(two_point).apply(x) == x

    def test_nilpotent_swap(self, gap_pair):
        image = gap_pair.t.apply(L1Vector(gap_pair.space, (0, 1)))
        assert image == L1Vector(gap_pair.space, ("1/4", 0))

    def test_zero_operator(self, two_point):
        x = L1Vector(two_point, (7, "-1/9"))
        assert MatrixOperator.zero(two_point).apply(x) == two_point.zero_vector()

    def test_space_mismatch(self, two_point):
        other = MeasureSpace((1, 2))
        with pytest.raises(SpaceMismatchError):
            MatrixOperator.identity(two_point).apply(L1Vector(other, (1, 1)))


class TestComposePower:
    def test_nilpotent_square_vanishes(self, gap_pair):
        assert gap_pair.t**2 == MatrixOperator.zero(gap_pair.space)

    def test_averaging_square_rescales(self, gap_pair):
        # hand product of the averaging map with itself
        assert gap_pair.s**2 == gap_pair.s * Fraction(5, 6)

    def test_identity_is_neutral(self, gap_pair):
        assert gap_pair.s.compose(MatrixOperator.identity(gap_pair.space)) == gap_pair.s

    def test_zeroth_power(self, gap_pair):
        assert gap_pair.t**0 == MatrixOperator.identity(gap_pair.space)

    def test_negative_power_rejected(self, gap_pair):
        with pytest.raises(ValueError):
            gap_pair.s**-1

    def test_space_mismatch(self, two_point):
        other = MeasureSpace((1, 2))
        with pytest.raises(SpaceMismatchError):
            MatrixOperator.identity(two_point).compose(MatrixOperator.identity(other))
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
        assert x.meet(x) == x

    def test_meet_coordinatewise(self, two_point):
        assert L1Vector(two_point, (1, -2)).meet(
            L1Vector(two_point, (0, 3))
        ) == L1Vector(two_point, (0, -2))

    def test_abs(self, two_point):
        assert abs(L1Vector(two_point, ("-1/2", 3))) == L1Vector(two_point, ("1/2", 3))

    @given(space_with_vectors())
    @settings(max_examples=80, deadline=None)
    def test_meet_matches_averaged_form(self, data):
        _, x, y = data
        averaged = (x + y - abs(x - y)) * Fraction(1, 2)
        assert x.meet(y) == averaged

    @given(space_with_vectors())
    @settings(max_examples=80, deadline=None)
    def test_join_matches_averaged_form(self, data):
        _, x, y = data
        averaged = (x + y + abs(x - y)) * Fraction(1, 2)
        assert x.join(y) == averaged

    @given(space_with_vectors(count=3))
    @settings(max_examples=80, deadline=None)
    def test_lattice_laws(self, data):
        _, x, y, z = data
        assert x.meet(y) == y.meet(x)
        assert x.join(y) == y.join(x)
        assert x.meet(y).meet(z) == x.meet(y.meet(z))
        assert x.join(y).join(z) == x.join(y.join(z))
        assert x.join(x.meet(y)) == x
        assert x.meet(x.join(y)) == x

    @given(space_with_vectors(count=1))
    @settings(max_examples=60, deadline=None)
    def test_abs_is_join_with_negation(self, data):
        _, x = data
        assert abs(x) == x.join(-x)


class TestPositivityDominance:
    def test_shear_damping_is_positive(self):
        trio = shear_trio("1/3", "1/3", "1/4")
        assert trio.z.is_positive()

    def test_signed_entry_is_not_positive(self, two_point):
        assert not MatrixOperator(two_point, ((1, -1), (0, 1))).is_positive()

    def test_zero_is_positive(self, two_point):
        assert MatrixOperator.zero(two_point).is_positive()

    def test_unit_gap_pair_dominates(self, gap_pair):
        assert gap_pair.s.dominates(gap_pair.t)

    def test_shear_dominance_needs_small_lambda(self):
        trio = shear_trio("1/2", "1/2", "3/4")
        assert not trio.s.dominates(trio.t)
        assert not trio.dominance
        assert shear_trio("1/2", "1/2", "1/2").dominance

    def test_dominance_is_reflexive(self, gap_pair):
        assert gap_pair.t.dominates(gap_pair.t)


class TestOperatorNorm:
    def test_unit_gap(self, gap_pair):
        assert (gap_pair.s - gap_pair.t).norm() == 1

    def test_squared_gap(self, gap_pair):
        squared = gap_pair.s @ gap_pair.s - gap_pair.t @ gap_pair.t
        assert squared.norm() == Fraction(15, 18)

    def test_weighted_column_reduction(self):
        space = MeasureSpace((2, 3))
        a = MatrixOperator(space, ((0, 1), (0, 0)))
        assert a.norm() == Fraction(2, 3)
        # value frozen from the sampling oracle: attained at a vertex and
        # never exceeded on the sphere
        vertex_best = max(
            (a @ space.vertex(j, negative)).norm()
            for j in range(2)
            for negative in (False, True)
        )
        assert vertex_best == Fraction(2, 3)
        rng = Random(17)
        for x in exact_unit_sphere_points(space, rng, 200):
            assert (a @ x).norm() <= Fraction(2, 3)

    def test_sampling_oracle_bounds_and_vertex_attainment(self):
        rng = Random(4021)
        for trial in range(8):
            n = rng.randint(1, 4)
            a = random_signed_operator(seed=5000 + trial, n=n)
            space = a.space
            norm = a.norm()
            vertex_values = [
                (a @ space.vertex(j, negative)).norm()
                for j in range(n)
                for negative in (False, True)
            ]
            assert max(vertex_values) == norm
            for x in exact_unit_sphere_points(space, rng, 60):
                assert (a @ x).norm() <= norm

    def test_ratio_never_exceeds_norm_on_many_samples(self):
        # ten thousand exact ratio comparisons spread over eight operators
        rng = Random(93120)
        for trial in range(8):
            n = rng.randint(1, 4)
            a = random_signed_operator(seed=9300 + trial, n=n)
            norm = a.norm()
            for _ in range(1250):
                x = random_vector(a.space, rng)
                assert (a @ x).norm() <= norm * x.norm()

    def test_positive_cone_sup_equality(self):
        rng = Random(515)
        for trial in range(25):
            n = rng.randint(1, 4)
            a = abs(random_signed_operator(seed=700 + trial, n=n))
            space = a.space
            signed = max(
                (a @ space.vertex(j, negative)).norm()
                for j in range(n)
                for negative in (False, True)
            )
            positive_only = max((a @ space.vertex(j)).norm() for j in range(n))
            assert signed == positive_only == a.norm()

    def test_norm_subtraction_identity(self):
        rng = Random(2218)
        for trial in range(40):
            pair = random_dominated_pair(seed=1200 + trial, n=rng.randint(1, 4))
            x = abs(random_vector(pair.s.space, rng))
            lhs = (pair.s @ x - pair.t @ x).norm()
            assert lhs == (pair.s @ x).norm() - (pair.t @ x).norm()

    @given(space_with_operators())
    @settings(max_examples=60, deadline=None)
    def test_submultiplicativity(self, data):
        _, a, b = data
        assert (a @ b).norm() <= a.norm() * b.norm()

    @given(space_with_operators(count=1))
    @settings(max_examples=60, deadline=None)
    def test_dual_row_sum_agrees(self, data):
        _, a = data
        assert ref_dual_row_sum(a.space.weights, a.entries) == a.norm()

    def test_monotone_dominance(self):
        for trial in range(30):
            pair = random_dominated_pair(seed=3400 + trial, n=3)
            assert pair.t.norm() <= pair.s.norm()


class TestContraction:
    def test_averaging_map_is_boundary_contraction(self, gap_pair):
        assert gap_pair.s.is_contraction()
        assert gap_pair.s.norm() == 1

    def test_nilpotent_is_strict_contraction(self, gap_pair):
        assert gap_pair.t.is_contraction()
        assert gap_pair.t.norm() == Fraction(1, 4)

    def test_doubled_identity_is_not(self, two_point):
        assert not (MatrixOperator.identity(two_point) * 2).is_contraction()


class TestCommutes:
    def test_shear_commutes_with_averaging(self):
        trio = shear_trio("1/4", "1/2", "1/8")
        assert trio.z.commutes_with(trio.s)

    def test_identity_commutes(self, gap_pair):
        assert gap_pair.s.commutes_with(MatrixOperator.identity(gap_pair.space))

    def test_nilpotents_do_not_commute(self, two_point):
        up = MatrixOperator(two_point, ((0, 1), (0, 0)))
        down = MatrixOperator(two_point, ((0, 0), (1, 0)))
        assert not up.commutes_with(down)


class TestLpOperatorNorm:
    """The operator norm induced by the weighted 2-norm, decided exactly
    against rational bounds."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_identity_has_unit_norm(self, n):
        space = MeasureSpace(tuple(Fraction(1 + i, 2) for i in range(n)))
        identity = MatrixOperator.identity(space)
        assert compare_l2_norm(identity, 1) == 0
        assert compare_l2_norm(identity, Fraction(999, 1000)) == 1
        assert compare_l2_norm(identity, Fraction(1001, 1000)) == -1

    def test_two_point_counterexample_values(self):
        pair = p_norm_gap_pair()
        gap = pair.s - pair.t
        sigma = Fraction(sigma_max_uniform_2x2(gap))
        assert compare_l2_norm(gap, sigma * (1 - Fraction(1, 10**9))) == 1
        assert compare_l2_norm(gap, sigma * (1 + Fraction(1, 10**9))) == -1
        assert compare_l2_norm(gap, 1) == -1
        assert compare_l2_norm(pair.s @ pair.s - pair.t @ pair.t, 1) == 0

    def test_diagonal_three_point(self):
        # a diagonal operator's norm is its largest entry
        space = MeasureSpace((Fraction(1, 2), 1, 2))
        diag = MatrixOperator.diagonal(space, (Fraction(1, 2), Fraction(3, 4), Fraction(1, 4)))
        assert compare_l2_norm(diag, Fraction(3, 4)) == 0
        assert compare_l2_norm(diag, Fraction(74, 100)) == 1
        assert compare_l2_norm(diag, Fraction(76, 100)) == -1

    def test_one_point_space(self):
        space = MeasureSpace((Fraction(3),))
        op = MatrixOperator(space, ((Fraction(-3, 2),),))
        assert compare_l2_norm(op, "3/2") == 0
        assert compare_l2_norm(op, 1) == 1
        assert compare_l2_norm(op, 2) == -1

    @pytest.mark.parametrize("weights, rows, c, expected", [
        ((1, 1), ((1, 1), (0, 0)), 1, 1),
        ((1, 1, 1), ((0, 0, 0), (0, 1, 1), (0, 0, 0)), 1, 1),
        ((1, 2, 3), ((1, 0, 0), (0, 2, 0), (0, 0, 0)), 2, 0),
    ], ids=["first-pivot-zero-row-not", "later-pivot-zero-row-not", "later-row-zero"])
    def test_zero_pivots(self, weights, rows, c, expected):
        # Two equal columns of 2-norm c give G a zero pivot with a nonzero
        # row, and |A|_2 = 2^(1/2) c; a diagonal entry equal to the norm c
        # leaves a zero row, so G is singular.
        a = MatrixOperator(MeasureSpace(weights), rows)
        assert compare_l2_norm(a, c) == expected
        assert ref_l2_compare(a.space.weights, a.entries, Fraction(c)) == expected

    def test_parameter_validation(self, two_point):
        op = MatrixOperator.identity(two_point)
        with pytest.raises(ValueError, match="c must be >= 0"):
            compare_l2_norm(op, Fraction(-1, 2))
        with pytest.raises(TypeError):
            compare_l2_norm(op, 0.5)
        assert compare_l2_norm(MatrixOperator.zero(two_point), 0) == 0
        assert compare_l2_norm(op, 0) == 1


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
    def test_contraction_and_commutation_match_reference(self, case):
        space, (a, b, c), _ = case
        weights = space.weights
        x, y = MatrixOperator(space, a), MatrixOperator(space, b)

        def scaled(rows, factor):
            return tuple(tuple(q * factor for q in row) for row in rows)

        for rows in (a, b, c):
            norm = ref_norm(weights, rows)
            assert MatrixOperator(space, rows).is_contraction() == (norm <= 1)
            if norm:  # norm exactly 1, then just above it
                unit = scaled(rows, 1 / norm)
                assert MatrixOperator(space, unit).is_contraction()
                assert not MatrixOperator(space, scaled(unit, Fraction(1001, 1000))).is_contraction()
        assert x.commutes_with(y) == (ref_compose(a, b) == ref_compose(b, a)) == y.commutes_with(x)
        # A polynomial in x commutes with x; its denominator differs from x's.
        p_rows = ref_add(
            ref_add(scaled(ref_compose(a, a), Fraction(1, 3)), scaled(a, Fraction(2, 7))),
            scaled(ref_identity(space.n), Fraction(5, 11)),
        )
        p = MatrixOperator(space, p_rows)
        assert ref_compose(a, p_rows) == ref_compose(p_rows, a)
        assert x.commutes_with(p) and p.commutes_with(x)
        # Perturbing one entry of the polynomial keeps the denominators apart
        # and commutes with x only when the reference says so.
        q_rows = tuple(
            tuple(q + Fraction(1, 13) if (i, j) == (0, space.n - 1) else q for j, q in enumerate(row))
            for i, row in enumerate(p_rows)
        )
        assert x.commutes_with(MatrixOperator(space, q_rows)) == (
            ref_compose(a, q_rows) == ref_compose(q_rows, a)
        )

    def test_commutation_of_fixed_pairs(self, gap_pair):
        s, t = gap_pair.s, gap_pair.t
        assert not s.commutes_with(t) and not t.commutes_with(s)
        assert (s * Fraction(1, 3)).commutes_with(s * Fraction(2, 5))
        assert (s @ s).commutes_with(s + MatrixOperator.identity(s.space) * Fraction(1, 7))
        assert not (t * Fraction(3, 4)).commutes_with(s * Fraction(5, 9))

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


@st.composite
def l2_case(draw):
    """An operator with signed entries on one to four points of distinct
    weights. Some cases isolate one point: its row and column are zero off
    the diagonal, so that diagonal entry's absolute value is a candidate for
    the norm, and a bound equal to it makes ``G`` singular mid-elimination."""
    n = draw(st.integers(min_value=1, max_value=4))
    weights = tuple(draw(st.lists(oracle_weights, min_size=n, max_size=n, unique=True)))
    rows = [[draw(oracle_entries) for _ in range(n)] for _ in range(n)]
    isolated = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n - 1)))
    for i in range(n):
        if isolated is not None and i != isolated:
            rows[i][isolated] = rows[isolated][i] = Fraction(0)
    return MatrixOperator(MeasureSpace(weights), tuple(map(tuple, rows)))


l2_bounds = st.fractions(min_value=Fraction(0), max_value=Fraction(12), max_denominator=12)
unit_fractions = st.fractions(min_value=Fraction(0), max_value=Fraction(1), max_denominator=12)


def _sqrt_below(q: Fraction, scale: int = 10**6) -> Fraction:
    """A rational ``r >= 0`` with ``r^2 <= q``."""
    return Fraction(math.isqrt(q.numerator * scale**2 // q.denominator), scale)


def _sqrt_above(q: Fraction, scale: int = 10**6) -> Fraction:
    """A rational ``r`` with ``r^2 > q``."""
    return Fraction(math.isqrt(-(-q.numerator * scale**2 // q.denominator)) + 1, scale)


class TestCompareL2NormProperties:
    """``compare_l2_norm`` against the minor reference and against facts
    about the 2-norm that need no elimination."""

    @settings(max_examples=200)
    @given(l2_case(), st.data())
    def test_matches_minor_reference(self, a, data):
        # Bounds drawn from the entries hit "=" on diagonal operators and,
        # often, on cases with an isolated point.
        entries = sorted({abs(q) for row in a.entries for q in row})
        c = data.draw(st.one_of(l2_bounds, st.sampled_from(entries)))
        assert compare_l2_norm(a, c) == ref_l2_compare(a.space.weights, a.entries, c)

    @given(l2_case(), st.data())
    def test_witness_vector_forces_above(self, a, data):
        n, weights = a.space.n, a.space.weights
        x = data.draw(st.lists(oracle_entries, min_size=n, max_size=n).filter(any))
        y = (a @ L1Vector(a.space, tuple(x))).coords
        ratio = sum(w * t * t for w, t in zip(weights, y)) / sum(w * t * t for w, t in zip(weights, x))
        c = _sqrt_below(ratio) * data.draw(unit_fractions)
        result = compare_l2_norm(a, c)
        assert result >= 0
        if c * c < ratio:
            assert result == 1

    @given(l2_case())
    def test_riesz_thorin_bound(self, a):
        # |A|_2^2 <= |A|_1 |A|_inf, with |A|_inf the largest absolute row sum
        sup_norm = max(sum(abs(q) for q in row) for row in a.entries)
        assert compare_l2_norm(a, _sqrt_above(a.norm() * sup_norm)) == -1

    @given(st.data())
    def test_diagonal_norm_is_largest_entry(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        weights = data.draw(st.lists(oracle_weights, min_size=n, max_size=n, unique=True))
        diag = data.draw(st.lists(oracle_entries, min_size=n, max_size=n))
        a = MatrixOperator.diagonal(MeasureSpace(tuple(weights)), tuple(diag))
        top = max(map(abs, diag))
        assert compare_l2_norm(a, top) == 0
        assert compare_l2_norm(a, top + Fraction(1, 1000)) == -1
        if top:
            assert compare_l2_norm(a, top * Fraction(999, 1000)) == 1

    @given(
        l2_case(),
        l2_bounds,
        l2_bounds,
        st.fractions(min_value=Fraction(1, 8), max_value=Fraction(8), max_denominator=9),
    )
    def test_joint_scaling_and_monotone_in_c(self, a, c1, c2, s):
        assert compare_l2_norm(a * s, c1 * s) == compare_l2_norm(a, c1)
        low, high = sorted((c1, c2))
        assert compare_l2_norm(a, low) >= compare_l2_norm(a, high)

    @given(oracle_weights, st.lists(oracle_entries, min_size=4, max_size=4))
    def test_brackets_float_oracle_on_uniform_two_point(self, weight, entries):
        a = MatrixOperator(MeasureSpace((weight, weight)), (tuple(entries[:2]), tuple(entries[2:])))
        sigma = Fraction(sigma_max_uniform_2x2(a))
        if sigma == 0:
            assert compare_l2_norm(a, 0) == 0
        else:
            assert compare_l2_norm(a, sigma * (1 - Fraction(1, 10**9))) == 1
            assert compare_l2_norm(a, sigma * (1 + Fraction(1, 10**9))) == -1
