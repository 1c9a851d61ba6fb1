"""Operator lattice calculus: modulus against its defining supremum, meet
bounds and identities, and sup-preservation certificates."""

import itertools
from fractions import Fraction
from random import Random

import pytest

from dominion import (
    InternalConsistencyError,
    MatrixOperator,
    MeasureSpace,
    check_hom_identities,
    is_lattice_contraction,
    is_lattice_homomorphism,
    operator_meet,
    operator_modulus,
    random_positive_contraction,
    random_signed_operator,
    shear_trio,
)
from dominion.calculus import LatticeHomCertificate

from conftest import modulus_sup_oracle, random_vector, sup_preserving_on_vertices


class TestModulus:
    def test_entrywise_absolute_value(self, two_point):
        a = MatrixOperator(two_point, ((1, -2), (-3, 4)))
        assert operator_modulus(a) == MatrixOperator(two_point, ((1, 2), (3, 4)))

    def test_positive_operator_is_fixed(self, gap_pair):
        assert operator_modulus(gap_pair.s) == gap_pair.s

    def test_dominated_gap_is_already_positive(self, gap_pair):
        gap = gap_pair.s - gap_pair.t
        assert operator_modulus(gap) == gap

    def test_matches_defining_sup_on_vertices(self):
        rng = Random(118)
        for trial in range(30):
            n = rng.randint(1, 6)
            a = random_signed_operator(seed=2600 + trial, n=n)
            mod = operator_modulus(a)
            for j in range(n):
                x = a.space.vertex(j)
                assert modulus_sup_oracle(a, x) == mod @ x

    @pytest.mark.parametrize("n", [7, 10])
    def test_matches_defining_sup_on_larger_spaces(self, n):
        a = random_signed_operator(seed=52_000 + n, n=n)
        mod = operator_modulus(a)
        for j in range(n):
            x = a.space.vertex(j)
            assert modulus_sup_oracle(a, x) == mod @ x

    def test_matches_defining_sup_on_random_nonnegative_vectors(self):
        rng = Random(119)
        for trial in range(20):
            n = rng.randint(1, 5)
            a = random_signed_operator(seed=3600 + trial, n=n)
            mod = operator_modulus(a)
            x = abs(random_vector(a.space, rng))
            assert modulus_sup_oracle(a, x) == mod @ x

    def test_norm_preserved(self):
        for trial in range(25):
            a = random_signed_operator(seed=4600 + trial, n=3)
            assert operator_modulus(a).norm() == a.norm()


class TestOperatorMeet:
    def test_meet_of_dominated_pair_is_the_smaller(self, gap_pair):
        assert operator_meet(gap_pair.s, gap_pair.t) == gap_pair.t

    def test_idempotent(self, gap_pair):
        assert operator_meet(gap_pair.s, gap_pair.s) == gap_pair.s

    def test_nilpotent_meets_identity_at_zero(self, gap_pair):
        met = operator_meet(gap_pair.t, MatrixOperator.identity(gap_pair.space))
        assert met == MatrixOperator.zero(gap_pair.space)

    def test_bounds_commutativity_positivity(self):
        rng = Random(77)
        for trial in range(25):
            n = rng.randint(1, 4)
            space = MeasureSpace((1,) * n)
            s = random_positive_contraction(seed=800 + trial, n=n, space=space)
            t = random_positive_contraction(seed=900 + trial, n=n, space=space)
            met = operator_meet(s, t)
            assert s.dominates(met) and t.dominates(met)
            assert met.is_positive()
            assert met == operator_meet(t, s)

    def test_averaged_matrix_form(self):
        for trial in range(25):
            s = random_signed_operator(seed=1500 + trial, n=3)
            t = random_signed_operator(seed=1600 + trial, n=3, space=s.space)
            averaged = (s + t - operator_modulus(s - t)) * Fraction(1, 2)
            assert operator_meet(s, t) == averaged

    def test_action_matches_vector_formula(self):
        rng = Random(81)
        for trial in range(25):
            s = random_signed_operator(seed=2500 + trial, n=3)
            t = random_signed_operator(seed=2700 + trial, n=3, space=s.space)
            met = operator_meet(s, t)
            x = random_vector(s.space, rng)
            direct = (s @ x + t @ x - operator_modulus(s - t) @ x) * Fraction(1, 2)
            assert met @ x == direct

    def test_sum_decomposition(self):
        for trial in range(25):
            s = random_signed_operator(seed=3500 + trial, n=3)
            t = random_signed_operator(seed=3700 + trial, n=3, space=s.space)
            rebuilt = operator_meet(s, t) * 2 + operator_modulus(s - t)
            assert rebuilt == s + t


class TestLatticeHomomorphism:
    def test_diagonal_is_sup_preserving(self, two_point):
        z = MatrixOperator.diagonal(two_point, (Fraction(1, 2), Fraction(1, 3)))
        certificate = is_lattice_homomorphism(z)
        assert certificate
        assert certificate.row_support == (1, 1)
        assert certificate.order_continuous

    def test_identity_is_sup_preserving(self, two_point):
        assert is_lattice_homomorphism(MatrixOperator.identity(two_point))

    def test_zero_operator_is_sup_preserving(self, two_point):
        assert is_lattice_homomorphism(MatrixOperator.zero(two_point))

    def test_shear_with_two_row_entries_fails_with_witness(self):
        trio = shear_trio("1/2", "1/2", "1/4")
        certificate = is_lattice_homomorphism(trio.z)
        assert not certificate
        x, y = certificate.counterexample
        z = trio.z
        assert z @ x.join(y) != (z @ x).join(z @ y)

    def test_negative_entry_fails_with_witness(self, two_point):
        z = MatrixOperator(two_point, ((0, -1), (1, 0)))
        certificate = is_lattice_homomorphism(z)
        assert not certificate
        x, y = certificate.counterexample
        assert z @ x.join(y) != (z @ x).join(z @ y)

    def test_scaled_permutation_is_sup_preserving(self):
        space = MeasureSpace((1, 1, 1))
        z = MatrixOperator.permutation(space, (2, 0, 1)) * Fraction(2, 3)
        assert is_lattice_homomorphism(z)
        assert is_lattice_contraction(z)

    def test_bogus_counterexample_is_rejected(self, two_point):
        z = MatrixOperator.identity(two_point)
        pair = (two_point.basis_vector(0), two_point.basis_vector(1))
        with pytest.raises(InternalConsistencyError):
            LatticeHomCertificate(z, False, None, pair)

    def test_structural_agrees_with_behavioral_exhaustively_on_two_points(self):
        space = MeasureSpace((1, 1))
        values = (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1))
        for entries in itertools.product(values, repeat=4):
            z = MatrixOperator(space, ((entries[0], entries[1]), (entries[2], entries[3])))
            assert bool(is_lattice_homomorphism(z)) == sup_preserving_on_vertices(z)

    @pytest.mark.parametrize("n,count", [(3, 400), (4, 200)])
    def test_structural_agrees_with_behavioral_sampled(self, n, count):
        rng = Random(60 + n)
        values = (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1))
        space = MeasureSpace((1,) * n)
        for _ in range(count):
            rows = tuple(
                tuple(rng.choice(values) for _ in range(n)) for _ in range(n)
            )
            z = MatrixOperator(space, rows)
            assert bool(is_lattice_homomorphism(z)) == sup_preserving_on_vertices(z)


class TestHomIdentities:
    def test_scalar_damping_transports_modulus_and_meet(self, gap_pair):
        z = MatrixOperator.identity(gap_pair.space) * Fraction(1, 2)
        report = check_hom_identities(z, gap_pair.s, gap_pair.t)
        assert report.hypotheses_ok
        assert report.modulus_identity and report.meet_identity
        assert report.both_hold

    def test_permutations_transport_on_random_pairs(self):
        rng = Random(404)
        for trial in range(25):
            n = rng.randint(2, 4)
            space = MeasureSpace((1,) * n)
            perm = list(range(n))
            rng.shuffle(perm)
            z = MatrixOperator.permutation(space, tuple(perm))
            s = random_positive_contraction(seed=5200 + trial, n=n, space=space)
            t = random_positive_contraction(seed=5300 + trial, n=n, space=space)
            assert check_hom_identities(z, s, t).both_hold

    def test_non_homomorphism_reports_hypothesis_violation(self, gap_pair):
        trio = shear_trio("1/2", "1/2", "1/4")
        report = check_hom_identities(trio.z, gap_pair.s, gap_pair.t)
        assert not report.hypotheses_ok
        assert "Z is not sup-preserving" in report.failed_hypotheses
        assert report.modulus_identity is None and report.meet_identity is None

    @pytest.mark.parametrize("z, s, t, failed", [
        ("I", "I", "other", ("operators live on different measure spaces",)),
        ("I", "signed", "0", ("S is not positive",)),
        ("signed", "2I", "signed", ("Z is not sup-preserving", "S is not a contraction", "T is not positive")),
    ])
    def test_reports_every_failing_line_in_ledger_order(self, two_point, z, s, t, failed):
        identity = MatrixOperator.identity(two_point)
        ops = {
            "I": identity, "2I": identity * 2, "0": MatrixOperator.zero(two_point),
            "signed": MatrixOperator(two_point, ((0, "-1/2"), (0, 0))),
            "other": MatrixOperator.identity(MeasureSpace((1,))),
        }
        report = check_hom_identities(ops[z], ops[s], ops[t])
        assert (report.hypotheses_ok, report.failed_hypotheses) == (False, failed)
        assert report.modulus_identity is None and report.meet_identity is None

    def test_non_contraction_argument_reports_hypothesis_violation(self, two_point):
        z = MatrixOperator.identity(two_point)
        big = MatrixOperator.identity(two_point) * 3
        report = check_hom_identities(z, big, MatrixOperator.zero(two_point))
        assert not report.hypotheses_ok
        assert any("contraction" in reason for reason in report.failed_hypotheses)
