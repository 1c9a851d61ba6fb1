"""Lattice calculus at the operator level.

The modulus of a matrix operator on a finite coordinate lattice is its
entrywise absolute value, and the operator meet is the entrywise minimum,
which agrees with the averaged form (S + T - |S - T|) / 2 both as a matrix
and in its action on every vector. Sup-preservation (being a lattice
homomorphism) is structural here: a nonnegative matrix with at most one
nonzero entry per row. Order continuity is automatic in finite dimension,
so certificates record it instead of testing it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import InternalConsistencyError, L1Vector, MatrixOperator

__all__ = [
    "operator_modulus",
    "operator_meet",
    "LatticeHomCertificate",
    "is_lattice_homomorphism",
    "is_lattice_contraction",
]


def operator_modulus(a: MatrixOperator) -> MatrixOperator:
    """Smallest positive operator dominating both ``a`` and ``-a``.

    On a finite coordinate lattice this is the entrywise absolute value; it
    reproduces the defining supremum sup{A y : |y| <= x} coordinatewise for
    every x >= 0.
    """
    return abs(a)


def operator_meet(s: MatrixOperator, t: MatrixOperator) -> MatrixOperator:
    """Lattice infimum of two operators, the entrywise minimum.

    Equal to (s + t - |s - t|) / 2, so acting on any vector it matches the
    averaged vector formula as well.
    """
    num_s, num_t, den = s._aligned(t)
    return MatrixOperator._from_numerators(
        s.space, tuple(tuple(map(min, ra, rb)) for ra, rb in zip(num_s, num_t)), den
    )


@dataclass(frozen=True)
class LatticeHomCertificate:
    """Outcome of the sup-preservation test for a linear operator.

    A positive verdict carries the structural evidence (nonzero count per
    row, all at most one, with nonnegative entries). A negative verdict
    carries a falsifying pair (x, y) with Z(x v y) != Zx v Zy, re-checked
    exactly at construction. ``order_continuous`` is always True: every
    linear operator on a finite-dimensional space is order continuous, and
    the certificate records that fact rather than dropping it.
    """

    operator: MatrixOperator
    verdict: bool
    row_support: tuple[int, ...] | None
    counterexample: tuple[L1Vector, L1Vector] | None
    order_continuous: bool = True

    def __post_init__(self) -> None:
        if self.verdict:
            if self.row_support is None:
                raise ValueError("a positive verdict needs its structural evidence")
        else:
            if self.counterexample is None:
                raise ValueError("a negative verdict needs a falsifying pair")
            x, y = self.counterexample
            z = self.operator
            if z @ x.join(y) == (z @ x).join(z @ y):
                raise InternalConsistencyError(
                    "claimed falsifying pair actually satisfies sup-preservation"
                )

    def __bool__(self) -> bool:
        return self.verdict


def is_lattice_homomorphism(z: MatrixOperator) -> LatticeHomCertificate:
    """Decide whether ``z`` preserves suprema, with evidence either way.

    Structurally: ``z`` must be nonnegative with at most one nonzero entry
    per row. When that fails, a concrete pair of vectors witnessing
    Z(x v y) != Zx v Zy is produced and verified exactly.
    """
    # The common denominator is positive, so each numerator carries the
    # sign of its entry.
    num = z.num
    n = z.space.n
    for j in range(n):
        if any(num[i][j] < 0 for i in range(n)):
            # A negative entry in column j breaks Z(x v 0) = Zx v 0 at x = e_j.
            pair = (z.space.basis_vector(j), z.space.zero_vector())
            return LatticeHomCertificate(z, False, None, pair)
    for i in range(n):
        support = [j for j in range(n) if num[i][j] != 0]
        if len(support) > 1:
            j1, j2 = support[0], support[1]
            pair = (z.space.basis_vector(j1), z.space.basis_vector(j2))
            return LatticeHomCertificate(z, False, None, pair)
    counts = tuple(
        sum(1 for p in row if p != 0) for row in num
    )
    return LatticeHomCertificate(z, True, counts, None)


def is_lattice_contraction(z: MatrixOperator) -> bool:
    """Sup-preserving operator with norm at most one."""
    return bool(is_lattice_homomorphism(z)) and z.is_contraction()
