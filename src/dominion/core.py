"""Exact substrate: finite weighted measure spaces, rational vectors, and
matrix operators with their induced L1 operator norm.

All values are immutable, and all arithmetic on them is exact (arbitrary
precision rationals), so strict verdicts such as ``norm < 1`` are decided
with no rounding anywhere. The operator norm induced by the weighted
2-norm is not rational in general, so :func:`compare_l2_norm` decides its
order against a rational bound instead of computing it.

A :class:`MatrixOperator` stores an integer numerator matrix over one
positive common denominator, reduced to lowest terms by a single gcd per
operation. Products, sums, comparisons and the L1 norm run on those
integers; the ``Fraction`` rows of ``entries`` are built lazily, only when
a caller such as the bundle writer or ``repr`` asks for them.

Operators follow the column-action convention: column ``j`` of the matrix
is the image of the ``j``-th coordinate basis vector.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from typing import Union

__all__ = [
    "RationalLike",
    "rat",
    "unlimited_int_digits",
    "SpaceMismatchError",
    "InternalConsistencyError",
    "MeasureSpace",
    "L1Vector",
    "MatrixOperator",
    "compare_l2_norm",
]

RationalLike = Union[Fraction, int, str]


class SpaceMismatchError(ValueError):
    """Operands live on different measure spaces."""


class InternalConsistencyError(RuntimeError):
    """An exact identity that must hold by construction failed.

    This always indicates a transcription or implementation bug, never a
    counterexample to an established statement.
    """


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or ``"p/q"`` string to an exact Fraction.

    Floats are rejected on purpose: exactness must survive construction.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def unlimited_int_digits(func):
    """Run ``func`` with CPython's int-string digit limit (4300 by default)
    lifted and the caller's setting restored on return, so exact values of
    any size print and parse. A Python without the limit runs ``func`` as is.
    The limit is interpreter-wide: other threads see it lifted meanwhile.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        return func

    @wraps(func)
    def lifted(*args, **kwargs):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return func(*args, **kwargs)
        finally:
            sys.set_int_max_str_digits(previous)

    return lifted


@dataclass(frozen=True)
class MeasureSpace:
    """A finite point set with strictly positive rational weights.

    Two spaces are interchangeable only when they compare equal, i.e. the
    point count and every weight match exactly.
    """

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        ws = tuple(rat(w) for w in self.weights)
        if not ws:
            raise ValueError("a measure space needs at least one point")
        if any(w <= 0 for w in ws):
            raise ValueError("all weights must be strictly positive")
        object.__setattr__(self, "weights", ws)

    @property
    def n(self) -> int:
        return len(self.weights)

    @cached_property
    def _integer_weights(self) -> tuple[int, ...]:
        """The weights times the lcm of their denominators: integers with
        the same ratios as the weights."""
        scale = math.lcm(*(w.denominator for w in self.weights))
        return tuple(w.numerator * (scale // w.denominator) for w in self.weights)

    def zero_vector(self) -> L1Vector:
        return L1Vector(self, (Fraction(0),) * self.n)

    def basis_vector(self, j: int) -> L1Vector:
        coords = tuple(Fraction(1) if i == j else Fraction(0) for i in range(self.n))
        return L1Vector(self, coords)

    def vertex(self, j: int, negative: bool = False) -> L1Vector:
        """Extreme point of the unit ball: the basis vector at ``j`` scaled
        to norm one, optionally negated."""
        scale = Fraction(-1 if negative else 1, 1) / self.weights[j]
        coords = tuple(scale if i == j else Fraction(0) for i in range(self.n))
        return L1Vector(self, coords)

    def __repr__(self) -> str:
        return f"MeasureSpace({', '.join(str(w) for w in self.weights)})"


@dataclass(frozen=True)
class L1Vector:
    """A rational coordinate function on a measure space."""

    space: MeasureSpace
    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cs = tuple(rat(c) for c in self.coords)
        if len(cs) != self.space.n:
            raise ValueError(
                f"vector has {len(cs)} coordinates on a {self.space.n}-point space"
            )
        object.__setattr__(self, "coords", cs)

    def _require_same_space(self, other: L1Vector) -> None:
        if self.space != other.space:
            raise SpaceMismatchError("vectors live on different measure spaces")

    def norm(self) -> Fraction:
        """Weighted absolute sum, the ambient norm. Zero iff the vector is zero."""
        return sum(
            (w * abs(c) for w, c in zip(self.space.weights, self.coords)),
            Fraction(0),
        )

    def meet(self, other: L1Vector) -> L1Vector:
        self._require_same_space(other)
        return L1Vector(self.space, tuple(min(a, b) for a, b in zip(self.coords, other.coords)))

    def join(self, other: L1Vector) -> L1Vector:
        self._require_same_space(other)
        return L1Vector(self.space, tuple(max(a, b) for a, b in zip(self.coords, other.coords)))

    def __abs__(self) -> L1Vector:
        return L1Vector(self.space, tuple(abs(c) for c in self.coords))

    def __add__(self, other: L1Vector) -> L1Vector:
        self._require_same_space(other)
        return L1Vector(self.space, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: L1Vector) -> L1Vector:
        self._require_same_space(other)
        return L1Vector(self.space, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> L1Vector:
        return L1Vector(self.space, tuple(-c for c in self.coords))

    def __mul__(self, scalar: Fraction | int) -> L1Vector:
        c = rat(scalar)
        return L1Vector(self.space, tuple(c * x for x in self.coords))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"L1Vector({', '.join(str(c) for c in self.coords)})"


# Writes the slots of an immutable MatrixOperator while it is being built.
_set = object.__setattr__

Numerators = tuple[tuple[int, ...], ...]


class MatrixOperator:
    """An exact rational matrix acting on vectors of its measure space.

    Column ``j`` is the image of the ``j``-th coordinate basis vector, so
    ``apply`` is the ordinary matrix-vector product.

    The matrix is stored as integer numerators ``num`` over one positive
    common denominator ``den``, kept canonical (``gcd(den, *num) == 1``) so
    that equality and hashing compare ``(space, num, den)`` directly. Every
    operation works on the integers and reduces its result with a single
    gcd. ``entries``, the matrix as rows of reduced ``Fraction``s, is built
    on first access only.
    """

    __slots__ = ("space", "num", "den", "_entries")

    space: MeasureSpace
    num: Numerators
    den: int

    def __init__(self, space: MeasureSpace, entries: tuple[tuple[RationalLike, ...], ...]) -> None:
        _set(self, "space", space)
        _set(self, "_entries", entries)
        self.__post_init__()

    def __post_init__(self) -> None:
        rows = tuple(tuple(rat(q) for q in row) for row in self._entries)
        n = self.space.n
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"operator on a {n}-point space must be {n}x{n}")
        # The lcm of reduced denominators is already canonical: a prime
        # dividing it divides some entry's denominator to the full power,
        # and that entry's scaled numerator is then prime to it.
        den = math.lcm(*(q.denominator for row in rows for q in row))
        _set(self, "num", tuple(
            tuple(q.numerator * (den // q.denominator) for q in row) for row in rows
        ))
        _set(self, "den", den)
        _set(self, "_entries", rows)

    @classmethod
    def _from_numerators(cls, space: MeasureSpace, num: Numerators, den: int) -> MatrixOperator:
        """The operator ``num / den`` for ``den > 0``, reduced by one gcd."""
        g = math.gcd(den, *itertools.chain.from_iterable(num))
        if g != 1:
            num = tuple(tuple(p // g for p in row) for row in num)
            den //= g
        op = object.__new__(cls)
        _set(op, "space", space)
        _set(op, "num", num)
        _set(op, "den", den)
        _set(op, "_entries", None)
        return op

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable operator")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable operator")

    def __reduce__(self):
        return (MatrixOperator._from_numerators, (self.space, self.num, self.den))

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The matrix as rows of reduced Fractions, built on first access."""
        if self._entries is None:
            den = self.den
            _set(self, "_entries", tuple(tuple(Fraction(p, den) for p in row) for row in self.num))
        return self._entries

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.den == other.den and self.num == other.num and self.space == other.space

    def __hash__(self) -> int:
        return hash((self.space, self.num, self.den))

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, space: MeasureSpace) -> MatrixOperator:
        n = space.n
        num = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return cls._from_numerators(space, num, 1)

    @classmethod
    def zero(cls, space: MeasureSpace) -> MatrixOperator:
        n = space.n
        return cls._from_numerators(space, ((0,) * n,) * n, 1)

    @classmethod
    def diagonal(cls, space: MeasureSpace, diag: tuple[RationalLike, ...]) -> MatrixOperator:
        n = space.n
        if len(diag) != n:
            raise ValueError("diagonal length must match the space dimension")
        return cls(space, tuple(
            tuple(rat(diag[i]) if i == j else Fraction(0) for j in range(n))
            for i in range(n)
        ))

    @classmethod
    def permutation(cls, space: MeasureSpace, perm: tuple[int, ...]) -> MatrixOperator:
        """Operator sending basis vector j to basis vector ``perm[j]``."""
        n = space.n
        if sorted(perm) != list(range(n)):
            raise ValueError(f"{perm!r} is not a permutation of 0..{n - 1}")
        return cls._from_numerators(space, tuple(
            tuple(int(perm[j] == i) for j in range(n)) for i in range(n)
        ), 1)

    # -- plumbing ----------------------------------------------------------

    def _require_same_space(self, other: MatrixOperator | L1Vector) -> None:
        if self.space is not other.space and self.space != other.space:
            raise SpaceMismatchError("operands live on different measure spaces")

    def _aligned(self, other: MatrixOperator) -> tuple[Numerators, Numerators, int]:
        """Numerators of ``self`` and ``other`` over their least common
        denominator, returned as ``(num_self, num_other, lcm)``."""
        self._require_same_space(other)
        da, db = self.den, other.den
        if da == db:
            return self.num, other.num, da
        g = math.gcd(da, db)
        return _scaled(self.num, db // g), _scaled(other.num, da // g), da // g * db

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: MatrixOperator) -> MatrixOperator:
        na, nb, den = self._aligned(other)
        return MatrixOperator._from_numerators(
            self.space, tuple(tuple(map(operator.add, ra, rb)) for ra, rb in zip(na, nb)), den
        )

    def __sub__(self, other: MatrixOperator) -> MatrixOperator:
        na, nb, den = self._aligned(other)
        return MatrixOperator._from_numerators(
            self.space, tuple(tuple(map(operator.sub, ra, rb)) for ra, rb in zip(na, nb)), den
        )

    def __neg__(self) -> MatrixOperator:
        num = tuple(tuple(-p for p in row) for row in self.num)
        return MatrixOperator._from_numerators(self.space, num, self.den)

    def __mul__(self, scalar: Fraction | int) -> MatrixOperator:
        c = rat(scalar)
        return MatrixOperator._from_numerators(
            self.space, _scaled(self.num, c.numerator), self.den * c.denominator
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar: Fraction | int) -> MatrixOperator:
        c = rat(scalar)
        if c == 0:
            raise ZeroDivisionError("division of an operator by zero")
        return self * (Fraction(1) / c)

    def __abs__(self) -> MatrixOperator:
        num = tuple(tuple(map(abs, row)) for row in self.num)
        return MatrixOperator._from_numerators(self.space, num, self.den)

    def apply(self, x: L1Vector) -> L1Vector:
        self._require_same_space(x)
        scale = math.lcm(*(c.denominator for c in x.coords))
        xs = [c.numerator * (scale // c.denominator) for c in x.coords]
        den = self.den * scale
        coords = tuple(Fraction(sum(map(operator.mul, row, xs)), den) for row in self.num)
        return L1Vector(self.space, coords)

    def compose(self, other: MatrixOperator) -> MatrixOperator:
        """Product self . other, i.e. apply ``other`` first."""
        self._require_same_space(other)
        return MatrixOperator._from_numerators(
            self.space, _product(self.num, other.num), self.den * other.den
        )

    def __matmul__(self, other: MatrixOperator | L1Vector):
        if isinstance(other, L1Vector):
            return self.apply(other)
        if isinstance(other, MatrixOperator):
            return self.compose(other)
        return NotImplemented

    def __pow__(self, exponent: int) -> MatrixOperator:
        """Square-and-multiply started from its first factor, x^(2^i) for
        the lowest set bit i of the exponent, not from the identity:
        ``x**0`` is the identity, ``x**1`` is ``x`` itself, and neither
        makes a product."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("operator powers are defined for integer exponents >= 0")
        if exponent == 0:
            return MatrixOperator.identity(self.space)
        base = self
        while not exponent & 1:
            base = base @ base
            exponent >>= 1
        result = base
        exponent >>= 1
        while exponent:
            base = base @ base
            if exponent & 1:
                result = result @ base
            exponent >>= 1
        return result

    def hadamard(self, other: MatrixOperator) -> MatrixOperator:
        """Entrywise product."""
        self._require_same_space(other)
        return MatrixOperator._from_numerators(
            self.space,
            tuple(tuple(map(operator.mul, ra, rb)) for ra, rb in zip(self.num, other.num)),
            self.den * other.den,
        )

    # -- order and norm ----------------------------------------------------

    def is_positive(self) -> bool:
        """True iff every entry is >= 0; equivalent to mapping the
        nonnegative cone into itself."""
        return all(p >= 0 for row in self.num for p in row)

    def dominates(self, other: MatrixOperator) -> bool:
        """True iff ``self - other`` is a positive operator, decided by
        cross-multiplying each pair of entries by the other's denominator."""
        self._require_same_space(other)
        da, db = self.den, other.den
        return all(a * db >= b * da for ra, rb in zip(self.num, other.num) for a, b in zip(ra, rb))

    def commutes_with(self, other: MatrixOperator) -> bool:
        """True iff ``self @ other == other @ self``. Both products lie over
        the same denominator, so their unreduced numerators are compared."""
        self._require_same_space(other)
        return _product(self.num, other.num) == _product(other.num, self.num)

    def norm(self) -> Fraction:
        """Exact induced L1 operator norm.

        The unit ball's extreme points are the signed scaled basis vectors,
        so the supremum of ``|Ax| / |x|`` is the largest weighted column sum
        relative to its own weight, and the maximum is attained at one of
        those vertices. With integer weights ``w`` proportional to the
        measure, column ``j`` gives ``sum_i w_i |num_ij| / (w_j * den)``;
        the columns are compared by cross-multiplication.
        """
        return _column_norm(self.space._integer_weights, zip(*self.num), self.den)

    def distance(self, other: MatrixOperator) -> Fraction:
        """Exactly ``(self - other).norm()``, computed on the aligned
        numerators without building or reducing the difference operator."""
        na, nb, den = self._aligned(other)
        diff = (map(operator.sub, ra, rb) for ra, rb in zip(na, nb))
        return _column_norm(self.space._integer_weights, zip(*diff), den)

    def is_contraction(self) -> bool:
        """``norm() <= 1``: each integer-weighted column sum is at most ``w_j * den``."""
        w, den = self.space._integer_weights, self.den
        sums = (sum(map(operator.mul, w, map(abs, col))) for col in zip(*self.num))
        return all(col_sum <= w_j * den for col_sum, w_j in zip(sums, w))

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(str(q) for q in row) for row in self.entries
        )
        return f"MatrixOperator[{body}]"


def _column_norm(weights: tuple[int, ...], columns, den: int) -> Fraction:
    """L1 norm of the matrix with the given numerator columns over ``den``."""
    best_sum, best_weight = _column_max(weights, columns)
    return Fraction(best_sum, best_weight * den)


def _column_max(weights: tuple[int, ...], columns) -> tuple[int, int]:
    """``(s, w_j)`` for the column whose weighted absolute sum ``s`` is largest
    relative to its own weight ``w_j``, found by cross-multiplication."""
    best_sum, best_weight = 0, 1
    for w_j, col in zip(weights, columns):
        col_sum = sum(map(operator.mul, weights, map(abs, col)))
        if col_sum * best_weight > best_sum * w_j:
            best_sum, best_weight = col_sum, w_j
    return best_sum, best_weight


def _reduced(num: int, den: int, radical: int) -> Fraction:
    """``Fraction(num, den)`` for ``den > 0`` whose primes all divide the small ``radical``:
    a prime left in both when ``h = 1`` would divide ``gcd(den, radical)``, hence ``h``."""
    while (h := math.gcd(num, math.gcd(den, radical))) > 1:
        num, den = num // h, den // h
    result = object.__new__(Fraction)  # as 3.12's Fraction._from_coprime_ints; runs on 3.10+
    result._numerator, result._denominator = num, den
    return result


def _product(a: Numerators, b: Numerators) -> Numerators:
    """Numerators of the matrix product ``a b``, unreduced."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in a)


def _scaled(num: Numerators, factor: int) -> Numerators:
    if factor == 1:
        return num
    return tuple(tuple(p * factor for p in row) for row in num)


# -- the weighted 2-norm, decided exactly --------------------------------------


def compare_l2_norm(a: MatrixOperator, c: RationalLike) -> int:
    """Sign of ``|A|_2 - c``: -1, 0 or 1, for the operator norm induced by
    the weighted 2-norm ``|x|_2 = (sum_i mu_i x_i^2)^(1/2)`` and a rational
    ``c >= 0``.

    With ``M = diag(mu)``, ``|A|_2 <= c`` iff ``G = c^2 M - A^T M A`` is
    positive semidefinite, and ``|A|_2 < c`` iff ``G`` is positive definite.
    ``G`` is scaled to integers and decided by symmetric elimination over
    the rationals: each positive pivot is replaced by its Schur complement,
    a zero pivot whose row is zero is dropped (``G`` is singular), and a
    negative pivot, or a zero pivot whose row is not zero, shows that ``G``
    is not semidefinite.
    """
    c = rat(c)
    if c < 0:
        raise ValueError(f"the bound c must be >= 0, got {c}")
    w, num, n = a.space._integer_weights, a.num, a.space.n
    bound = (c.numerator * a.den) ** 2
    scale = c.denominator ** 2
    # G times (den * c.denominator)^2 over the integer weights.
    g = [
        [
            (bound * w[i] if i == j else 0)
            - scale * sum(w[k] * num[k][i] * num[k][j] for k in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    singular = False
    for k in range(n):
        pivot, rest = g[k][k], range(k + 1, n)
        if pivot < 0 or (pivot == 0 and any(g[k][j] for j in rest)):
            return 1
        if pivot == 0:
            singular = True
            continue
        for i in rest:
            for j in rest:
                g[i][j] -= Fraction(g[i][k] * g[k][j], pivot)
    return 0 if singular else -1
