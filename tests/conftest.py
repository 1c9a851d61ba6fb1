"""Shared fixtures and independent oracles.

The oracles deliberately avoid the code paths they validate: norms are
bounded by sampling exact unit-sphere points, the operator modulus is
recomputed from its defining supremum over sign patterns, and
sup-preservation is re-decided behaviorally on vertex pairs. The ``ref_*``
functions are a per-entry ``Fraction`` reference for the integer kernel of
``MatrixOperator``; ``ref_dual_row_sum`` reaches the L1 norm through the
dual side instead of the column sums, and ``ref_certificate_scan`` is the
linear walk that the galloping certificate search replaces.
``matrix_grid_gaps`` measures power gaps on ``MatrixOperator`` products,
the matrix walk that the support walk of ``_grid_gaps`` replaces: past the
base point the walk must yield exactly its points of gap 1.
``column_stochastic`` builds the mass-conserving factors on which that walk
never stops an axis early; and ``ref_zero_two_trace`` is the ``t @ current``
operator walk that the integer column walk of ``zero_two_trace`` replaces.
``ref_decimal_str`` divides the two full ``Decimal`` conversions that
``decimal_str``'s one integer quotient replaces, and ``ref_parse_bundle`` is
the per-entry ``Fraction`` parse, with a duplicate-key walk over every
decoded node, that ``parse_bundle``'s integer pairs replace. The ``ref_random_*`` generators are the ``Fraction``-entry
construction that the gallery's integer-numerator draws replace. The weighted
2-norm has two oracles: ``ref_l2_compare`` decides it from determinants
instead of elimination, and ``sigma_max_uniform_2x2`` approximates it in
floating point from a closed form on uniform two-point spaces.
``noncommuting_t_pairs`` is the two-pair family whose S members commute and
whose T members do not.

Hypothesis runs under the ``tier1`` profile: examples are derived from each
test's source rather than a random seed, so every run checks the same
inputs, and tests that do not set ``max_examples`` run a bounded number.
Pass ``--hypothesis-profile default`` to pytest for randomized runs.
"""

from __future__ import annotations

import functools
import itertools
import math
import json
import operator
import re
from decimal import Decimal, localcontext
from fractions import Fraction
from random import Random

import pytest
from hypothesis import settings

from dominion import DominatedPair, L1Vector, MatrixOperator, MeasureSpace, unit_gap_pair
from dominion.bundles import BundleError, OperatorBundle
from dominion.core import unlimited_int_digits

settings.register_profile("tier1", derandomize=True, database=None, max_examples=50, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def gap_pair():
    return unit_gap_pair()


@pytest.fixture
def two_point():
    return MeasureSpace((1, 1))


def exact_unit_sphere_points(space: MeasureSpace, rng: Random, count: int) -> list[L1Vector]:
    """Exact norm-one vectors: signed convex combinations of the unit ball's
    vertices, so every sampled ratio comparison is exact."""
    points = []
    n = space.n
    for _ in range(count):
        raw = [Fraction(rng.randint(0, 12), rng.randint(1, 12)) for _ in range(n)]
        total = sum(raw)
        if total == 0:
            raw[rng.randrange(n)] = Fraction(1)
            total = Fraction(1)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        coords = tuple(
            sign * (lam / total) / weight
            for sign, lam, weight in zip(signs, raw, space.weights)
        )
        points.append(L1Vector(space, coords))
    return points


def modulus_sup_oracle(a: MatrixOperator, x: L1Vector) -> L1Vector:
    """Defining supremum of the modulus: coordinatewise maximum of A y over
    the extreme points y of the order interval [-x, x]."""
    assert all(c >= 0 for c in x.coords)
    best = None
    for signs in itertools.product((1, -1), repeat=a.space.n):
        y = L1Vector(a.space, tuple(s * c for s, c in zip(signs, x.coords)))
        image = a @ y
        best = image if best is None else best.join(image)
    return best


def sup_preserving_on_vertices(z: MatrixOperator) -> bool:
    """Behavioral sup-preservation check over all pairs of signed vertices."""
    space = z.space
    vertices = [
        space.vertex(j, negative)
        for j in range(space.n)
        for negative in (False, True)
    ]
    return all(
        z @ x.join(y) == (z @ x).join(z @ y)
        for x in vertices
        for y in vertices
    )


def noncommuting_t_pairs(space: MeasureSpace) -> tuple[DominatedPair, DominatedPair]:
    """Two dominated pairs on a two-point space: S_1 = S_2 the uniform
    averaging map, T_1 = [[1/2, 0], [0, 0]] and T_2 = [[0, 0], [1/2, 0]], so
    that T_1 T_2 = 0 != T_2 T_1."""
    average = MatrixOperator(space, (("1/2", "1/2"), ("1/2", "1/2")))
    t1 = MatrixOperator(space, (("1/2", 0), (0, 0)))
    t2 = MatrixOperator(space, ((0, 0), ("1/2", 0)))
    return DominatedPair(s=average, t=t1), DominatedPair(s=average, t=t2)


def random_vector(space: MeasureSpace, rng: Random, bound: int = 2) -> L1Vector:
    coords = tuple(
        Fraction(rng.randint(-bound * 8, bound * 8), rng.randint(1, 8))
        for _ in range(space.n)
    )
    return L1Vector(space, coords)


# -- Fraction reference for MatrixOperator ----------------------------------
# Matrices are tuples of Fraction rows, combined entry by entry with one
# Fraction operation per step: the arithmetic the integer kernel replaces.

Rows = tuple[tuple[Fraction, ...], ...]


def ref_compose(a: Rows, b: Rows) -> Rows:
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


def ref_power(a: Rows, exponent: int) -> Rows:
    """Repeated multiplication, independent of the kernel's square-and-multiply."""
    n = len(a)
    result = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    for _ in range(exponent):
        result = ref_compose(result, a)
    return result


def ref_norm(weights: tuple[Fraction, ...], a: Rows) -> Fraction:
    """Largest weighted column sum relative to its own weight."""
    n = len(a)
    return max(
        sum((weights[i] * abs(a[i][j]) for i in range(n)), Fraction(0)) / weights[j]
        for j in range(n)
    )


def ref_adjoint(weights: tuple[Fraction, ...], a: Rows) -> Rows:
    """The weighted adjoint acting on the dual (sup-norm) side: entry
    ``(j, i)`` is ``mu_i * A_ij / mu_j``."""
    n = len(a)
    return tuple(
        tuple(weights[i] * a[i][j] / weights[j] for i in range(n)) for j in range(n)
    )


def ref_dual_row_sum(weights: tuple[Fraction, ...], a: Rows) -> Fraction:
    """Largest absolute row sum of the weighted adjoint, the induced sup-norm
    on the dual side, which equals the L1 operator norm by duality."""
    return max(sum((abs(x) for x in row), Fraction(0)) for row in ref_adjoint(weights, a))


def _entrywise(op, a: Rows, b: Rows) -> Rows:
    return tuple(tuple(op(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def ref_add(a: Rows, b: Rows) -> Rows:
    return _entrywise(operator.add, a, b)


def ref_sub(a: Rows, b: Rows) -> Rows:
    return _entrywise(operator.sub, a, b)


def ref_meet(a: Rows, b: Rows) -> Rows:
    return _entrywise(min, a, b)


def ref_abs(a: Rows) -> Rows:
    return tuple(tuple(abs(x) for x in row) for row in a)


def ref_identity(n: int) -> Rows:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def ref_grid_gaps(
    weights: tuple[Fraction, ...],
    s_factors: list[Rows],
    t_factors: list[Rows],
    n0s: tuple[int, ...],
    m_max: tuple[int, ...],
) -> list[tuple[tuple[int, ...], Fraction]]:
    """Gap norm |S_1^(n_1)...S_k^(n_k) - T_1^(n_1)...T_k^(n_k)| at every grid
    point in ``itertools.product`` order, each product built from scratch."""
    n = len(weights)
    gaps = []
    for exponents in itertools.product(*(range(n0, m + 1) for n0, m in zip(n0s, m_max))):
        s_prod = t_prod = ref_identity(n)
        for s, t, e in zip(s_factors, t_factors, exponents):
            s_prod = ref_compose(s_prod, ref_power(s, e))
            t_prod = ref_compose(t_prod, ref_power(t, e))
        gaps.append((exponents, ref_norm(weights, ref_sub(s_prod, t_prod))))
    return gaps


def matrix_grid_gaps(
    s_factors: list[MatrixOperator],
    t_factors: list[MatrixOperator],
    n0s: tuple[int, ...],
    m_max: tuple[int, ...],
) -> list[tuple[tuple[int, ...], Fraction]]:
    """Gap norm at every grid point in ``itertools.product`` order, each
    product composed from a table of ``MatrixOperator`` powers and measured
    with ``distance``: the matrix walk the support walk replaces, with no
    positivity assumed, at a cost that allows workload-scale grids."""

    def powers(op: MatrixOperator, top: int) -> list[MatrixOperator]:
        table = [MatrixOperator.identity(op.space)]
        for _ in range(top):
            table.append(table[-1] @ op)
        return table

    s_powers = [powers(s, m) for s, m in zip(s_factors, m_max)]
    t_powers = [powers(t, m) for t, m in zip(t_factors, m_max)]
    gaps = []
    for exponents in itertools.product(*(range(n0, m + 1) for n0, m in zip(n0s, m_max))):
        s_prod = functools.reduce(operator.matmul, (p[e] for p, e in zip(s_powers, exponents)))
        t_prod = functools.reduce(operator.matmul, (p[e] for p, e in zip(t_powers, exponents)))
        gaps.append((exponents, s_prod.distance(t_prod)))
    return gaps


def column_stochastic(weights: tuple[Fraction, ...], parts: list[list[int]]) -> Rows:
    """Rows of the positive operator that moves the share
    ``parts[j][i] / sum(parts[j])`` of column j's mass ``w_j`` to point i.
    So ``w^T S = w^T`` exactly: every column keeps its full mass, and so
    does every product of such operators."""
    n = len(weights)
    return tuple(
        tuple(Fraction(parts[j][i], sum(parts[j])) * weights[j] / weights[i] for j in range(n))
        for i in range(n)
    )


# -- Fraction-entry reference for the random generators ------------------------
# The construction the generators used before they drew integer numerators:
# every entry a reduced Fraction, combined by Fraction arithmetic. Each
# function replays the generator's calls on ``Random(seed)`` in the same
# order and returns the space weights and the operators' rows.


def ref_random_rational(rng: Random, cap: int) -> Fraction:
    den = rng.randint(1, cap)
    return Fraction(rng.randint(0, den), den)


def ref_random_space(rng: Random, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(n))


def ref_positive_contraction(
    rng: Random, weights: tuple[Fraction, ...], density: float, cap: int
) -> Rows:
    """Column j gets masses c_i summing to at most a drawn D_j; entry
    (i, j) is mu_j * c_i / (D_j * mu_i)."""
    n = len(weights)
    columns = []
    for j in range(n):
        den = rng.randint(max(2, cap // 2), cap)
        masses = [rng.randint(0, den) if rng.random() < density else 0 for _ in range(n)]
        total = sum(masses)
        if total > den:
            masses = [c * den // total for c in masses]
        columns.append([weights[j] * Fraction(c, den) / weights[i] for i, c in enumerate(masses)])
    return tuple(tuple(columns[j][i] for j in range(n)) for i in range(n))


def ref_random_positive_contraction(seed: int, n: int, density: float, cap: int):
    rng = Random(seed)
    weights = ref_random_space(rng, n)
    return weights, ref_positive_contraction(rng, weights, density, cap)


def ref_random_signed_operator(seed: int, n: int, cap: int):
    rng = Random(seed)
    weights = ref_random_space(rng, n)
    rows = tuple(
        tuple((1 if rng.random() < 0.5 else -1) * ref_random_rational(rng, cap) for _ in range(n))
        for _ in range(n)
    )
    return weights, rows


def ref_random_dominated_pair(seed: int, n: int, density: float, cap: int):
    """Weights and ``(S, T)`` rows, T the entrywise damping of S."""
    rng = Random(seed)
    weights = ref_random_space(rng, n)
    s = ref_positive_contraction(rng, weights, density, cap)
    damping = tuple(tuple(ref_random_rational(rng, cap) for _ in range(n)) for _ in range(n))
    return weights, (s, _entrywise(operator.mul, s, damping))


def ref_random_commuting_family(seed: int, n_pairs: int, n: int, degree: int, cap: int):
    """Weights and the ``(S_i, T_i)`` rows: polynomials in one drawn base,
    with damped coefficients for T_i, both divided by |S_i| when it
    exceeds one."""
    rng = Random(seed)
    weights = ref_random_space(rng, n)
    base = ref_positive_contraction(rng, weights, 1.0, cap)
    base_powers = [ref_power(base, k) for k in range(degree + 1)]

    def polynomial(coeffs: list[Fraction]) -> Rows:
        acc = ((Fraction(0),) * n,) * n
        for c, bp in zip(coeffs, base_powers):
            acc = ref_add(acc, tuple(tuple(c * q for q in row) for row in bp))
        return acc

    pairs = []
    for _ in range(n_pairs):
        coeffs = [ref_random_rational(rng, cap) for _ in range(degree + 1)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = Fraction(1, 2)
        damped = [c * ref_random_rational(rng, cap) for c in coeffs]
        s, t = polynomial(coeffs), polynomial(damped)
        s_norm = ref_norm(weights, s)
        if s_norm > 1:
            s = tuple(tuple(q / s_norm for q in row) for row in s)
            t = tuple(tuple(q / s_norm for q in row) for row in t)
        pairs.append((s, t))
    return weights, tuple(pairs)


def ref_zero_two_trace(
    z: MatrixOperator, t: MatrixOperator, k: int, d: int, n_max: int
) -> tuple[tuple[int, Fraction], ...]:
    """Records ``(n, a_n)`` of a_n = |Z^d (T^(n+k) - T^n)| for n = 0..n_max:
    one ``MatrixOperator`` product ``t @ current`` per step, each measured
    by ``ref_norm`` on its ``Fraction`` entries."""
    current = (z**d) @ (t**k - MatrixOperator.identity(t.space))
    norms = [ref_norm(t.space.weights, current.entries)]
    for _ in range(n_max):
        current = t @ current
        norms.append(ref_norm(t.space.weights, current.entries))
    return tuple(enumerate(norms))


def ref_decimal_str(q: Fraction) -> str:
    """The 12-significant-digit display decimal, as ``Decimal`` division of
    the full numerator by the full denominator."""
    with localcontext() as ctx:
        ctx.prec = 12
        value = Decimal(q.numerator) / Decimal(q.denominator)
    return str(value)


def ref_certificate_scan(
    weights: tuple[Fraction, ...],
    z: Rows,
    t: Rows,
    k: int,
    epsilon: Fraction,
    d_cap: int,
    n0_cap: int,
) -> tuple[tuple[int, int] | None, Fraction | None]:
    """The linear certificate scan: for d = 1..d_cap in order, the first
    n <= n0_cap with a_n = |Z^d (T^(n+k) - T^n)| < epsilon, one more factor
    of T per step. Returns ``((d, n), a_n)``, or ``(None, None)`` when the
    caps run out."""
    gap = ref_sub(ref_power(t, k), ref_identity(len(weights)))
    for d in range(1, d_cap + 1):
        current = ref_compose(ref_power(z, d), gap)
        for n in range(n0_cap + 1):
            if n:
                current = ref_compose(t, current)
            norm = ref_norm(weights, current)
            if norm < epsilon:
                return (d, n), norm
    return None, None


# -- oracles for the weighted 2-norm ------------------------------------------


def ref_det(a: Rows) -> Fraction:
    """Laplace expansion along the first row."""
    if not a:
        return Fraction(1)
    return sum(
        (
            (-1) ** j * a[0][j] * ref_det(tuple(row[:j] + row[j + 1:] for row in a[1:]))
            for j in range(len(a))
        ),
        Fraction(0),
    )


def ref_l2_compare(weights: tuple[Fraction, ...], a: Rows, c: Fraction) -> int:
    """Sign of ``|A|_2 - c`` from the minors of ``G = c^2 M - A^T M A``,
    ``M = diag(weights)``: ``G`` is positive definite iff its leading
    principal minors are positive (Sylvester), and positive semidefinite iff
    all its principal minors are nonnegative."""
    n = len(a)
    g = tuple(
        tuple(
            (c * c * weights[i] if i == j else 0)
            - sum((weights[k] * a[k][i] * a[k][j] for k in range(n)), Fraction(0))
            for j in range(n)
        )
        for i in range(n)
    )

    def minor(indices) -> Fraction:
        return ref_det(tuple(tuple(g[i][j] for j in indices) for i in indices))

    if all(minor(range(m)) > 0 for m in range(1, n + 1)):
        return -1
    subsets = (s for m in range(1, n + 1) for s in itertools.combinations(range(n), m))
    return 0 if all(minor(s) >= 0 for s in subsets) else 1


def sigma_max_uniform_2x2(a: MatrixOperator) -> float:
    """Largest singular value of a 2x2 operator on a uniform-weight space,
    computed from the characteristic polynomial of the exact Gram matrix.

    On uniform weights the weighted 2-norm ratio reduces to the Euclidean
    one, so this is a closed-form floating-point oracle for the p = 2
    operator norm.
    """
    if a.space.n != 2:
        raise ValueError("the Gram polynomial oracle is for two-point spaces")
    if len(set(a.space.weights)) != 1:
        raise ValueError("the Gram polynomial oracle needs uniform weights")
    (p, q_), (r, s) = a.entries
    g11 = p * p + r * r
    g12 = p * q_ + r * s
    g22 = q_ * q_ + s * s
    trace = g11 + g22
    det = g11 * g22 - g12 * g12
    disc = trace * trace - 4 * det
    lam_max = (float(trace) + math.sqrt(float(disc))) / 2.0
    return math.sqrt(lam_max)


_REF_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _ref_reject_float(text: str) -> None:
    raise BundleError(f"decimal literal {text!r} is not allowed; use an exact \"p/q\" string")


class _RefObject(dict):
    duplicate: str | None = None


def _ref_object(pairs: list[tuple[str, object]]) -> _RefObject:
    obj = _RefObject(pairs)
    keys = [key for key, _ in pairs]
    obj.duplicate = next((key for i, key in enumerate(keys) if key in keys[:i]), None)
    return obj


def _ref_reject_duplicate_keys(node: object, where: str) -> None:
    if isinstance(node, _RefObject):
        prefix = f"{where}." if where else ""
        if node.duplicate is not None:
            raise BundleError(f"{prefix}{node.duplicate}: duplicate key")
        for key, value in node.items():
            _ref_reject_duplicate_keys(value, prefix + key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _ref_reject_duplicate_keys(value, f"{where}[{i}]")


def _ref_is_int(raw: object) -> bool:
    return isinstance(raw, int) and not isinstance(raw, bool)


def _ref_is_rational(raw: object) -> bool:
    return _ref_is_int(raw) or (isinstance(raw, str) and _REF_RATIONAL.fullmatch(raw) is not None)


def _ref_rational(raw: object, where: str) -> Fraction:
    if not _ref_is_rational(raw):
        raise BundleError(f"{where}: expected an integer or a \"p/q\" string, got {raw!r}")
    try:
        return Fraction(raw)
    except ZeroDivisionError:
        raise BundleError(f"{where}: expected a rational p/q with q != 0, got {raw!r}") from None


@unlimited_int_digits
def ref_parse_bundle(text: str) -> OperatorBundle:
    try:
        doc = json.loads(text, parse_float=_ref_reject_float, object_pairs_hook=_ref_object)
    except json.JSONDecodeError as exc:
        raise BundleError(f"not valid JSON: {exc}") from None
    _ref_reject_duplicate_keys(doc, "")
    if not isinstance(doc, dict):
        raise BundleError("top level: expected an object")

    space_doc = doc.get("space")
    if not isinstance(space_doc, dict) or "weights" not in space_doc:
        raise BundleError("space.weights: missing")
    weights_raw = space_doc["weights"]
    if not isinstance(weights_raw, list) or not weights_raw:
        raise BundleError("space.weights: expected a non-empty list")
    weights = tuple(_ref_rational(w, f"space.weights[{i}]") for i, w in enumerate(weights_raw))
    try:
        space = MeasureSpace(weights)
    except ValueError as exc:
        raise BundleError(f"space.weights: {exc}") from None

    operators_doc = doc.get("operators", {})
    if not isinstance(operators_doc, dict):
        raise BundleError("operators: expected an object")
    operators = {}
    for name, op_doc in operators_doc.items():
        where = f"operators.{name}"
        if not isinstance(op_doc, dict) or "rows" not in op_doc:
            raise BundleError(f"{where}.rows: missing")
        rows_raw = op_doc["rows"]
        if not isinstance(rows_raw, list) or len(rows_raw) != space.n:
            raise BundleError(f"{where}.rows: expected {space.n} rows")
        rows = []
        for i, row_raw in enumerate(rows_raw):
            if not isinstance(row_raw, list) or len(row_raw) != space.n:
                raise BundleError(f"{where}.rows[{i}]: expected {space.n} entries")
            rows.append(tuple(_ref_rational(q, f"{where}.rows[{i}][{j}]") for j, q in enumerate(row_raw)))
        operators[name] = MatrixOperator(space, tuple(rows))

    roles_doc = doc.get("roles", {})
    if not isinstance(roles_doc, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in roles_doc.items()
    ):
        raise BundleError("roles: expected an object of strings")
    for role, name in roles_doc.items():
        if name not in operators:
            raise BundleError(f"roles.{role}: names unknown operator {name!r}")

    params_doc = doc.get("params", {})
    if not isinstance(params_doc, dict):
        raise BundleError("params: expected an object")
    for key, value in params_doc.items():
        if _ref_is_rational(value):
            _ref_rational(value, f"params.{key}")
            continue
        if isinstance(value, list) and all(_ref_is_int(v) for v in value):
            continue
        raise BundleError(f"params.{key}: expected an integer, rational string, or integer list")

    return OperatorBundle(space=space, operators=operators, roles=dict(roles_doc), params=dict(params_doc))
