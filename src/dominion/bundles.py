"""Operator bundle files: JSON documents whose numbers are exact.

Schema (rationals are ``"p/q"`` strings, never decimals):

    {
      "space":     {"weights": ["1/1", "1/1"]},
      "operators": {"S": {"rows": [["1/2", "1/3"], ["1/2", "1/3"]]}},
      "roles":     {"S": "S", "T": "T"},
      "params":    {"n0": 2, "epsilon": "1/100"}
    }

``roles`` maps a role name (Z, S, T, S1, T1, ...) to an operator name and
is optional; an operator whose name equals the role serves as a fallback.
``params`` values are integers, rational strings, or lists of integers.
A rational string must match ``-?[0-9]+(/[0-9]+)?`` exactly; JSON integers
are accepted where a rational is expected, booleans are not. Other strings
and duplicated object keys are rejected with their location, and
floating-point literals outright, so exactness survives every round trip;
parsing an emitted bundle reproduces it field-exactly.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction

from .core import MatrixOperator, MeasureSpace, rat, unlimited_int_digits
from .theorems import CommutingFamily, DominatedPair

__all__ = [
    "BundleError",
    "OperatorBundle",
    "rational_str",
    "decimal_str",
    "parse_bundle",
    "emit_bundle",
    "load_bundle",
    "save_bundle",
    "bundle_for_pair",
    "bundle_for_family",
    "bundle_for_damped",
]


class BundleError(ValueError):
    """Malformed bundle input, with a location diagnostic."""


@unlimited_int_digits
def rational_str(q: Fraction) -> str:
    """Canonical rational rendering, always with an explicit denominator."""
    return f"{q.numerator}/{q.denominator}"


def decimal_str(q: Fraction) -> str:
    """Display-only 12-significant-digit decimal of ``q = num/den``, in linear time.

    ``s`` (30102 < 10**5 log10 2 < 30103) makes the floor quotient ``quo`` of
    ``divmod(num * 10**s, den)`` 13+ digits long, so 12-digit values and their
    half-points are integers at that scale. The proxy ``10*quo + (rem != 0)``
    over ``10**(s+1)`` is ``q`` if ``rem == 0``; else it and ``q`` lie strictly
    between ``quo`` and ``quo + 1`` (over ``10**s``) and round alike. Integer
    operands keep the ideal exponent 0: the string of ``Decimal(num) / Decimal(den)``.
    """
    e = q.denominator.bit_length() + 1 - q.numerator.bit_length()  # den / |num| < 2**e
    s = max(0, 12 - (-e * (30103 if e > 0 else 30102)) // 100000)  # 10**s >= 10**12 * 2**e
    quo, rem = divmod(q.numerator * 10**s, q.denominator)
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(10 * quo + (rem != 0)) / Decimal(10 ** (s + 1)))


@dataclass(frozen=True)
class OperatorBundle:
    """Parsed bundle: a space, named operators on it, optional roles and
    parameters."""

    space: MeasureSpace
    operators: dict[str, MatrixOperator]
    roles: dict[str, str] = field(default_factory=dict)
    params: dict[str, object] = field(default_factory=dict)

    def operator_for_role(self, role: str) -> MatrixOperator:
        name = self.roles.get(role, role)
        try:
            return self.operators[name]
        except KeyError:
            available = ", ".join(sorted(self.operators)) or "none"
            raise BundleError(
                f"no operator fills role {role!r} (operators present: {available})"
            ) from None

    def has_role(self, role: str) -> bool:
        return self.roles.get(role, role) in self.operators

    def param_int(self, name: str, default: int | None = None) -> int | None:
        value = self.params.get(name, default)
        if value is None or isinstance(value, int):
            return value
        raise BundleError(f"params.{name}: expected an integer, got {value!r}")

    def param_rational(self, name: str, default: Fraction | None = None) -> Fraction | None:
        value = self.params.get(name)
        if value is None:
            return default
        if isinstance(value, (int, str)):
            try:
                return rat(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise BundleError(f"params.{name}: {exc}") from None
        raise BundleError(f"params.{name}: expected a rational, got {value!r}")

    def param_int_list(self, name: str, default: tuple[int, ...] | None = None) -> tuple[int, ...] | None:
        value = self.params.get(name)
        if value is None:
            return default
        if isinstance(value, int):
            return (value,)
        if isinstance(value, list) and all(isinstance(v, int) for v in value):
            return tuple(value)
        raise BundleError(f"params.{name}: expected an integer list, got {value!r}")


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _reject_float(text: str) -> None:
    raise BundleError(
        f"decimal literal {text!r} is not allowed; use an exact \"p/q\" string"
    )


class _Object(dict):
    """A decoded JSON object; ``duplicate`` names a key it held twice."""

    duplicate: str | None = None


def _object(pairs: list[tuple[str, object]]) -> _Object:
    obj = _Object(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                obj.duplicate = key
                break
            seen.add(key)
    return obj


def _reject_duplicate_keys(node: object, where: str) -> None:
    if isinstance(node, _Object):
        prefix = f"{where}." if where else ""
        if node.duplicate is not None:
            raise BundleError(f"{prefix}{node.duplicate}: duplicate key")
        for key, value in node.items():
            _reject_duplicate_keys(value, prefix + key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _reject_duplicate_keys(value, f"{where}[{i}]")


def _is_int(raw: object) -> bool:
    return isinstance(raw, int) and not isinstance(raw, bool)


def _is_rational(raw: object) -> bool:
    """A JSON integer, or a string in the rational grammar."""
    return _is_int(raw) or (isinstance(raw, str) and _RATIONAL.fullmatch(raw) is not None)


def _parse_rational(raw: object, where: str) -> Fraction:
    if not _is_rational(raw):
        raise BundleError(f"{where}: expected an integer or a \"p/q\" string, got {raw!r}")
    try:
        value = rat(raw)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise BundleError(f"{where}: {exc}") from None
    return value


@unlimited_int_digits
def parse_bundle(text: str) -> OperatorBundle:
    try:
        doc = json.loads(text, parse_float=_reject_float, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise BundleError(f"not valid JSON: {exc}") from None
    _reject_duplicate_keys(doc, "")
    if not isinstance(doc, dict):
        raise BundleError("top level: expected an object")

    space_doc = doc.get("space")
    if not isinstance(space_doc, dict) or "weights" not in space_doc:
        raise BundleError("space.weights: missing")
    weights_raw = space_doc["weights"]
    if not isinstance(weights_raw, list) or not weights_raw:
        raise BundleError("space.weights: expected a non-empty list")
    weights = tuple(
        _parse_rational(w, f"space.weights[{i}]") for i, w in enumerate(weights_raw)
    )
    try:
        space = MeasureSpace(weights)
    except ValueError as exc:
        raise BundleError(f"space.weights: {exc}") from None

    operators_doc = doc.get("operators", {})
    if not isinstance(operators_doc, dict):
        raise BundleError("operators: expected an object")
    operators: dict[str, MatrixOperator] = {}
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
            rows.append(tuple(
                _parse_rational(q, f"{where}.rows[{i}][{j}]")
                for j, q in enumerate(row_raw)
            ))
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
        if _is_rational(value):
            continue
        if isinstance(value, list) and all(_is_int(v) for v in value):
            continue
        raise BundleError(
            f"params.{key}: expected an integer, rational string, or integer list"
        )

    return OperatorBundle(
        space=space,
        operators=operators,
        roles=dict(roles_doc),
        params=dict(params_doc),
    )


@unlimited_int_digits
def emit_bundle(bundle: OperatorBundle) -> str:
    doc = {
        "space": {"weights": [rational_str(w) for w in bundle.space.weights]},
        "operators": {
            name: {"rows": [[rational_str(q) for q in row] for row in op.entries]}
            for name, op in bundle.operators.items()
        },
        "roles": dict(bundle.roles),
        "params": dict(bundle.params),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_bundle(path: str) -> OperatorBundle:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise BundleError(f"cannot read {path}: {exc}") from None
    return parse_bundle(text)


def save_bundle(bundle: OperatorBundle, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(emit_bundle(bundle))


# -- builders used by sweeps and the example command ---------------------------


def _bundle(operators: dict[str, MatrixOperator], params: dict | None) -> OperatorBundle:
    """A bundle on the first operator's space whose operators each fill the
    role of their own name."""
    space = next(iter(operators.values())).space
    return OperatorBundle(space, operators, {name: name for name in operators}, dict(params or {}))


def bundle_for_pair(pair: DominatedPair, params: dict | None = None) -> OperatorBundle:
    return _bundle({"S": pair.s, "T": pair.t}, params)


def bundle_for_family(family: CommutingFamily, params: dict | None = None) -> OperatorBundle:
    operators: dict[str, MatrixOperator] = {}
    for i, pair in enumerate(family.pairs, start=1):
        operators[f"S{i}"] = pair.s
        operators[f"T{i}"] = pair.t
    return _bundle(operators, {"n0": list(family.base_exponents), **(params or {})})


def bundle_for_damped(
    z: MatrixOperator,
    t: MatrixOperator,
    params: dict | None = None,
    s: MatrixOperator | None = None,
) -> OperatorBundle:
    operators = {"T": t, "Z": z}
    if s is not None:
        operators["S"] = s
    return _bundle(operators, params)
