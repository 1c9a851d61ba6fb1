"""Command line front end.

Exit codes: 0 verified, 1 falsified, 2 hypothesis unmet (also certificate
search exhaustion, which makes no claim either way), 3 input error.

Exact values grow past CPython's default limit of 4300 digits for
converting integers to and from strings (a trace at a high power, say).
``main`` lifts that limit while it runs (``core.unlimited_int_digits``)
and restores the caller's setting on return, so no valid input fails on
the size of its exact results.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import re
import sys
from fractions import Fraction

from .bundles import (
    BundleError,
    OperatorBundle,
    bundle_for_damped,
    bundle_for_family,
    bundle_for_pair,
    decimal_str,
    emit_bundle,
    load_bundle,
    rational_str,
    save_bundle,
)
from .core import MatrixOperator, compare_l2_norm, unlimited_int_digits
from .gallery import p_norm_gap_pair, shear_trio, unit_gap_pair
from .sweeps import (
    sweep_dominated_powers,
    sweep_meet_bound,
    sweep_pair_product,
)
from .theorems import (
    CommutingFamily,
    DominatedPair,
    GridCapExceeded,
    HypothesisViolation,
    Verdict,
    VerdictReport,
    check_damped_powers,
    check_family_grid,
    check_meet_bound,
    check_pair_product,
    find_epsilon_certificate,
    zero_two_trace,
)

EXIT_VERIFIED = 0
EXIT_FALSIFIED = 1
EXIT_HYPOTHESIS_UNMET = 2
EXIT_INPUT_ERROR = 3

_VERDICT_EXIT = {
    Verdict.VERIFIED: EXIT_VERIFIED,
    Verdict.FALSIFIED: EXIT_FALSIFIED,
    Verdict.HYPOTHESIS_UNMET: EXIT_HYPOTHESIS_UNMET,
    Verdict.EXHAUSTED: EXIT_HYPOTHESIS_UNMET,
}


class CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags by default, which collides
    # with the hypothesis-unmet code; route everything through exit 3.
    def error(self, message):
        raise CliInputError(f"{self.prog}: {message}")


def _fmt(q: Fraction) -> str:
    return f"{rational_str(q)} ({decimal_str(q)})"


def _print_hypotheses(hypotheses) -> None:
    for h in hypotheses:
        mark = "ok  " if h.holds else "FAIL"
        suffix = f"   {h.detail}" if h.detail else ""
        print(f"  [{mark}] {h.name}{suffix}")


def _print_report(report: VerdictReport) -> None:
    print(f"command: {report.command}")
    print("hypotheses:")
    _print_hypotheses(report.hypotheses)
    if report.ranges:
        spans = ", ".join(f"{lo}..{hi}" for lo, hi in report.ranges)
        print(f"conclusion range: {spans}")
    if report.guarantee:
        print(f"guarantee: {report.guarantee}")
    for label, value in report.values:
        print(f"{label}: {_fmt(value)}")
    if report.failure_point is not None:
        point = ", ".join(str(i) for i in report.failure_point)
        print(f"failure at ({point}) with norm {_fmt(report.failure_norm)}")
    for note in report.notes:
        print(f"note: {note}")
    print(f"verdict: {report.verdict.value}")


def _report_json(report: VerdictReport) -> str:
    doc = {
        "command": report.command,
        "hypotheses": [
            {"name": h.name, "holds": h.holds, "detail": h.detail}
            for h in report.hypotheses
        ],
        "ranges": [list(span) for span in report.ranges],
        "guarantee": report.guarantee,
        "values": {label: rational_str(value) for label, value in report.values},
        "failure_point": list(report.failure_point) if report.failure_point else None,
        "failure_norm": rational_str(report.failure_norm) if report.failure_norm is not None else None,
        "notes": list(report.notes),
        "verdict": report.verdict.value,
    }
    return json.dumps(doc, indent=2)


def _family_from_bundle(args, bundle: OperatorBundle) -> CommutingFamily:
    pairs = []
    index = 1
    # S_i without T_i (or the reverse) fails in operator_for_role, naming it.
    while bundle.has_role(f"S{index}") or bundle.has_role(f"T{index}"):
        pairs.append(DominatedPair(
            s=bundle.operator_for_role(f"S{index}"),
            t=bundle.operator_for_role(f"T{index}"),
        ))
        index += 1
    if not pairs:
        raise BundleError("family-grid needs roles S1/T1 (and onward)")
    # The walk stops at the first gap in numbering; a role past it (or an
    # S0) would be silently left out, so it fails, naming it.
    read = {f"{side}{i}" for side in "ST" for i in range(1, index)}
    for name in sorted({*bundle.roles, *bundle.operators}):
        if re.fullmatch(r"[ST][0-9]+", name) and name not in read:
            raise BundleError(
                f"role {name!r} is outside the pairs family-grid reads: "
                f"S<i>/T<i> for i = 1..{index - 1}, numbered without gaps"
            )
    n0s = _base_exponents(args, bundle, len(pairs))
    return CommutingFamily(pairs=tuple(pairs), base_exponents=n0s)


def _base_exponents(args, bundle: OperatorBundle, axes: int) -> tuple[int, ...]:
    """One first exponent per axis: ``--n0`` if given, else ``params.n0``,
    else 1. A single value is broadcast to every axis."""
    if args.n0 is not None:
        where, n0s = "--n0", _parse_axis_list(args.n0, axes, "--n0")
    else:
        where = "params.n0"
        n0s = _broadcast(bundle.param_int_list("n0", (1,)), axes, where)
    if min(n0s) < 1:
        raise CliInputError(f"{where}: n0 must be >= 1, got {', '.join(map(str, n0s))}")
    return n0s


def _parse_axis_list(raw: str, axes: int, flag: str) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    try:
        values = tuple(int(p) for p in parts)
    except ValueError:
        raise CliInputError(f"{flag}: expected integers, got {raw!r}") from None
    return _broadcast(values, axes, flag)


def _broadcast(values: tuple[int, ...], axes: int, where: str) -> tuple[int, ...]:
    if len(values) == 1:
        values = values * axes
    if len(values) != axes:
        raise CliInputError(f"{where}: expected {axes} values, got {len(values)}")
    return values


def _setting(args, bundle: OperatorBundle, name: str, default, read=OperatorBundle.param_int):
    """Flag ``--name`` if given, else the bundle's ``params[name]``, else ``default``."""
    value = getattr(args, name)
    return read(bundle, name, default) if value is None else value


def _reject_unread(args, statement: str, names: tuple[str, ...]) -> None:
    """A flag that the statement never reads is an input error, not a no-op."""
    for name in names:
        if getattr(args, name) is not None:
            flag = "--" + name.replace("_", "-")
            raise CliInputError(f"{flag}: {statement} does not read this flag")


def _identity_or_role(bundle: OperatorBundle, role: str) -> MatrixOperator:
    if bundle.has_role(role):
        return bundle.operator_for_role(role)
    return MatrixOperator.identity(bundle.space)


# -- commands -------------------------------------------------------------------


def _cmd_check(args) -> int:
    unread = ("n0", "n_max") if args.statement == "meet-bound" else ("m", "k")
    _reject_unread(args, f"check {args.statement}", unread)
    bundle = load_bundle(args.bundle)
    if args.statement in ("pair-product", "damped-powers"):
        (n0,) = _base_exponents(args, bundle, 1)
        n_max = _n_max_int(args, max(n0, 20))
    if args.statement == "pair-product":
        report = check_pair_product(
            bundle.operator_for_role("T1"),
            bundle.operator_for_role("T2"),
            bundle.operator_for_role("S1"),
            bundle.operator_for_role("S2"),
            n0,
            n_max,
        )
    elif args.statement == "damped-powers":
        report = check_damped_powers(
            _identity_or_role(bundle, "Z"),
            bundle.operator_for_role("S"),
            bundle.operator_for_role("T"),
            n0,
            n_max,
        )
    elif args.statement == "family-grid":
        family = _family_from_bundle(args, bundle)
        if args.n_max is not None:
            m_max = _parse_axis_list(args.n_max, family.size, "--n-max")
        else:
            m_max = tuple(n0 + 5 for n0 in family.base_exponents)
        report = check_family_grid(family, m_max)
    else:  # meet-bound
        report = check_meet_bound(
            _identity_or_role(bundle, "Z"),
            bundle.operator_for_role("T"),
            _setting(args, bundle, "m", 0),
            _setting(args, bundle, "k", 1),
        )
    if args.json:
        print(_report_json(report))
    else:
        _print_report(report)
    return _VERDICT_EXIT[report.verdict]


def _cmd_trace(args) -> int:
    bundle = load_bundle(args.bundle)
    trace = zero_two_trace(
        _identity_or_role(bundle, "Z"),
        bundle.operator_for_role("T"),
        _setting(args, bundle, "k", 1),
        _setting(args, bundle, "d", 1),
        _n_max_int(args, 20),
    )
    rows = (f"{n},{rational_str(a)},{decimal_str(a)}\n" for n, a in trace.records)
    rows = itertools.chain(("n,norm_exact,norm_decimal\n",), rows)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(rows)
        except OSError as exc:
            raise CliInputError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.writelines(rows)
    return EXIT_VERIFIED


def _check_line(label: str, expected: Fraction, computed: Fraction) -> bool:
    status = "MATCH" if expected == computed else "MISMATCH"
    print(f"{label}: expected {_fmt(expected)}, computed {_fmt(computed)}, {status}")
    return expected == computed


def _compare_line(label: str, expected: int, computed: int) -> bool:
    """Like ``_check_line`` for a norm decided against 1, given as the sign
    of ``norm - 1``."""
    symbol = {-1: "<", 0: "=", 1: ">"}
    status = "MATCH" if expected == computed else "MISMATCH"
    print(f"{label} vs 1: expected {symbol[expected]}, computed {symbol[computed]}, {status}")
    return expected == computed


def _cmd_example(args) -> int:
    shear = {"u": "1/2", "v": "1/2", "lambda": "1/4"}  # example 1's flags and defaults
    if args.which != "1":
        _reject_unread(args, f"example {args.which}", tuple(shear))
    ok = True
    # The regression lines go to stderr when stdout carries the bundle.
    with contextlib.redirect_stdout(sys.stdout if args.out else sys.stderr):
        if args.which == "1":
            trio = shear_trio(*(
                default if getattr(args, name) is None else getattr(args, name)
                for name, default in shear.items()
            ))
            params = {
                "u": rational_str(trio.u), "v": rational_str(trio.v), "lambda": rational_str(trio.lam)
            }
            bundle = bundle_for_damped(trio.z, trio.t, params=params, s=trio.s)
            ok &= _check_line("|Z|", trio.z_norm, trio.z.norm())
            ok &= _check_line("|S|", trio.s_norm, trio.s.norm())
            ok &= _check_line("|T|", trio.t_norm, trio.t.norm())
            ok &= _check_line(
                "|Z(S-T)|", trio.damped_gap_norm, (trio.z @ (trio.s - trio.t)).norm()
            )
        elif args.which == "2":
            pair = unit_gap_pair()
            bundle = OperatorBundle(
                space=pair.space,
                operators={"S": pair.s, "T": pair.t},
                roles={
                    "S": "S", "T": "T",
                    "S1": "S", "T1": "T", "S2": "S", "T2": "T",
                },
                params={},
            )
            gap = (pair.s - pair.t).norm()
            squared = (pair.s @ pair.s - pair.t @ pair.t).norm()
            ok &= _check_line("|S|", pair.s_norm, pair.s.norm())
            ok &= _check_line("|T|", pair.t_norm, pair.t.norm())
            ok &= _check_line("|S-T|", pair.gap_norm, gap)
            ok &= _check_line("|S^2-T^2|", pair.squared_gap_norm, squared)
        else:  # lp
            pair = p_norm_gap_pair()
            bundle = bundle_for_pair(DominatedPair(s=pair.s, t=pair.t))
            gap = compare_l2_norm(pair.s - pair.t, 1)
            squared = compare_l2_norm(pair.s @ pair.s - pair.t @ pair.t, 1)
            ok &= _compare_line("|S-T|_2", pair.gap_l2, gap)
            ok &= _compare_line("|S^2-T^2|_2", pair.squared_gap_l2, squared)
            ok &= _check_line("|S-T|_1 (contrast)", pair.gap_l1, (pair.s - pair.t).norm())
    if args.out:
        save_bundle(bundle, args.out)
    else:
        sys.stdout.write(emit_bundle(bundle))
    return EXIT_VERIFIED if ok else EXIT_FALSIFIED


def _dump_failure(kind: str, failure, out_dir: str | None) -> str:
    payload = failure.payload
    if isinstance(payload, DominatedPair):
        bundle = bundle_for_pair(payload)
    elif isinstance(payload, CommutingFamily):
        bundle = bundle_for_family(payload)
    else:
        z, t, m, k = payload
        bundle = bundle_for_damped(z, t, params={"m": m, "k": k})
    name = f"sweep-{kind}-seed{failure.seed}.bundle"
    if out_dir:
        name = f"{out_dir.rstrip('/')}/{name}"
    save_bundle(bundle, name)
    return name


def _cmd_sweep(args) -> int:
    if args.kind == "dominated-powers":
        result = sweep_dominated_powers(
            args.count,
            n=args.n,
            n_max=_n_max_int(args, 50),
            seed0=args.seed,
        )
    elif args.kind == "pair-product":
        result = sweep_pair_product(
            args.count,
            n=args.n,
            n_max=_n_max_int(args, 30),
            seed0=args.seed,
        )
    else:  # meet-bound
        _reject_unread(args, "sweep meet-bound", ("n_max",))
        result = sweep_meet_bound(args.count, n=args.n, seed0=args.seed)
    last_seed = args.seed + result.seeds_consumed - 1
    print(
        f"{result.kind} sweep: {result.passed}/{result.requested} passed "
        f"({result.skipped} premise-skipped, seeds {args.seed}..{last_seed})"
    )
    for failure in result.failures:
        line = f"FAILURE seed {failure.seed}: {failure.description}"
        # An unwritable replay bundle must not mask the FALSIFIED exit code.
        try:
            path = _dump_failure(result.kind, failure, args.out)
        except OSError as exc:
            print(line)
            print(f"error: replay bundle for seed {failure.seed} could not be written: {exc}",
                  file=sys.stderr)
        else:
            print(f"{line}; replay bundle: {path}")
    return EXIT_VERIFIED if result.ok else EXIT_FALSIFIED


def _cmd_certify(args) -> int:
    bundle = load_bundle(args.bundle)
    search = find_epsilon_certificate(
        _identity_or_role(bundle, "Z"),
        bundle.operator_for_role("T"),
        _setting(args, bundle, "m", 0),
        _setting(args, bundle, "k", 1),
        _setting(args, bundle, "epsilon", Fraction(1, 10), OperatorBundle.param_rational),
        d_cap=args.d_cap,
        n0_cap=args.n0_cap,
    )
    print(f"command: {search.command}")
    _print_hypotheses(search.hypotheses)
    if search.certificate is not None:
        d, n0 = search.certificate
        print(f"certificate: d = {d}, n0 = {n0}, norm there {_fmt(search.achieved_norm)}")
        print(f"guarantee: {search.guarantee}")
    elif search.verdict is Verdict.EXHAUSTED:
        print(f"exhausted caps d <= {search.d_cap}, n0 <= {search.n0_cap}; no claim made")
    print(f"verdict: {search.verdict.value}")
    return _VERDICT_EXIT[search.verdict]


# -- parser ----------------------------------------------------------------------


def _add_n_max(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-max", dest="n_max", default=None,
                        help="largest exponent checked (comma list for grids)")


def _n_max_int(args, default: int) -> int:
    if args.n_max is None:
        return default
    try:
        return int(args.n_max)
    except ValueError:
        raise CliInputError(f"--n-max: expected an integer, got {args.n_max!r}") from None


def _rational_flag(flag: str):
    """argparse ``type`` of a rational flag: a bad value is an input error
    that names the flag."""
    def parse(raw: str) -> Fraction:
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise CliInputError(f"{flag}: expected a rational p/q with q != 0, got {raw!r}") from None

    return parse


# argparse keeps no state between parse_args calls and every default is
# immutable, so one parser serves every main call of a process.
@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(
        prog="dominion",
        description=(
            "Exact verification of dominated positive contractions on "
            "finite weighted L1 spaces"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", parents=[], help="run a statement checker on a bundle")
    check.add_argument(
        "statement",
        choices=["pair-product", "damped-powers", "family-grid", "meet-bound"],
    )
    check.add_argument("bundle")
    check.add_argument("--n0", default=None,
                       help="first exponent (comma list for family-grid, one value broadcast)")
    _add_n_max(check)
    check.add_argument("--m", type=int, default=None)
    check.add_argument("--k", type=int, default=None)
    check.add_argument("--json", action="store_true", help="machine-readable report")
    check.set_defaults(func=_cmd_check)

    trace = sub.add_parser("trace", help="write the zero-two norm trace as CSV")
    trace.add_argument("bundle")
    trace.add_argument("--k", type=int, default=None)
    trace.add_argument("--d", type=int, default=None)
    _add_n_max(trace)
    trace.add_argument("--out", default=None)
    trace.set_defaults(func=_cmd_trace)

    example = sub.add_parser("example", help="emit a gallery bundle with its regression check")
    example.add_argument("which", choices=["1", "2", "lp"])
    example.add_argument("--u", type=_rational_flag("--u"), default=None)
    example.add_argument("--v", type=_rational_flag("--v"), default=None)
    example.add_argument("--lambda", type=_rational_flag("--lambda"), default=None)
    example.add_argument("--out", default=None)
    example.set_defaults(func=_cmd_example)

    sweep = sub.add_parser("sweep", help="run a seeded random property sweep")
    sweep.add_argument("kind", choices=["dominated-powers", "pair-product", "meet-bound"])
    sweep.add_argument("--count", type=int, default=20)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--n", type=int, default=4)
    _add_n_max(sweep)
    sweep.add_argument("--out", default=None, help="directory for failure replay bundles")
    sweep.set_defaults(func=_cmd_sweep)

    certify = sub.add_parser(
        "certify", help="search for a (d, n0) certificate pushing the trace below epsilon"
    )
    certify.add_argument("bundle")
    certify.add_argument("--m", type=int, default=None)
    certify.add_argument("--k", type=int, default=None)
    certify.add_argument("--epsilon", type=_rational_flag("--epsilon"), default=None)
    certify.add_argument("--d-cap", dest="d_cap", type=int, default=8)
    certify.add_argument("--n0-cap", dest="n0_cap", type=int, default=10_000)
    certify.set_defaults(func=_cmd_certify)

    return parser


@unlimited_int_digits
def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except HypothesisViolation as exc:
        print(f"hypothesis unmet: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS_UNMET
    # BundleError and SpaceMismatchError are ValueErrors.
    except (CliInputError, GridCapExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
