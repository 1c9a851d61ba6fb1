"""The benchmark's workloads: how each builds its inputs from a seed, what
one op is, and what each op must output.

An op is one unit of user work. ``next_op`` returns ``(kind, call, check)``:
``call`` is the timed call into the public API, and ``check`` turns its
result into the exact output bytes that are hashed, or raises ``GateError``
when the verdict, exit code or output is wrong. ``reset`` rewinds the op
sequence so that the traced run can replay the untraced ops exactly. A run
stops only after a whole round of ``round_ops`` ops, so that every run has
the same mix.

Every size is passed explicitly; nothing reads ``DOMINION_DENOM_CAP``
except ``dominion sweep``, which has no flag for it, so the worker removes
the variable from its environment.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction
from random import Random

# Ops call dominion.cli.main and dominion.sweeps.* through their modules, so
# that the tracer's replacements of those names are the ones called.
import dominion.cli
import dominion.sweeps
from dominion import MatrixOperator, MeasureSpace, shear_trio, unit_gap_pair
from dominion.bundles import bundle_for_damped, bundle_for_family, save_bundle
from dominion.gallery import random_commuting_family, random_positive_contraction
from dominion.sweeps import meet_bound_instance

DENOM_CAP = 64
SEED_STRIDE = 1_000_000  # op seeds of one benchmark seed never reach the next one's


class GateError(Exception):
    """An op returned a wrong verdict, exit code or output."""


class _Sweep:
    """One-instance sweeps whose seeds are chained by ``seeds_consumed``, so
    that the ops reproduce one long sweep; every op must be VERIFIED."""

    round_ops = 1
    kind = ""

    def __init__(self, seed: int, workdir: str, expected: dict | None = None) -> None:
        self.seed0 = seed * SEED_STRIDE
        self.expected = {self.kind: "VERIFIED", **(expected or {})}
        self.reset()

    def reset(self) -> None:
        self.next_seed = self.seed0

    def _call(self):
        result = self.sweep(self.next_seed)
        self.next_seed += result.seeds_consumed
        return result

    def _check(self, result) -> bytes:
        verdict = "VERIFIED" if result.ok else "FALSIFIED"
        if verdict != self.expected[self.kind] or result.checked != 1:
            raise GateError(f"verdict {verdict} with {result.checked} checked, expected {self.expected[self.kind]}")
        return repr(result).encode()

    def next_op(self):
        return self.kind, self._call, self._check


class Powers(_Sweep):
    """Acceptance criterion 03, one dense dominated pair per op: n = 4, powers 1..50."""

    name = "powers"
    kind = "dominated-powers"

    def sweep(self, seed0: int):
        return dominion.sweeps.sweep_dominated_powers(
            1, n=4, n_max=50, seed0=seed0, density=1.0, denom_cap=DENOM_CAP
        )


class Grid(_Sweep):
    """The family-grid half of criterion 04: 3 commuting pairs, n = 3,
    degree 2, exponent grid up to (30, 5, 5), 650 points per op."""

    name = "grid"
    kind = "family-grid"

    def sweep(self, seed0: int):
        return dominion.sweeps.sweep_family_grid(
            1, n_pairs=3, n=3, m_max=(30, 5, 5), degree=2, seed0=seed0, denom_cap=DENOM_CAP
        )


# -- cli --------------------------------------------------------------------------

TRACE_N_MAX = 250
CERTIFY_N0_CAP = 300
# The unit-gap S has trace a_n = (1/6)(5/6)^(n-1) for n >= 1 (criterion 05).
# A block-diagonal T containing it keeps a_n >= that, so this epsilon is
# never beaten within n0 <= CERTIFY_N0_CAP and the search must exhaust.
EXHAUST_EPSILON = Fraction(1, 6) * Fraction(5, 6) ** (CERTIFY_N0_CAP - 1)

# One round of the mix: kind -> (ops per round, distinct bundles, expected exit).
# Three traces per round make the slowest kind hold well over ten ops per
# run, so op_tail_ms falls inside the trace times. Twenty meet-bound checks
# (bundle parse, a few small products, JSON report) put the median op in
# the middle of that kind rather than on the edge between two kinds.
MIX = {
    "trace": (3, 48, 0),
    "certify-exhaust": (1, 16, 2),
    "certify-unit-gap": (1, 1, 0),
    "check-pair-product": (1, 16, 0),
    "check-damped-powers": (1, 16, 0),
    "check-family-grid": (1, 16, 0),
    "check-meet-bound": (20, 20, 0),
    "sweep-meet-bound": (1, 0, 0),
    "example-1": (1, 0, 0),
    "example-2": (1, 0, 0),
    "example-lp": (1, 0, 0),
}


def _direct_sum(a: MatrixOperator, b: MatrixOperator) -> MatrixOperator:
    zero = Fraction(0)
    na, nb = a.space.n, b.space.n
    rows = [row + (zero,) * nb for row in a.entries]
    rows += [(zero,) * na + row for row in b.entries]
    return MatrixOperator(MeasureSpace(a.space.weights + b.space.weights), tuple(rows))


def _first(draw, premise, tries: int = 1000):
    """First drawn instance whose premise holds, so its verdict must be VERIFIED."""
    for _ in range(tries):
        instance = draw()
        if premise(instance):
            return instance
    raise RuntimeError(f"no instance met its premise in {tries} draws")


def _base_gap_below_one(family) -> bool:
    p1, p2 = family.pairs
    return (p1.s @ p2.s - p1.t @ p2.t).norm() < 1


def _meet_premise_holds(instance) -> bool:
    z, t, m, k = instance
    return (z @ (t ** (m + k) - t**m)).norm() < 2


class Cli:
    """Rounds of in-process ``dominion.cli.main`` calls on bundles written
    during set-up; the k-th op of a kind uses bundle k of that kind's pool,
    cyclically."""

    name = "cli"

    def __init__(self, seed: int, workdir: str, expected: dict | None = None) -> None:
        self.expected = {kind: code for kind, (_, _, code) in MIX.items()}
        self.expected.update(expected or {})
        self.workdir = workdir
        self.sweep_seed0 = seed * SEED_STRIDE
        self.round = [kind for kind, (copies, _, _) in MIX.items() for _ in range(copies)]
        self.round_ops = len(self.round)
        rng = Random(seed)

        def draw() -> int:
            return rng.randrange(2**30)

        def pool(kind: str, make) -> None:
            for i in range(MIX[kind][1]):
                save_bundle(make(), self._bundle(kind, i))

        unit = unit_gap_pair()
        identity = MatrixOperator.identity

        def trace_bundle():
            t = random_positive_contraction(draw(), 4, density=1.0, denom_cap=DENOM_CAP)
            return bundle_for_damped(identity(t.space), t)

        def exhaust_bundle():
            r = random_positive_contraction(draw(), 2, density=1.0, denom_cap=DENOM_CAP)
            # (I + R) / 2 has a positive diagonal, so |T - I| < 2 on this block.
            t = _direct_sum(unit.s, (identity(r.space) + r) / 2)
            return bundle_for_damped(identity(t.space), t)

        def damped_bundle():
            # u < 1 keeps the base gap u(1 - lam) + v/2 below one; lam <= 1/2 keeps T <= S.
            u = rng.randint(1, 7)
            trio = shear_trio(Fraction(u, 8), Fraction(rng.randint(0, 8 - u), 8), Fraction(rng.randint(0, 4), 8))
            return bundle_for_damped(trio.z, trio.t, s=trio.s)

        def family_bundle():
            return bundle_for_family(_first(
                lambda: random_commuting_family(draw(), 2, 3, degree=2, denom_cap=DENOM_CAP),
                _base_gap_below_one,
            ))

        def meet_bundle():
            z, t, m, k = _first(lambda: meet_bound_instance(draw(), 3, denom_cap=DENOM_CAP), _meet_premise_holds)
            return bundle_for_damped(z, t, params={"m": m, "k": k})

        pool("trace", trace_bundle)
        pool("certify-exhaust", exhaust_bundle)
        pool("certify-unit-gap", lambda: bundle_for_damped(identity(unit.space), unit.s))
        pool("check-damped-powers", damped_bundle)
        pool("check-pair-product", family_bundle)
        pool("check-family-grid", family_bundle)
        pool("check-meet-bound", meet_bundle)
        self.reset()

    def _bundle(self, kind: str, k: int) -> str:
        return os.path.join(self.workdir, f"{kind}-{k % MIX[kind][1]}.bundle")

    def _argv(self, kind: str, k: int) -> list[str]:
        """Command line of the k-th op of a kind."""
        if kind.startswith("example-"):
            return ["example", kind.removeprefix("example-")]
        if kind == "sweep-meet-bound":
            return ["sweep", "meet-bound", "--count", "20", "--n", "3", "--seed", str(self.sweep_seed0 + 20 * k)]
        bundle = self._bundle(kind, k)
        return {
            "trace": ["trace", bundle, "--k", "1", "--d", "1", "--n-max", str(TRACE_N_MAX)],
            "certify-exhaust": ["certify", bundle, "--m", "0", "--k", "1", "--d-cap", "1",
                                "--n0-cap", str(CERTIFY_N0_CAP), "--epsilon",
                                f"{EXHAUST_EPSILON.numerator}/{EXHAUST_EPSILON.denominator}"],
            "certify-unit-gap": ["certify", bundle, "--m", "0", "--k", "1", "--epsilon", "1/100"],
            "check-pair-product": ["check", "pair-product", bundle, "--n0", "1", "--n-max", "30", "--json"],
            "check-damped-powers": ["check", "damped-powers", bundle, "--n0", "1", "--n-max", "30", "--json"],
            "check-family-grid": ["check", "family-grid", bundle, "--n-max", "12,12", "--json"],
            "check-meet-bound": ["check", "meet-bound", bundle, "--json"],
        }[kind]

    def reset(self) -> None:
        self.index = 0

    def next_op(self):
        rounds, position = divmod(self.index, len(self.round))
        kind = self.round[position]
        k = rounds * MIX[kind][0] + self.round[:position].count(kind)
        argv = self._argv(kind, k)
        self.index += 1

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = dominion.cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        return kind, call, lambda result: self._check(kind, argv, result)

    def _check(self, kind: str, argv: list[str], result) -> bytes:
        code, out, err = result
        if code != self.expected[kind]:
            raise GateError(f"{' '.join(argv)}: exit {code}, expected {self.expected[kind]}: {err.strip()[-200:]}")
        lines = out.splitlines()
        if kind == "trace":
            _check_trace_csv(lines)
        elif kind == "certify-exhaust":
            _require(lines[-1] == "verdict: EXHAUSTED", kind, lines[-1])
        elif kind == "certify-unit-gap":
            _require(any(line.startswith("certificate: d = 1, n0 = 17,") for line in lines), kind, out)
        elif kind.startswith("check-"):
            verdict = json.loads(out)["verdict"]
            _require(verdict == "VERIFIED", kind, verdict)
        elif kind == "sweep-meet-bound":
            _require(lines[0].startswith("meet-bound sweep: 20/20 passed"), kind, lines[0])
        else:  # example-*: stdout is the exact bundle
            _require(sorted(json.loads(out)) == ["operators", "params", "roles", "space"], kind, out)
        shown = " ".join(os.path.basename(a) if a.startswith(self.workdir) else a for a in argv)
        return f"{shown}\n{code}\n{out}".encode()


def _require(ok: bool, kind: str, seen: str) -> None:
    if not ok:
        raise GateError(f"{kind}: unexpected output {seen[:200]!r}")


def _check_trace_csv(lines: list[str]) -> None:
    """Header, rows n = 0..TRACE_N_MAX, and exactly nonincreasing norms."""
    _require(lines[0] == "n,norm_exact,norm_decimal", "trace", lines[0])
    _require(len(lines) == TRACE_N_MAX + 2, "trace", f"{len(lines)} lines")
    previous = None
    for n, line in enumerate(lines[1:]):
        index, exact, _ = line.split(",")
        norm = Fraction(exact)
        _require(int(index) == n and (previous is None or norm <= previous), "trace", line)
        previous = norm


WORKLOADS = {cls.name: cls for cls in (Powers, Grid, Cli)}
