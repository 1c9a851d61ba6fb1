"""Per-layer tracing of the dominion package, applied from outside.

The tracer wraps public entry points of each layer at run time: methods of
``MatrixOperator`` (and the validating constructors of ``DominatedPair`` and
``CommutingFamily``) are replaced on the class, and module-level functions
are replaced at every module that binds them, because ``sweeps``, ``cli``
and ``theorems`` import ``check_*``, ``operator_meet`` and ``rational_str``
by name. Nothing under ``src/`` is edited; ``uninstall`` restores every
original binding.

Each call records a span (layer, start, end, parent) in memory. A layer's
self time is the sum over its spans of the span's duration minus the
durations of its direct child spans. Per-layer times are wall times, not
rescaled like the end-to-end ones.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Layer name -> MatrixOperator method names.
OPERATOR_METHODS = {
    "core.compose": ("compose",),
    "core.power": ("__pow__",),
    "core.norm": ("norm",),
    "core.entrywise": (
        "__add__", "__sub__", "__mul__", "__rmul__", "__truediv__",
        "__abs__", "__neg__", "hadamard",
    ),
    "core.compare": ("__eq__", "is_positive", "dominates", "commutes_with", "is_contraction"),
    "core.construct": ("__post_init__",),
}

# Layer name -> (module, function names), patched at every binding site.
FUNCTIONS = {
    "calculus.meet": ("dominion.calculus", ("operator_meet",)),
    "calculus.lattice_hom": ("dominion.calculus", ("is_lattice_homomorphism",)),
    "theorems.check": ("dominion.theorems", (
        "check_pair_product", "check_damped_powers", "check_family_grid", "check_meet_bound",
    )),
    "theorems.trace": ("dominion.theorems", ("zero_two_trace",)),
    "theorems.certify": ("dominion.theorems", ("find_epsilon_certificate",)),
    "gallery.draw": ("dominion.gallery", (
        "random_dominated_pair", "random_commuting_family",
        "random_positive_contraction", "random_signed_operator",
    )),
    "sweeps": ("dominion.sweeps", (
        "sweep_dominated_powers", "sweep_pair_product", "sweep_family_grid", "sweep_meet_bound",
    )),
    "bundles.parse": ("dominion.bundles", ("parse_bundle",)),
    "bundles.emit": ("dominion.bundles", ("emit_bundle",)),
    "bundles.render": ("dominion.bundles", ("rational_str", "decimal_str")),
    "cli.main": ("dominion.cli", ("main",)),
}

# theorems.validate: the hypothesis checks these classes run when built.
VALIDATED = ("DominatedPair", "CommutingFamily")

LAYERS = tuple(OPERATOR_METHODS) + ("theorems.validate",) + tuple(FUNCTIONS)


def _max_denominator_bits(op) -> int:
    return max(q.denominator.bit_length() for row in op.entries for q in row)


def _after_compose(counters: Counter, args, result) -> None:
    bits = _max_denominator_bits(result)
    counters["core.compose.out_bits_sum"] += bits
    if bits > counters["core.compose.out_bits_max"]:
        counters["core.compose.out_bits_max"] = bits


def _after_sweep(counters: Counter, args, result) -> None:
    counters["sweeps.drawn"] += result.seeds_consumed
    counters["sweeps.checked"] += result.checked
    counters["sweeps.skipped"] += result.skipped


def _after_parse(counters: Counter, args, result) -> None:
    counters["bundles.parse.bytes"] += len(args[0].encode())


def _after_emit(counters: Counter, args, result) -> None:
    counters["bundles.emit.bytes"] += len(result.encode())


def _after_render(counters: Counter, args, result) -> None:
    counters["bundles.render.bytes"] += len(result)
    numerator, slash, denominator = result.partition("/")
    if slash:
        digits = max(len(numerator.lstrip("-")), len(denominator))
        if digits > counters["bundles.render.digits_max"]:
            counters["bundles.render.digits_max"] = digits


def _after_main(counters: Counter, args, result) -> None:
    # The benchmark runs cli.main with stdout redirected to a StringIO.
    captured = getattr(sys.stdout, "getvalue", None)
    if captured is not None:
        counters["cli.main.out_bytes"] += len(captured().encode())


AFTER = {
    "core.compose": _after_compose,
    "sweeps": _after_sweep,
    "bundles.parse": _after_parse,
    "bundles.emit": _after_emit,
    "bundles.render": _after_render,
    "cli.main": _after_main,
}


class Tracer:
    """Span recorder for one process; create, ``install``, run, ``uninstall``."""

    def __init__(self) -> None:
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.span_layer: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def _wrap(self, layer: str, fn):
        layer_id = self.layer_ids[layer]
        after = AFTER.get(layer)
        span_layer, span_start = self.span_layer, self.span_start
        span_end, span_parent = self.span_end, self.span_parent
        stack, counters = self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(span_start)
            span_layer.append(layer_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(index)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(counters, args, result)
                return result
            finally:
                span_end[index] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import dominion.core
        import dominion.theorems

        operator = dominion.core.MatrixOperator
        for layer, methods in OPERATOR_METHODS.items():
            for name in methods:
                self._set(operator, name, self._wrap(layer, operator.__dict__[name]))
        for cls_name in VALIDATED:
            cls = getattr(dominion.theorems, cls_name)
            self._set(cls, "__post_init__", self._wrap("theorems.validate", cls.__post_init__))
        modules = [m for n, m in sys.modules.items() if n == "dominion" or n.startswith("dominion.")]
        for layer, (module_name, names) in FUNCTIONS.items():
            home = sys.modules[module_name]
            for name in names:
                original = getattr(home, name)
                traced = self._wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def summary(self, ops: int, op_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit), per traced op.

        Counts, bytes and self times are divided by ``ops``, so that they do
        not grow with the number of ops a run completes. ``op_wall_s`` is the
        summed wall time of the traced ops; the part of it covered by no
        top-level span is reported as ``unattributed_s``.
        """
        n_layers = len(LAYERS)
        calls = [0] * n_layers
        self_s = [0.0] * n_layers
        child_s = [0.0] * len(self.span_start)
        top_level_s = 0.0
        # Children are recorded after their parent, so walking backwards
        # finishes every child before its parent.
        for i in range(len(self.span_start) - 1, -1, -1):
            duration = self.span_end[i] - self.span_start[i]
            parent = self.span_parent[i]
            if parent < 0:
                top_level_s += duration
            else:
                child_s[parent] += duration
            layer = self.span_layer[i]
            calls[layer] += 1
            self_s[layer] += duration - child_s[i]

        certify = self.layer_ids["theorems.certify"]
        norm = self.layer_ids["core.norm"]
        certify_norms = 0
        for i, layer in enumerate(self.span_layer):
            if layer != norm:
                continue
            parent = self.span_parent[i]
            while parent >= 0 and self.span_layer[parent] != certify:
                parent = self.span_parent[parent]
            certify_norms += parent >= 0

        c = self.counters
        metrics: dict[str, tuple[float, str]] = {}
        for layer, i in self.layer_ids.items():
            if layer != "sweeps":
                metrics[f"{layer}.calls"] = (calls[i] / ops, "calls/op")
            metrics[f"{layer}.self_s"] = (self_s[i] / ops, "s/op")
        compose_calls = calls[self.layer_ids["core.compose"]]
        metrics["core.compose.out_bits_max"] = (c["core.compose.out_bits_max"], "bits")
        metrics["core.compose.out_bits_mean"] = (
            c["core.compose.out_bits_sum"] / compose_calls if compose_calls else 0.0, "bits"
        )
        metrics["theorems.certify.norm_calls"] = (certify_norms / ops, "calls/op")
        for key in ("drawn", "checked", "skipped"):
            metrics[f"sweeps.{key}"] = (c[f"sweeps.{key}"] / ops, "count/op")
        drawn = c["sweeps.drawn"]
        metrics["sweeps.useful_ratio"] = (c["sweeps.checked"] / drawn if drawn else 0.0, "ratio")
        for layer in ("bundles.parse", "bundles.emit", "bundles.render"):
            metrics[f"{layer}.bytes"] = (c[f"{layer}.bytes"] / ops, "bytes/op")
        metrics["bundles.render.digits_max"] = (c["bundles.render.digits_max"], "digits")
        metrics["cli.main.out_bytes"] = (c["cli.main.out_bytes"] / ops, "bytes/op")
        metrics["unattributed_s"] = ((op_wall_s - top_level_s) / ops, "s/op")
        return metrics

    def write_spans(self, path) -> None:
        """Write every span as a tab-separated line: index, layer, start, end, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index\tlayer\tstart_s\tend_s\tparent\n")
            for i, layer in enumerate(self.span_layer):
                handle.write(
                    f"{i}\t{LAYERS[layer]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\n"
                )
