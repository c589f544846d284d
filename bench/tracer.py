"""Spans around the public functions of each resgraph module, installed from
outside the package.

A wrapper replaces the function in every ``resgraph.*`` namespace that binds
it (``resgraph.catalog.classify`` as well as ``resgraph.contract.classify``),
so calls are caught however the caller reached the function. Hot helpers
(``cycle_dot_restricted``, ``Cycle``) stay unwrapped on purpose.

A span is ``[name, start, end, parent, op]``; spans live in memory and are
written out when the run ends. Per-call details that cost time to compute
(matrix hashes, bit lengths) are read from the kept arguments and results
only when the op has ended, outside every timed region.

This module imports nothing but the standard library, so that the CLI shim
can load it before ``resgraph`` without paying any part of its import.
"""

from __future__ import annotations

import sys
import time

# (span name, module, attribute); "Class.method" wraps the method on the class.
TARGETS = (
    ("graph.parse", "graph", "parse"),
    ("graph.intersection_matrix", "graph", "DualGraph.intersection_matrix"),
    ("graph.DualGraph", "graph", "DualGraph.__init__"),
    ("linalg.solve", "linalg", "solve"),
    ("linalg.definiteness", "linalg", "definiteness"),
    ("linalg.kernel_basis", "linalg", "kernel_basis"),
    ("contract.classify", "contract", "classify"),
    ("contract.contract_minus_ones", "contract", "contract_minus_ones"),
    ("contract.blow_down_once", "contract", "blow_down_once"),
    ("contract.recognize_duval", "contract", "recognize_duval"),
    ("discrepancy.codiscrepancies", "discrepancy", "codiscrepancies"),
    ("discrepancy.pinned_codiscrepancies", "discrepancy", "pinned_codiscrepancies"),
    ("discrepancy.mumford_pullback", "discrepancy", "mumford_pullback"),
    ("discrepancy.fundamental_cycle", "discrepancy", "fundamental_cycle"),
    ("discrepancy.implied_tail_start", "discrepancy", "implied_tail_start"),
    ("catalog.load_catalog", "catalog", "load_catalog"),
    ("catalog.verify_entry", "catalog", "verify_entry"),
    ("cli.main", "cli", "main"),
)

# Spans whose arguments or result are kept until the op ends.
_KEEP = {
    "linalg.solve",
    "linalg.definiteness",
    "discrepancy.fundamental_cycle",
    "catalog.verify_entry",
}

OP = "op"


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    """Collects spans for one process. ``install``/``uninstall`` swap the
    wrappers in and out, so untraced ops in the same process run the plain
    functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.kept: list[tuple[int, tuple, object]] = []
        self.op: int | None = None
        self.stats: dict[str, dict[str, float]] = {}
        self._first_span = 0
        self._swaps: list[tuple[object, str, object, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, kept, clock = self.spans, self.stack, self.kept, time.perf_counter
        keep = name in _KEEP
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            index = len(spans)
            spans.append(rec)
            stack.append(index)
            try:
                rec[1] = clock()
                result = fn(*args, **kwargs)
                rec[2] = clock()
            except BaseException:
                rec[2] = clock()
                if keep:
                    kept.append((index, args, _RAISED))
                raise
            finally:
                stack.pop()
            if keep:
                kept.append((index, args, result))
            return result

        return traced

    def install(self) -> None:
        """Swap every target for its wrapper in all loaded resgraph modules."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "resgraph" or k.startswith("resgraph."))]
        for name, modname, attr in TARGETS:
            module = sys.modules[f"resgraph.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._swaps.append((cls, meth, original, self._wrap(name, original)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._swaps.append((mod, key, original, wrapper))
        for owner, key, _, wrapper in self._swaps:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._swaps:
            setattr(owner, key, original)
        self._swaps = []

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        """Open the op's root span; the wrappers tag their spans with op."""
        self.op = op
        self._first_span = len(self.spans)
        self.spans.append([OP, 0.0, 0.0, -1, op])
        self.stack.append(self._first_span)
        self.spans[self._first_span][1] = time.perf_counter()

    def end_op(self) -> float:
        """Close the root span, fold the op's spans into ``stats``, and
        return the op's duration in seconds."""
        root = self.spans[self._first_span]
        root[2] = time.perf_counter()
        self.stack.pop()
        self._fold(self.spans[self._first_span:])
        self.kept.clear()
        self.op = None
        return root[2] - root[1]

    def _fold(self, spans: list[list]) -> None:
        """Add one op's spans to the running totals: calls and self time per
        name, plus the per-call details of the kept spans."""
        offset = self._first_span
        child = [0.0] * len(spans)
        for rec in spans:
            parent = rec[3]
            if parent >= offset:
                child[parent - offset] += rec[2] - rec[1]
        for i, rec in enumerate(spans):
            s = self._stat(rec[0])
            s["calls"] += 1
            s["self_ms"] += (rec[2] - rec[1] - child[i]) * 1e3
        seen: dict[str, set] = {}
        for index, args, result in self.kept:
            name = self.spans[index][0]
            s = self._stat(name)
            if name in ("linalg.solve", "linalg.definiteness"):
                key = args[0] if name == "linalg.definiteness" else (args[0], tuple(args[1]))
                bucket = seen.setdefault(name, set())
                if key in bucket:
                    s["repeats"] += 1
                bucket.add(key)
            if name == "linalg.solve":
                s["dim_max"] = max(s["dim_max"], args[0].dimension)
                if result is _RAISED:
                    s["raised"] += 1
                else:
                    s["out_bits_max"] = max([s["out_bits_max"]] + [_bits(x) for x in result])
            elif name == "discrepancy.fundamental_cycle" and result is not _RAISED:
                z = result[0].coefficients
                s["laufer_steps"] += int(sum(z.values())) - len(z)
            elif name == "catalog.verify_entry" and result is not _RAISED:
                s["checks"] += len(result)

    def _stat(self, name: str) -> dict[str, float]:
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = dict.fromkeys(_FIELDS, 0)
        return s


# Stands in for the result of a kept call that raised.
_RAISED = object()
_FIELDS = ("calls", "self_ms", "repeats", "raised", "dim_max", "out_bits_max",
           "laufer_steps", "checks")


def merge_stats(into: dict, other: dict) -> None:
    """Add one process's folded stats to another's (maxima stay maxima)."""
    for name, fields in other.items():
        target = into.setdefault(name, dict.fromkeys(_FIELDS, 0))
        for key, value in fields.items():
            target[key] = max(target[key], value) if key.endswith("_max") else target[key] + value
