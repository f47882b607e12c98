"""Spans around the public functions of each `isci` module.

`Tracer.install` replaces each wrapped function in every loaded `isci`
module that holds a reference to it (``from .prover import prove`` binds
the name in the importing module too) and `uninstall` puts the originals
back; nothing under ``src/`` is edited.  A span records its layer, start,
end, parent span and operation id.

Self time is exact and computed online: a span's duration minus the time
its child spans cover.  Calls that repeat thousands of times per operation
(parsing, printing, saturation steps, closure membership tests) are kept
as one aggregate per operation, parent span and layer rather than as one
span each, so a traced run stays small in memory.  A call made while its
own layer is already innermost on the stack (recursion, or one printer
function calling another) is folded into the outer span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute, layer, aggregated); the attribute may name a method
# as Class.method.
TARGETS = [
    ("isci.cli", "main", "cli", False),
    ("isci.parser", "parse_formula", "parser", True),
    ("isci.parser", "parse_sequent", "parser", True),
    ("isci.printer", "format_formula", "printer", True),
    ("isci.printer", "format_sequent", "printer", True),
    ("isci.serialize", "verdict_doc", "serialize.dump", False),
    ("isci.serialize", "proof_doc", "serialize.dump", False),
    ("isci.serialize", "model_doc", "serialize.dump", False),
    ("isci.serialize", "dumps", "serialize.dump", False),
    ("isci.serialize", "loads", "serialize.load", False),
    ("isci.serialize", "derivation_from_doc", "serialize.load", False),
    ("isci.serialize", "model_from_doc", "serialize.load", False),
    ("isci.calculus", "check_proof", "calculus.check_proof", False),
    ("isci.invariants", "assert_restricted_derivation", "invariants.restricted", False),
    ("isci.prover", "prove", "prover.prove", False),
    ("isci.prover", "identity_instance", "prover.saturation", True),
    ("isci.countermodel", "_Builder.run", "countermodel.build", False),
    ("isci.countermodel", "validate_bundle", "countermodel.validate", False),
    ("isci.semantics", "check_frame", "semantics.check", False),
    ("isci.semantics", "check_admissible", "semantics.check", False),
    ("isci.semantics", "check_monotonicity", "semantics.check", False),
    ("isci.semantics", "check_identity_entails_implications", "semantics.check", False),
    ("isci.semantics", "bounded_countermodel_search", "semantics.oracle", False),
    ("isci.formulas", "extended_subformulas", "formulas.exsub", True),
    ("isci.formulas", "extended_subformulas_within", "formulas.exsub", True),
    ("isci.formulas", "in_extended_subformulas", "formulas.exsub", True),
]


def _count_prove(counts, args, verdict):
    counts["prover.nodes"] += verdict.stats.nodes
    counts["prover.backtracks"] += verdict.stats.backtracks


def _count_build(counts, args, bundle):
    builder = args[0]  # _Builder.run(self): the builder owns the provability gate
    counts["countermodel.gate_nodes"] += builder.prover.stats.nodes
    counts["countermodel.worlds"] += len(bundle.worlds)


def _count_membership(counts, args, result):
    counts["formulas.guided_ops"] += 1


HOOKS = {
    "prove": _count_prove,
    "_Builder.run": _count_build,
    "in_extended_subformulas": _count_membership,
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [layer, start, child time, anchor span id]
        self.spans: list[tuple | None] = []  # (layer, start, end, parent id, op)
        self.aggregates: dict[tuple, list] = {}  # (op, parent id, layer) -> [calls, seconds]
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.op: int | None = None
        self._undo: list[tuple] = []

    def wrap(self, fn, layer: str, aggregated: bool, hook=None):
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            anchor = parent[3] if parent else None
            if aggregated:
                frame = [layer, 0.0, 0.0, anchor]
            else:
                frame = [layer, 0.0, 0.0, len(spans)]
                spans.append(None)
            stack.append(frame)
            start = frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_time[layer] += duration - frame[2]
                self.calls[layer] += 1
                if parent is not None:
                    parent[2] += duration
                if aggregated:
                    agg = self.aggregates.setdefault((self.op, anchor, layer), [0, 0.0])
                    agg[0] += 1
                    agg[1] += duration
                else:
                    spans[frame[3]] = (layer, start, end, anchor, self.op)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("isci") and m]
        for module_name, attr, layer, aggregated in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                cls_wrapped = self.wrap(original, layer, aggregated, HOOKS.get(attr))
                setattr(cls, method, cls_wrapped)
                self._undo.append((cls, method, original))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, layer, aggregated, HOOKS.get(attr))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._undo.append((module, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        """One JSON object per line: spans, then per-operation aggregates."""
        with open(path, "w", encoding="utf-8") as out:
            for sid, span in enumerate(self.spans):
                if span is None:
                    continue
                layer, start, end, parent, op = span
                out.write(json.dumps({"id": sid, "name": layer, "start": start, "end": end,
                                      "parent": parent, "op": op}) + "\n")
            for (op, parent, layer), (calls, seconds) in self.aggregates.items():
                out.write(json.dumps({"name": layer, "op": op, "parent": parent,
                                      "calls": calls, "seconds": seconds}) + "\n")
