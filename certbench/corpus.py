"""Seeded corpora for the three workloads.

Every generator takes the seed and returns the operations of one round.
An operation is one formula for ``isci decide``; the benchmark repeats
whole rounds, so every run attempts the same operations in the same
order.  Formulas are written as text here, without `isci`, so the program
receives nothing but generated input.

The seed draws the variable names: p, q, r and s become four distinct
letters in the same alphabetical order.  The prover orders formulas by
variable name, so the renaming changes no search: every seed poses the
same problems under other names, and run-to-run differences come from
the machine and the program, not from a lucky draw.  The sweep also
takes its order from the seed.

README.md in this directory says why each formula set is present and
which operations fail today.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass, replace

PROVED = "proved"
REFUTED = "refuted"


@dataclass(frozen=True)
class Op:
    formula: str
    oracle: bool = False
    expect: str | None = None  # verdict known apart from the program
    fault: str | None = None  # why the operation fails today


@dataclass(frozen=True)
class Workload:
    name: str
    timeout: float  # the per-call --timeout handed to `isci decide`
    ops: list[Op]
    max_nodes: int = 1_000_000  # the per-call --max-nodes, the command's default
    check_repeats: int = 1  # re-checks of each document; its check time is their median


def renaming(seed: int):
    """Order-preserving renaming of p, q, r, s drawn from the seed."""
    letters = sorted(random.Random(seed).sample(string.ascii_lowercase, 4))
    names = dict(zip("pqrs", letters))
    return lambda text: re.sub(r"\b[pqrs]\b", lambda m: names[m.group()], text)


def renamed(seed: int, ops: list[Op]) -> list[Op]:
    rename = renaming(seed)
    return [replace(op, formula=rename(op.formula)) for op in ops]


# --- acceptance list -------------------------------------------------------

GUIDED_THEOREMS = [
    "(p -> q -> r) -> (p -> q) -> p -> r",
    "(p == q) -> ((p -> #) == (q -> #))",
]

SLOW_CONGRUENCE_THEOREMS = [
    "(p == q) -> (r == s) -> ((p -> r) == (q -> s))",
    "(p == q) -> (r == s) -> ((p == r) == (q == s))",
]

GUIDED_SATURATION_FAULT = (
    "guided identity saturation rescans every pair of equations at every step "
    "(prover.identity_instance); the proof needs 848 nodes and about 37 s"
)

NON_THEOREMS = [
    "((p -> q) -> p) -> p",
    "((p -> #) -> #) -> p",
    "p == q",
    "(p -> q) -> (p == q)",
    "(p -> p) == (q -> q)",
]

# --- sweep -----------------------------------------------------------------


def formulas_up_to(atoms: list[str], max_complexity: int) -> list[str]:
    """Every formula over `atoms` with at most `max_complexity`
    connectives, each compound part in parentheses."""
    by_c = [list(atoms)]
    for c in range(1, max_complexity + 1):
        layer = []
        for cl in range(c):
            for left in by_c[cl]:
                for right in by_c[c - 1 - cl]:
                    layer.append(f"({left} -> {right})")
                    layer.append(f"({left} == {right})")
        by_c.append(layer)
    return [f[1:-1] if f.startswith("(") else f for layer in by_c for f in layer]


def sweep(seed: int) -> Workload:
    ops = renamed(seed, [Op(f, oracle=True) for f in formulas_up_to(["p", "q"], 3)])
    random.Random(seed).shuffle(ops)
    return Workload("sweep", 10.0, ops)


# --- identity --------------------------------------------------------------

# Depth-2 contexts C[x] = outer[inner[x]] with an inner step over r: each
# proof is about 1 MB and its check takes about a second.  Outer steps that
# put the hole on the left of `==` are left out: over an inner `==` step they
# take 2 to 8 s to decide and 8 to 16 s to check.
_INNER = ["(x -> r)", "(r -> x)", "(x == r)", "(r == x)"]
_OUTER = ["(p -> x)", "(q -> x)", "(# == x)", "(r == x)"]
_DEPTH_1 = _INNER


def congruence(context: str) -> str:
    """The instance p == q -> C[p] == C[q]: a theorem by construction."""
    return f"p == q -> {context.replace('x', 'p')} == {context.replace('x', 'q')}"


def identity(seed: int) -> Workload:
    contexts = _DEPTH_1 + [outer.replace("x", inner) for inner in _INNER for outer in _OUTER]
    ops = [Op(congruence(c), expect=PROVED) for c in contexts]
    ops += [Op(f, expect=PROVED) for f in GUIDED_THEOREMS]
    ops += [Op(f, expect=PROVED, fault=GUIDED_SATURATION_FAULT) for f in SLOW_CONGRUENCE_THEOREMS]
    ops += [Op(f, oracle=True, expect=REFUTED) for f in NON_THEOREMS]
    # The node cap, not the timeout, stops the failing operations, so they
    # do the same work on a fast and a slow machine; passing ones need at
    # most 188 nodes.
    return Workload("identity", 30.0, renamed(seed, ops), max_nodes=400)


# --- search ----------------------------------------------------------------

SEARCH_FORMULAS = [
    "# == p -> (q -> #) -> q",
    "p == q -> q -> r",
    "p == q -> (p -> #) -> q",
    "(p -> #) == q -> r",
]

OUTSIDE_CLOSURE_FAULT = (
    "the countermodel builder's derivation holds (q -> q -> r) -> q, which lies "
    "outside the extended-subformula closure, so decide exits 4"
)


def search(seed: int) -> Workload:
    ops = [Op(f, expect=REFUTED) for f in SEARCH_FORMULAS]
    ops.append(Op("r == (q -> q -> r) -> r == q", expect=REFUTED, fault=OUTSIDE_CLOSURE_FAULT))
    ops.append(Op(GUIDED_THEOREMS[0], oracle=True, expect=PROVED))
    return Workload("search", 30.0, renamed(seed, ops), check_repeats=25)


WORKLOADS = {"sweep": sweep, "identity": identity, "search": search}
