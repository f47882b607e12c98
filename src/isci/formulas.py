"""Formula language for intuitionistic sentential logic with identity.

The language has propositional variables, falsum, implication and a binary
identity connective.  Identity is a connective, not meta-level equality:
``Id(p, q)`` and ``Id(q, p)`` are distinct formulas.  Nodes are interned:
constructing a formula twice yields the same object, so structural
equality coincides with identity and hashing is constant time.  Formulas
are immutable; never write to their fields.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable


class Formula:
    """Base class of formula nodes."""

    __slots__ = ()

    def __repr__(self) -> str:  # diagnostics only; printer owns real output
        from .printer import format_formula

        return f"<{format_formula(self)}>"


class Var(Formula):
    __slots__ = ("name",)
    _interned: dict[str, "Var"] = {}

    def __new__(cls, name: str):
        f = cls._interned.get(name)
        if f is None:
            f = super().__new__(cls)
            f.name = name
            cls._interned[name] = f
        return f


class Bottom(Formula):
    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance


class _Binary(Formula):
    __slots__ = ("left", "right")
    _interned: dict  # per subclass

    def __new__(cls, left: Formula, right: Formula):
        key = (left, right)
        f = cls._interned.get(key)
        if f is None:
            f = super().__new__(cls)
            f.left = left
            f.right = right
            cls._interned[key] = f
        return f


class Imp(_Binary):
    __slots__ = ()
    _interned = {}


class Id(_Binary):
    __slots__ = ()
    _interned = {}


BOT = Bottom()


def in_form0(f: Formula) -> bool:
    """Atomic-for-valuation formulas: variables and equations."""
    return isinstance(f, (Var, Id))


@lru_cache(maxsize=None)
def complexity(f: Formula) -> int:
    """0 for variables and falsum; c(l) + c(r) + 1 for both connectives."""
    if isinstance(f, (Var, Bottom)):
        return 0
    return complexity(f.left) + complexity(f.right) + 1


@lru_cache(maxsize=None)
def sort_key(f: Formula):
    """Total-order key: Bottom < Var < Imp < Id, then lexicographic."""
    if isinstance(f, Bottom):
        return (0,)
    if isinstance(f, Var):
        return (1, f.name)
    if isinstance(f, Imp):
        return (2, sort_key(f.left), sort_key(f.right))
    return (3, sort_key(f.left), sort_key(f.right))


def sorted_formulas(fs: Iterable[Formula]) -> list[Formula]:
    return sorted(fs, key=sort_key)


@lru_cache(maxsize=None)
def subformulas(f: Formula) -> frozenset[Formula]:
    out = {f}
    if isinstance(f, (Imp, Id)):
        out |= subformulas(f.left)
        out |= subformulas(f.right)
    return frozenset(out)


def sub_closure(fs: Iterable[Formula]) -> frozenset[Formula]:
    out: set[Formula] = set()
    for f in fs:
        out |= subformulas(f)
    return frozenset(out)


@lru_cache(maxsize=None)
def variables(f: Formula) -> frozenset[Var]:
    if isinstance(f, Var):
        return frozenset((f,))
    if isinstance(f, Bottom):
        return frozenset()
    return variables(f.left) | variables(f.right)


def extended_subformulas(phi: Formula, budget=None, phase: str | None = None) -> frozenset[Formula]:
    """Closure of sub(phi) under reflexive equations, equation splitting and
    bounded composition of equations, computed afresh: always finite, but
    it can be large for complex formulas, so only `isci exsub` materializes
    it, and everything else asks `in_extended_subformulas`.  Under `budget`
    (a `prover.Budget`) it checks the budget on entry and every 4,096
    formulas it takes from the worklist, so that a large closure stops at
    the deadline of `phase`, "at the closure".

    Closure rules, with n = complexity(phi):
      * chi in set and c(chi == chi) <= n         adds chi == chi
      * (chi == psi) in set                        adds chi -> psi, psi -> chi
      * (a == c), (b == d) in set, c bound <= n    adds (a op b) == (c op d)
    """
    n = complexity(phi)
    out: set[Formula] = set()
    queue: list[Formula] = []

    def push(f: Formula) -> None:
        if f not in out:
            out.add(f)
            queue.append(f)

    for f in subformulas(phi):
        push(f)
    # equations bucketed by complexity(left) + complexity(right), so each new
    # equation is composed only against partners the bound can accept
    buckets: dict[int, list[Id]] = {}
    taken = 0
    while queue:
        if budget is not None and not taken & 4095:
            budget.check(phase, "the closure")
        taken += 1
        f = queue.pop()
        if 2 * complexity(f) + 1 <= n:
            push(Id(f, f))
        if isinstance(f, Id):
            push(Imp(f.left, f.right))
            push(Imp(f.right, f.left))
            cf = complexity(f.left) + complexity(f.right)
            for cg in range(n - 3 - cf + 1):
                for g in buckets.get(cg, ()):
                    for e1, e2 in ((f, g), (g, f)):
                        for op in (Imp, Id):
                            push(Id(op(e1.left, e2.left), op(e1.right, e2.right)))
            if 2 * cf + 3 <= n:
                for op in (Imp, Id):
                    push(Id(op(f.left, f.left), op(f.right, f.right)))
            buckets.setdefault(cf, []).append(f)
    return frozenset(out)


def extended_subformulas_within(phi: Formula, cap: int) -> frozenset[Formula] | None:
    """The extended subformulas, or None if more than `cap` exist.  Nothing
    in `isci` calls it; `certbench/spans.py` still wraps it by name."""
    closure = extended_subformulas(phi)
    return closure if len(closure) <= cap else None


@lru_cache(maxsize=None)
def in_extended_subformulas(psi: Formula, phi: Formula) -> bool:
    """Membership test that never materializes the whole closure.

    Works top-down: an equation is a member if it is a plain subformula, a
    reflexive equation over a member, or a bounded composition of member
    equations; an implication is a member if it is a plain subformula or
    the split of a member equation.
    """
    if psi in subformulas(phi):
        return True
    n = complexity(phi)
    if complexity(psi) > n:
        return False
    if isinstance(psi, Id):
        if psi.left == psi.right and in_extended_subformulas(psi.left, phi):
            return True
        l, r = psi.left, psi.right
        if type(l) is type(r) and isinstance(l, (Imp, Id)):
            return in_extended_subformulas(Id(l.left, r.left), phi) and in_extended_subformulas(
                Id(l.right, r.right), phi
            )
        return False
    if isinstance(psi, Imp):
        return in_extended_subformulas(Id(psi.left, psi.right), phi) or in_extended_subformulas(
            Id(psi.right, psi.left), phi
        )
    return False
