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


def _exsub_worklist(phi: Formula, cap: int | None, check=None) -> frozenset[Formula] | None:
    """Closure of sub(phi) under reflexive equations, equation splitting and
    bounded composition of equations.  Returns None once the set would
    exceed `cap`; calls `check` before every 4,096th formula it takes from
    the worklist, the first included.

    Closure rules, with n = complexity(phi):
      * chi in set and c(chi == chi) <= n         adds chi == chi
      * (chi == psi) in set                        adds chi -> psi, psi -> chi
      * (a == c), (b == d) in set, c bound <= n    adds (a op b) == (c op d)
    """
    n = complexity(phi)
    out: set[Formula] = set()
    eqs: list[Id] = []
    queue: list[Formula] = []

    def push(f: Formula) -> bool:
        if f in out:
            return True
        if cap is not None and len(out) >= cap:
            return False
        out.add(f)
        queue.append(f)
        return True

    for f in subformulas(phi):
        if not push(f):
            return None
    # equations bucketed by complexity(left) + complexity(right), so each new
    # equation is composed only against partners the bound can accept
    buckets: dict[int, list[Id]] = {}
    taken = 0
    while queue:
        if check is not None and not taken & 4095:
            check()
        taken += 1
        f = queue.pop()
        if 2 * complexity(f) + 1 <= n and not push(Id(f, f)):
            return None
        if isinstance(f, Id):
            if not push(Imp(f.left, f.right)):
                return None
            if not push(Imp(f.right, f.left)):
                return None
            cf = complexity(f.left) + complexity(f.right)
            for cg in range(n - 3 - cf + 1):
                for g in buckets.get(cg, ()):
                    for e1, e2 in ((f, g), (g, f)):
                        for op in (Imp, Id):
                            if not push(Id(op(e1.left, e2.left), op(e1.right, e2.right))):
                                return None
            if 2 * cf + 3 <= n:
                for op in (Imp, Id):
                    if not push(Id(op(f.left, f.left), op(f.right, f.right))):
                        return None
            buckets.setdefault(cf, []).append(f)
    return frozenset(out)


def extended_subformulas(phi: Formula, budget=None, phase: str | None = None) -> frozenset[Formula]:
    """The extended-subformula set of phi, computed afresh (always finite,
    but it can be large for complex formulas; see
    `extended_subformulas_within`).  Under `budget` (a `prover.Budget`) it
    checks the budget on entry and every 4,096 formulas, so that a large
    closure stops at the deadline of `phase`, "at the closure"."""
    check = None if budget is None else lambda: budget.check(phase, "the closure")
    return _exsub_worklist(phi, None, check)


@lru_cache(maxsize=None)
def extended_subformulas_within(phi: Formula, cap: int) -> frozenset[Formula] | None:
    """Materialize the extended subformulas unless more than `cap` exist."""
    return _exsub_worklist(phi, cap)


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
