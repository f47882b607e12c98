"""Formula language for intuitionistic sentential logic with identity.

The language has propositional variables, falsum, implication and a binary
identity connective.  Identity is a connective, not meta-level equality:
``Id(p, q)`` and ``Id(q, p)`` are distinct formulas.  Nodes are interned:
constructing a formula twice yields the same object, in any thread, so
structural equality coincides with identity and hashing is constant
time.  Each node carries its complexity `c` and its order key `key`, set
once when it is interned.  Formulas are immutable; never write to their
fields.  The walks over a formula run on explicit stacks, so a formula of
any depth is walked under any recursion limit.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable


class Formula:
    """Base class of formula nodes: complexity `c`, order key `key`."""

    __slots__ = ("c", "key")

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
            f.name, f.c, f.key = name, 0, (1, name)
            f = cls._interned.setdefault(name, f)
        return f


class Bottom(Formula):
    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            f = cls._instance = super().__new__(cls)
            f.c, f.key = 0, (0,)
        return cls._instance


class _Binary(Formula):
    __slots__ = ("left", "right")
    _interned: dict  # per subclass, as is _rank, the first entry of the order key

    def __new__(cls, left: Formula, right: Formula):
        key = (left, right)
        f = cls._interned.get(key)
        if f is None:
            f = super().__new__(cls)
            f.left, f.right = left, right
            f.c, f.key = left.c + right.c + 1, (cls._rank, left.key, right.key)
            f = cls._interned.setdefault(key, f)
        return f


class Imp(_Binary):
    __slots__ = ()
    _interned = {}
    _rank = 2


class Id(_Binary):
    __slots__ = ()
    _interned = {}
    _rank = 3


BOT = Bottom()


def in_form0(f: Formula) -> bool:
    """Atomic-for-valuation formulas: variables and equations."""
    return isinstance(f, (Var, Id))


def complexity(f: Formula) -> int:
    """0 for variables and falsum; c(l) + c(r) + 1 for both connectives."""
    return f.c


def sort_key(f: Formula):
    """Total-order key: Bottom < Var < Imp < Id, then lexicographic."""
    return f.key


def sorted_formulas(fs: Iterable[Formula]) -> list[Formula]:
    return sorted(fs, key=sort_key)


def parts_first(f: Formula, seen: set) -> list[Formula]:
    """`f` and its parts not in `seen`, each added to `seen`, parts before
    wholes and left before right.  The walk runs on an explicit stack, so
    a formula of any depth walks under any recursion limit."""
    seen.add(f)
    stack, out = [f], []
    while stack:
        g = stack[-1]
        if isinstance(g, _Binary):
            if g.left not in seen:
                seen.add(g.left)
                stack.append(g.left)
                continue
            if g.right not in seen:
                seen.add(g.right)
                stack.append(g.right)
                continue
        out.append(stack.pop())
    return out


def solve(question, lookup, ask):
    """The answer to `question`: `lookup(question)` unless that is None,
    else what the generator `ask(question)` returns.  A generator yields
    each question it needs answered and is sent its answer, found the same
    way; the generators wait on one explicit stack, so nothing recurses."""
    answer = lookup(question)
    stack = [] if answer is not None else [ask(question)]
    while stack:
        try:
            question = stack[-1].send(answer)
        except StopIteration as done:
            stack.pop()
            answer = done.value
            continue
        answer = lookup(question)
        if answer is None:
            stack.append(ask(question))
    return answer


@lru_cache(maxsize=None)
def subformulas(f: Formula) -> frozenset[Formula]:
    seen: set[Formula] = set()
    parts_first(f, seen)
    return frozenset(seen)  # sized to fit, as a copy of a set is


def sub_closure(fs: Iterable[Formula]) -> frozenset[Formula]:
    out: set[Formula] = set()
    for f in fs:
        out |= subformulas(f)
    return frozenset(out)


@lru_cache(maxsize=None)
def variables(f: Formula) -> frozenset[Var]:
    return frozenset(g for g in subformulas(f) if isinstance(g, Var))


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


def in_extended_subformulas(psi: Formula, phi: Formula) -> bool:
    """Membership test that never materializes the whole closure.

    Works top-down: an equation is a member if it is a plain subformula, a
    reflexive equation over a member, or a bounded composition of member
    equations; an implication is a member if it is a plain subformula or
    the split of a member equation.  The questions this asks of smaller
    formulas are `solve`d, without recursion.
    """
    return solve(psi, *_membership(phi))


@lru_cache(maxsize=None)
def _membership(phi: Formula):
    """The lookup and the rules that `in_extended_subformulas` solves with
    for `phi`, sharing one table of answers.  The lookup answers what needs
    no rule: a subformula, a formula above the bound, a reflexive equation
    over a subformula and a formula decided before."""
    sub, known = subformulas(phi), {}

    def answered(chi: Formula) -> bool | None:
        if chi.c > phi.c:
            return False
        if chi in sub or type(chi) is Id and chi.left is chi.right and chi.left in sub:
            return True
        return known.get(chi)

    def decide(psi: Formula):
        # yields each formula whose membership it needs and is sent the answer
        member = False
        if isinstance(psi, Id):
            l, r = psi.left, psi.right
            member = l is r and (yield l)
            if not member and type(l) is type(r) and isinstance(l, (Imp, Id)):
                member = (yield Id(l.left, r.left)) and (yield Id(l.right, r.right))
        elif isinstance(psi, Imp):
            member = (yield Id(psi.left, psi.right)) or (yield Id(psi.right, psi.left))
        known[psi] = member
        return member

    return answered, decide
