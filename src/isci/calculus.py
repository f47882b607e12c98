"""Sequents, the five inference rules, derivation trees and a proof checker.

Rules are applied backward (root first): `apply_rule` maps a conclusion and
a rule instance to the list of premises.  Antecedents are sets, so premises
never duplicate formulas and every rule keeps the conclusion's antecedent
(reading upward, antecedents only grow).  `relevant` drops the identity
steps of a derivation whose additions nothing above reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .formulas import (
    BOT,
    Formula,
    Id,
    Imp,
    sort_key,
)

L_IMP = "L->"
R_IMP = "R->"
L_ID1 = "L==1"
L_ID2 = "L==2"
L_ID3 = "L==3"

RULE_PRIORITY = {L_ID1: 0, L_ID2: 1, L_ID3: 2, R_IMP: 3, L_IMP: 4}

OP_IMP = "->"
OP_ID = "=="
_OPS = {OP_IMP: Imp, OP_ID: Id}


class InapplicableRuleError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Sequent:
    antecedent: frozenset[Formula]
    succedent: Formula

    def with_antecedent(self, *extra: Formula) -> "Sequent":
        return Sequent(self.antecedent.union(extra), self.succedent)


def sequent(antecedent, succedent: Formula) -> Sequent:
    return Sequent(frozenset(antecedent), succedent)


@dataclass(frozen=True, slots=True)
class RuleInstance:
    """A rule tag plus the data that pins down one backward application.

    principal: for L-> the antecedent implication, for L==1 the formula
    whose reflexive equation is introduced, for L==2 the antecedent
    equation, for L==3 the first of the two equations (principal2 the
    second, op the connective used to compose them).
    """

    rule: str
    principal: Formula | None = None
    principal2: Formula | None = None
    op: str | None = None

    def order_key(self):
        return (
            RULE_PRIORITY[self.rule],
            sort_key(self.principal) if self.principal is not None else (),
            sort_key(self.principal2) if self.principal2 is not None else (),
            self.op or "",
        )


def is_axiom(s: Sequent) -> bool:
    """Axioms: the succedent occurs on the left, or falsum does."""
    return s.succedent in s.antecedent or BOT in s.antecedent


def compose_equations(e1: Id, e2: Id, op: str) -> Id:
    ctor = _OPS[op]
    return Id(ctor(e1.left, e2.left), ctor(e1.right, e2.right))


def apply_rule(s: Sequent, r: RuleInstance) -> list[Sequent]:
    """Premises of rule `r` applied backward to `s` (left premise first)."""
    if r.rule == L_IMP:
        p = r.principal
        if not isinstance(p, Imp) or p not in s.antecedent:
            raise InapplicableRuleError(f"L-> needs its implication in the antecedent")
        return [
            Sequent(s.antecedent, p.left),
            s.with_antecedent(p.right),
        ]
    if r.rule == R_IMP:
        succ = s.succedent
        if not isinstance(succ, Imp):
            raise InapplicableRuleError("R-> needs an implication succedent")
        return [Sequent(s.antecedent | {succ.left}, succ.right)]
    if r.rule == L_ID1:
        if r.principal is None:
            raise InapplicableRuleError("L==1 needs the formula to reflect")
        return [s.with_antecedent(Id(r.principal, r.principal))]
    if r.rule == L_ID2:
        e = r.principal
        if not isinstance(e, Id) or e not in s.antecedent:
            raise InapplicableRuleError("L==2 needs its equation in the antecedent")
        return [s.with_antecedent(Imp(e.left, e.right), Imp(e.right, e.left))]
    if r.rule == L_ID3:
        e1, e2 = r.principal, r.principal2
        if (
            not isinstance(e1, Id)
            or not isinstance(e2, Id)
            or e1 not in s.antecedent
            or e2 not in s.antecedent
            or r.op not in _OPS
        ):
            raise InapplicableRuleError("L==3 needs two antecedent equations and a connective")
        return [s.with_antecedent(compose_equations(e1, e2, r.op))]
    raise InapplicableRuleError(f"unknown rule {r.rule!r}")


def _added(s: Sequent, r: RuleInstance) -> tuple[Formula, ...]:
    """The formulas the applicable rule `r` adds at `s`, to its last premise."""
    if r.rule == L_IMP:
        return (r.principal.right,)
    if r.rule == R_IMP:
        return (s.succedent.left,)
    if r.rule == L_ID1:
        return (Id(r.principal, r.principal),)
    if r.rule == L_ID2:
        return (Imp(r.principal.left, r.principal.right), Imp(r.principal.right, r.principal.left))
    return (compose_equations(r.principal, r.principal2, r.op),)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Derivation:
    """A derivation tree node, compared by identity (generated methods
    would recurse once per level).  `rule` is None exactly at leaves; a
    leaf is an axiom leaf or an open leaf depending on `is_axiom(sequent)`."""

    sequent: Sequent
    rule: RuleInstance | None = None
    children: tuple["Derivation", ...] = ()

    def walk(self) -> Iterator["Derivation"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def tour(self) -> Iterator[tuple["Derivation", int, bool]]:
        """Each node with its depth, entering (True) in `walk`'s order and
        leaving (False) once its premises' subtrees are left; no recursion."""
        stack = [(self, 0, True)]
        while stack:
            event = stack.pop()
            yield event
            node, depth, entering = event
            if entering:
                stack.append((node, depth, False))
                stack.extend([(c, depth + 1, True) for c in reversed(node.children)])

    def formulas(self) -> frozenset[Formula]:
        out: set[Formula] = set()
        for node in self.walk():
            out |= node.sequent.antecedent
            out.add(node.sequent.succedent)
        return frozenset(out)


def relevant(proof: Derivation) -> Derivation:
    """`proof` without the identity steps whose additions nothing above
    reads, each kept step applied again by `apply_rule` from the root up.

    A subtree reads antecedent formulas of its root sequent: an axiom leaf
    its succedent, else `#`; a rule its premises' reads less what it adds,
    plus its principals (L->, L==2 and L==3) and what it would add that the
    conclusion already holds.  An identity step none of whose new formulas
    its premise reads is dropped.  Each kept sequent then holds its reads,
    and each kept rule adds what it added before, so the result is a proof
    of the same root whose steps are a subsequence of `proof`'s, and a
    second pass keeps them all.  Explicit stacks, no recursion."""
    reads: list[set[Formula]] = []  # of the subtrees left, the last on top
    dropped: set[Derivation] = set()
    for node, _, entering in proof.tour():
        if entering:
            continue
        seq, r = node.sequent, node.rule
        if r is None:
            reads.append({seq.succedent if seq.succedent in seq.antecedent else BOT})
            continue
        above = reads.pop()
        for _ in node.children[1:]:
            above |= reads.pop()
        adds = _added(seq, r)
        new = [f for f in adds if f not in seq.antecedent]
        if r.rule in (L_ID1, L_ID2, L_ID3) and above.isdisjoint(new):
            dropped.add(node)
        else:
            above.difference_update(new)
            above.update(f for f in adds if f in seq.antecedent)
            if r.rule not in (R_IMP, L_ID1):
                above.update(f for f in (r.principal, r.principal2) if f is not None)
        reads.append(above)
    if not dropped:
        return proof
    pending, sequents, built = [proof.sequent], [], []  # built: the subtrees left
    for node, _, entering in proof.tour():
        if entering:
            seq = pending.pop()
            sequents.append(seq)
            if node in dropped:
                pending.append(seq)
            elif node.rule is not None:
                pending.extend(reversed(apply_rule(seq, node.rule)))
        else:
            seq = sequents.pop()
            if node not in dropped:
                n = len(built) - len(node.children)
                built[n:] = [Derivation(seq, node.rule, tuple(built[n:]))]
    return built[0]


@dataclass(frozen=True, slots=True)
class ProofCheckResult:
    ok: bool
    error: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_proof(d: Derivation, claim: Sequent) -> ProofCheckResult:
    """Independent proof checker: the root must be `claim`, every inner
    node's children must be exactly the premises `apply_rule` yields, and
    every leaf must be an axiom.  `replay` fed by `d.walk()`: it shares
    nothing with the search beyond `apply_rule` and `is_axiom`."""
    steps = ((n.rule, len(n.children), [c.sequent for c in n.children]) for n in d.walk())
    return replay(claim, d.sequent, steps)


def replay(claim: Sequent, root: Sequent, steps, learn=None, budget=None) -> ProofCheckResult:
    """Check, against `claim`, the proof of `root` whose steps `steps`
    yields in preorder, with one `apply_rule` per step.  A step is (rule,
    None at a leaf; number of premise steps; the premises' stored sequents,
    an iterable, or None).  Below a rejected step steps are only counted.
    A shape error wins, then a root that is not `claim`, then the last
    rejected step, the first in `check_proof`'s order (last child first).
    `learn(sequent, premises)` sees a rule's premises before they are
    compared or the next step is read; `budget` is checked every 4,096 steps."""
    from .printer import format_sequent

    expected: list[Sequent | None] = [root]
    error = None
    for count, (rule, arity, stored) in enumerate(steps):
        if not expected:
            return ProofCheckResult(False, "steps after the proof's last leaf")
        seq = expected.pop()
        if budget is not None and not count & 4095:
            budget.check("check-proof", "the proof check")
        if seq is not None and rule is None:
            if arity:
                error = f"leaf with children at {format_sequent(seq)}"
            elif not is_axiom(seq):
                error = f"open leaf {format_sequent(seq)}"
        elif seq is not None:
            try:
                premises = apply_rule(seq, rule)
            except InapplicableRuleError as exc:
                error = f"{rule.rule} not applicable at {format_sequent(seq)}: {exc}"
            else:
                if learn is not None:
                    learn(seq, premises)
                if stored is None or list(stored) == premises:
                    expected.extend(reversed(premises))
                    continue
                error = f"premise mismatch at {format_sequent(seq)} for {rule.rule}"
        if arity:
            expected.extend([None] * arity)
    if expected:
        return ProofCheckResult(False, "the steps end before the proof does")
    if root != claim:
        error = f"root is {format_sequent(root)}, claim is {format_sequent(claim)}"
    return ProofCheckResult(error is None, error)
