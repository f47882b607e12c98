"""Sequents, the five inference rules, derivation trees and a proof checker.

Rules are applied backward (root first): `apply_rule` maps a conclusion and
a rule instance to the list of premises.  Antecedents are sets, so premises
never duplicate formulas and every rule keeps the conclusion's antecedent
(reading upward, antecedents only grow).  `prune` drops the identity
steps whose additions nothing above reads, from a derivation (`relevant`)
or from a proof described node by node, as the prover's tables hold it.
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


def added(s: Sequent | None, r: RuleInstance) -> tuple[Formula, ...]:
    """The formulas the applicable rule `r` adds at `s`, to its last premise;
    an identity rule's do not depend on `s`, which may be None."""
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


def fresh(s: Sequent, r: RuleInstance) -> tuple[Formula, ...]:
    """The formulas the applicable rule `r` adds at `s` that `s` lacks."""
    return tuple(f for f in added(s, r) if f not in s.antecedent)


def relevant(proof: Derivation) -> Derivation:
    """`proof` without the identity steps whose additions nothing above
    reads (`prune`), or `proof` itself when every step is read."""
    kept = _read_down(proof, _tree_shape)
    if all(all(flags) for _, flags in kept.values()):
        return proof
    return _build_up(proof.sequent, proof, kept)


def _tree_shape(d: Derivation):
    """A derivation node as `prune` reads it: one rule, or a leaf."""
    steps = () if d.rule is None else ((d.rule, fresh(d.sequent, d.rule)),)
    return d.sequent, steps, d.children


def prune(root: Sequent, shape) -> Derivation:
    """The proof of `root` that `shape` describes, without the identity
    steps whose additions nothing above reads, each kept step applied
    again by `apply_rule` from the root up.

    `shape(node)` gives a node's sequent, its steps as (rule instance, the
    formulas it adds that its conclusion lacks) pairs, bottom first, and
    the nodes of the last step's premises; a node with no steps is a leaf.
    Every step but the last is an identity step with one premise, so a
    node is a whole saturation chain, or one rule of a tree.  `root`, a
    sequent, is also the first node.  Equal nodes must have equal shapes:
    each node's reads are computed once.

    A subtree reads antecedent formulas of its root sequent: an axiom leaf
    its succedent, else `#`; a rule its premises' reads less what it adds,
    plus its principals (L->, L==2 and L==3) and what it would add that the
    conclusion already holds.  An identity step none of whose new formulas
    its premise reads is dropped.  Each kept sequent then holds its reads,
    and each kept rule adds what it added before, so the result is a proof
    of the same root whose steps are a subsequence of the described ones,
    and a second pass keeps them all.  Explicit stacks, no recursion."""
    return _build_up(root, root, _read_down(root, shape))


def _read_down(top, shape) -> dict:
    """Each node under `top` -> (its shape, whether each step is kept),
    from the leaves down."""
    reads: dict = {}  # node -> the antecedent formulas its subtree reads
    kept: dict = {}
    stack = [(top, False)]
    while stack:
        node, ready = stack.pop()
        if node in reads:
            continue
        if not ready:
            described = shape(node)
            kept[node] = described, []
            stack.append((node, True))
            stack.extend((p, False) for p in described[2] if p not in kept)
            continue
        (seq, steps, premises), flags = kept[node]
        if steps:
            above = set().union(*(reads[p] for p in premises))
        else:
            above = {seq.succedent if seq.succedent in seq.antecedent else BOT}
        for r, new in reversed(steps):
            if r.rule in (L_ID1, L_ID2, L_ID3) and above.isdisjoint(new):
                flags.append(False)
                continue
            flags.append(True)
            above.difference_update(new)
            above.update(f for f in added(seq, r) if f not in new)
            if r.rule not in (R_IMP, L_ID1):
                above.update(f for f in (r.principal, r.principal2) if f is not None)
        flags.reverse()
        reads[node] = above
    return kept


def _build_up(root: Sequent, top, kept: dict) -> Derivation:
    """The derivation of `root` with the steps `kept` keeps under `top`,
    applied from the root up."""
    built: list[Derivation] = []  # the subtrees finished, the last on top
    # a node with its sequent, or (None, its kept steps and premise count)
    stack: list = [(top, root)]
    while stack:
        node, seq = stack.pop()
        if node is None:  # the node's premises are built: finish it
            applied, n = seq
            children = tuple(built[len(built) - n:])
            del built[len(built) - n:]
            for conclusion, r in reversed(applied):
                children = (Derivation(conclusion, r, children),)
            built.append(children[0])
            continue
        (_, steps, premises), flags = kept[node]
        if not steps:
            built.append(Derivation(seq))
            continue
        applied = []  # the kept steps with their conclusions, bottom first
        above = [seq]  # the premises of the kept steps so far, at first `seq`
        for (r, _), keep in zip(steps, flags):
            if keep:
                applied.append((above[0], r))
                above = apply_rule(above[0], r)
        stack.append((None, (applied, len(premises))))
        stack.extend(reversed(list(zip(premises, above))))
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


def replay(claim: Sequent, root: Sequent, steps, budget=None) -> ProofCheckResult:
    """Check, against `claim`, the proof of `root` whose steps `steps`
    yields in preorder, with one `apply_rule` per step.  A step is (rule,
    None at a leaf; number of premise steps; the premises' stored sequents,
    an iterable, or None).  Below a rejected step steps are only counted.
    A shape error wins, then a root that is not `claim`, then the last
    rejected step, the first in `check_proof`'s order (last child first).
    `budget` is checked every 4,096 steps."""
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
