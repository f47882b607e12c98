"""Instrumented invariants asserted on every derivation the system builds.

* antecedent inheritance: reading upward, antecedents never lose formulas;
* no branch repeats a sequent (the loop check actually held);
* the extended-subformula property: every formula in the tree lies in the
  component closure of the extended subformulas of the goal.  The closure
  (rather than bare membership) is needed because splitting a composed
  equation and then applying L-> exposes components that are not
  themselves members.
"""

from __future__ import annotations

from .calculus import Derivation
from .formulas import Formula, in_extended_subformulas, sub_closure


class InvariantError(AssertionError):
    pass


def antecedents_inherited(d: Derivation) -> bool:
    for node, _, entering in d.tour():
        if entering:
            for child in node.children:
                if not node.sequent.antecedent <= child.sequent.antecedent:
                    return False
    return True


def no_branch_repetition(d: Derivation) -> bool:
    seen: set = set()
    for node, _, entering in d.tour():
        if not entering:
            seen.discard(node.sequent)
        elif node.sequent in seen:
            return False
        else:
            seen.add(node.sequent)
    return True


def extended_subformula_offenders(d: Derivation, goal: Formula) -> list[Formula]:
    formulas = d.formulas()
    members = {f for f in formulas if in_extended_subformulas(f, goal)}
    closure = sub_closure(members)
    return [f for f in formulas if f not in closure]


def assert_restricted_derivation(d: Derivation, goal: Formula) -> None:
    from .printer import format_formula

    if not antecedents_inherited(d):
        raise InvariantError("antecedent lost on the way up a derivation")
    if not no_branch_repetition(d):
        raise InvariantError("a branch repeats a sequent")
    offenders = extended_subformula_offenders(d, goal)
    if offenders:
        names = ", ".join(format_formula(f) for f in offenders[:3])
        raise InvariantError(f"formulas outside the extended-subformula closure: {names}")
