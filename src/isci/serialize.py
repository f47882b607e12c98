"""Structured (JSON) documents for verdicts, proofs and models.

Stable keys:

  verdict   {"status": "proved"|"refuted", "formula": str,
             "proof": <proof>?, "model": <model>?}
  proof     {"sequent": str, "steps": [<step>...]}
  step      {"rule": "axiom"|"open"|"L->"|"R->"|"L==1"|"L==2"|"L==3",
             "principal": str?, "principal2": str?, "op": "->"|"=="?}
  model     {"worlds": [str...], "order_pairs": [[str, str]...],
             "valuation": [[formula str, world str, 0|1]...],
             "designated_world": str}

A proof holds its root sequent and its rule instances in preorder, a leaf
as `axiom` or `open`.  A rule's arity (two premises for L->, one for the
other rules) fixes the tree's shape.  `check_proof_doc` feeds the steps to
one `calculus.replay` from the root, which applies each rule once and
builds no tree; each distinct principal text is parsed once.  A proof
without a "steps" list is an input error: that is the nested form
earlier versions wrote, a "sequent" and "premises" at every node, which
is no longer read.

A model's rows are authoritative, and a repeated world, or a second row
for a formula at a world, is an input error.  An equation no row lists is
true at a world exactly when its sides are congruent modulo the
equations listed 1 at that world or below it (the least congruence,
`semantics`); any other unlisted formula is false.

Formulas and sequents are embedded as concrete syntax, so documents are
self-contained and re-parse with the package's own parser.  `dumps` is
the standard library's indented writer: a verdict nests four levels deep,
however large its proof.
"""

from __future__ import annotations

import json
from typing import Any

from .calculus import Derivation, ProofCheckResult, RuleInstance, Sequent, is_axiom, replay
from .formulas import Formula, sort_key
from .parser import parse_formula, parse_sequent
from .printer import format_formula, format_sequent, formatter
from .semantics import KripkeModel


class DocumentError(ValueError):
    pass


def dumps(doc: dict) -> str:
    """`doc` as indented JSON text, with a final newline."""
    return json.dumps(doc, indent=2) + "\n"


def loads(text: str) -> dict:
    """The JSON object `text` holds.  The C scanner reads as deep as the
    interpreter's recursion limit allows; deeper text is a `DocumentError`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError("document nested too deeply") from exc
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    return doc


def proof_doc(d: Derivation) -> dict:
    """`d`'s root sequent and its steps in `Derivation.walk` order."""
    text = formatter()
    steps = []
    for n in d.walk():
        if n.rule is None:
            steps.append({"rule": "axiom" if is_axiom(n.sequent) else "open"})
            continue
        step = {"rule": n.rule.rule}
        if n.rule.principal is not None:
            step["principal"] = text(n.rule.principal)
        if n.rule.principal2 is not None:
            step["principal2"] = text(n.rule.principal2)
        if n.rule.op is not None:
            step["op"] = n.rule.op
        steps.append(step)
    return {"sequent": format_sequent(d.sequent, text), "steps": steps}


def formula_from_doc(text) -> Formula:
    """`parse_formula` on a document's formula field."""
    if not isinstance(text, str):
        raise DocumentError(f"formula must be a string, got {text!r}")
    return parse_formula(text)


class _FormulaTable(dict):
    """One document's formula texts and their formulas, each text parsed once."""

    def formula(self, text) -> Formula:
        """`formula_from_doc(text)`, parsed once per text."""
        f = self.get(text) if isinstance(text, str) else None
        if f is None:
            f = self[text] = formula_from_doc(text)
        return f


# premises a rule has, whether or not it applies
_ARITY = {"axiom": 0, "open": 0, "L->": 2, "R->": 1, "L==1": 1, "L==2": 1, "L==3": 1}


def _field(node, key: str):
    try:
        return node[key]
    except (KeyError, TypeError) as exc:
        raise DocumentError(f"malformed proof node: {exc}") from exc


def _read_step(node, table: _FormulaTable) -> tuple[RuleInstance | None, int, None]:
    """A compact step for `replay`: rule (None at a leaf), arity, no premises."""
    rule_name = _field(node, "rule")
    if not isinstance(rule_name, str) or rule_name not in _ARITY:
        raise DocumentError(f"unknown rule {rule_name!r}")
    if rule_name in ("axiom", "open"):
        return None, 0, None
    principal = table.formula(node["principal"]) if "principal" in node else None
    principal2 = table.formula(node["principal2"]) if "principal2" in node else None
    op = node.get("op")
    if op not in (None, "->", "=="):
        raise DocumentError(f"unknown connective {op!r}")
    return RuleInstance(rule_name, principal, principal2, op), _ARITY[rule_name], None


def check_proof_doc(doc: dict, budget=None) -> ProofCheckResult:
    """`check_proof` on the proof `doc` holds, a verdict document's or its
    own, against the verdict's formula (else the proof's root), in one
    `replay` of its steps: no `Derivation` is built.  Each distinct
    principal text is parsed once."""
    proof = doc.get("proof", doc)
    text = _field(proof, "sequent")
    if not isinstance(text, str):
        raise DocumentError(f"sequent must be a string, got {text!r}")
    root = parse_sequent(text)
    table = _FormulaTable()
    claim = Sequent(frozenset(), formula_from_doc(doc["formula"])) if "formula" in doc else root
    steps = proof.get("steps")
    if steps is None:
        raise DocumentError(
            "proof has no steps list; the nested form, a sequent and premises at each node, is no longer read"
        )
    if not isinstance(steps, list):
        raise DocumentError(f"steps must be a list, got {steps!r}")
    return replay(claim, root, (_read_step(step, table) for step in steps), budget)


# `certbench/spans.py` traces the proof reader under this name.
derivation_from_doc = check_proof_doc


def model_doc(model: KripkeModel, designated: str) -> dict:
    """The document of `model`: its worlds, its order pairs by world and
    its valuation's rows by formula, then world."""
    world_index = {w: i for i, w in enumerate(model.worlds)}
    rows = sorted(model.valuation.items(), key=lambda r: (sort_key(r[0][0]), world_index[r[0][1]]))
    text = formatter()
    return {
        "worlds": list(model.worlds),
        "order_pairs": [list(p) for p in sorted(model.order, key=lambda p: (world_index[p[0]], world_index[p[1]]))],
        "valuation": [[text(f), w, v] for (f, w), v in rows],
        "designated_world": designated,
    }


def model_from_doc(doc: dict):
    """Parse a model document into (KripkeModel, designated world).  A
    repeated world, or a second row for a formula at a world, is an input
    error, however the formula is spelled."""
    try:
        worlds, pairs = doc["worlds"], doc["order_pairs"]
        designated, rows = doc["designated_world"], doc["valuation"]
    except (KeyError, TypeError) as exc:
        raise DocumentError(f"malformed model document: {exc}") from exc
    if not isinstance(worlds, list) or not all(isinstance(w, str) for w in worlds):
        raise DocumentError(f"worlds must be a list of strings, got {worlds!r}")
    for pair in pairs if isinstance(pairs, list) else [pairs]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise DocumentError(f"malformed order pair {pair!r}")
    if not worlds:
        raise DocumentError("model needs at least one world")
    if len(set(worlds)) < len(worlds):
        repeated = next(w for i, w in enumerate(worlds) if w in worlds[:i])
        raise DocumentError(f"repeated world {repeated!r}")
    if designated not in worlds:
        raise DocumentError("designated world is not a world")
    valuation: dict[tuple[Formula, str], int] = {}
    table = _FormulaTable()
    for row in rows:
        try:
            text, world, value = row
        except (TypeError, ValueError) as exc:
            raise DocumentError(f"malformed valuation row {row!r}") from exc
        if world not in worlds:
            raise DocumentError(f"valuation row for unknown world {world!r}")
        if type(value) is not int or value not in (0, 1):
            raise DocumentError(f"valuation value must be 0 or 1, got {value!r}")
        key = (table.formula(text), world)
        if key in valuation:
            raise DocumentError(f"repeated valuation row for {format_formula(key[0])} at {world!r}")
        valuation[key] = value
    for a, b in pairs:
        if a not in worlds or b not in worlds:
            raise DocumentError(f"order pair ({a!r}, {b!r}) outside the world set")
    return KripkeModel(tuple(worlds), frozenset(map(tuple, pairs)), valuation), designated


def verdict_doc(formula: Formula, proof: Derivation | None = None, model: dict | None = None) -> dict:
    doc: dict[str, Any] = {
        "status": "proved" if proof is not None else "refuted",
        "formula": format_formula(formula),
    }
    if proof is not None:
        doc["proof"] = proof_doc(proof)
    if model is not None:
        doc["model"] = model
    return doc
