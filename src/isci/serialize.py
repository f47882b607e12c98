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
builds no tree.  It also takes the nested form, in which every node is a
step that holds its "sequent" and its "premises": [<node>...].

A model's rows are authoritative.  An equation no row lists is true at a
world exactly when its sides are congruent modulo the equations listed 1
at that world or below it (the least congruence, `semantics`); any other
unlisted formula is false.

Formulas and sequents are embedded as concrete syntax, so documents are
self-contained and re-parse with the package's own parser.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .calculus import Derivation, ProofCheckResult, RuleInstance, Sequent, is_axiom, replay
from .formulas import Formula, sort_key, subformulas
from .parser import ParseError, parse_formula, parse_sequent
from .printer import format_formula, format_sequent, formatter
from .semantics import KripkeModel


class DocumentError(ValueError):
    pass


def dumps(doc: dict) -> str:
    """`json.dumps(doc, indent=2) + "\\n"`, byte for byte, for dicts, lists,
    str, int, bool and None.  It is faster: with `indent` the standard library
    encodes in pure Python, through one generator per nesting level."""
    pieces: list[str] = []
    append = pieces.append

    def write(value, newline: str) -> None:
        if isinstance(value, str):
            append(_quote(value))
        elif type(value) is int:
            append(int.__repr__(value))
        elif isinstance(value, (dict, list)) and value:
            inner, keyed = newline + "  ", isinstance(value, dict)
            separator = ("{" if keyed else "[") + inner
            for item in value.items() if keyed else value:
                append(separator)
                if keyed:
                    append(_quote(item[0]) + ": ")
                    item = item[1]
                write(item, inner)
                separator = "," + inner
            append(newline + ("}" if keyed else "]"))
        else:
            append(json.dumps(value))  # None, booleans and empty containers

    write(doc, "\n")
    return "".join(pieces) + "\n"


# The JSON nesting `loads` reads, counting the Python frames below it.  A
# proof's steps sit four levels deep in a verdict, however deep the proof;
# a nested proof takes two levels a node, so one about 5,000 nodes deep
# loads.  The standard library's C scanner takes about 120 bytes of stack
# per level (CPython 3.11, x86-64 Linux), about 1.2 MB of a main thread's
# usual 8 MB.
NESTING = 10_000


def loads(text: str) -> dict:
    """The JSON object `text` holds.  The interpreter's recursion limit,
    which bounds the nesting the C scanner reads, is `NESTING` for the
    call, whatever it was before; deeper text is a `DocumentError`."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(NESTING)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError(f"document nested more than about {NESTING} levels deep") from exc
    finally:
        sys.setrecursionlimit(saved)
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
    """One document's formula texts and their formulas.  Each entry is what
    `parse_formula` gives for its text: a parse is entered under the text
    it read, and `learn` enters formulas under their printed texts, since
    `parse_formula(format_formula(f))` is `f`."""

    def __init__(self):
        super().__init__()
        self.formatted = formatter()

    def learn(self, formulas) -> None:
        for f in formulas:
            self[self.formatted(f)] = f

    def learn_premises(self, seq: Sequent, premises) -> None:
        """Enter the formulas that `premises` add to `seq`."""
        for premise in premises:
            self.learn(premise.antecedent - seq.antecedent)
            self.learn((premise.succedent,))

    def formula(self, text) -> Formula:
        """`formula_from_doc(text)`, parsed once per text."""
        f = self.get(text) if isinstance(text, str) else None
        if f is None:
            f = self[text] = formula_from_doc(text)
        return f

    def parse(self, text: str) -> Formula:
        """`parse_formula(text)`, entered with its subformulas."""
        f = self[text] = parse_formula(text)
        self.learn(subformulas(f))
        return f


def _parse_sequent(text, table: _FormulaTable) -> Sequent:
    """`parse_sequent` via the table.  Text the writer printed, `A, B |- C`
    or `|- C`, splits into table keys; text with a part the table misses
    goes to `_parse_parts`, and text whose parts do not parse to
    `parse_sequent`, which gives its errors their positions."""
    if not isinstance(text, str):
        raise DocumentError(f"sequent must be a string, got {text!r}")
    if text.startswith("|- "):
        parts = [text[3:]]
    else:
        left, _, right = text.partition(" |- ")
        parts = left.split(", ")
        parts.append(right)
    found = list(map(table.get, parts))
    if None in found:
        found = _parse_parts(text, table)
    if found is not None:
        succedent = found.pop()
        return Sequent(frozenset(found), succedent)
    return parse_sequent(text)


def _parse_parts(text: str, table: _FormulaTable) -> list[Formula] | None:
    """The formulas of a sequent's text, succedent last, or None if a part
    does not parse.  No formula holds ',', '|-' or '⇒', so the text splits
    at them, and each part the table misses is parsed."""
    left, turnstile, right = text.partition("|-")
    if not turnstile:
        left, _, right = text.partition("⇒")
    parts = left.split(",") if left.strip() else []
    parts.append(right)
    found = []
    for part in parts:
        part = part.strip()
        f = table.get(part)
        if f is None:
            try:
                f = table.parse(part)
            except ParseError:
                return None
        found.append(f)
    return found


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


def _nested_steps(node, table: _FormulaTable):
    """A nested document's steps in preorder, with their premises' stored
    sequents: parsed after `replay` learns the premises, or after the step."""
    stack = [node]
    while stack:
        node = stack.pop()
        rule = _read_step(node, table)[0]
        premises = node.get("premises", [])
        if not isinstance(premises, list):
            raise DocumentError(f"premises must be a list, got {premises!r}")
        if rule is None and premises:
            raise DocumentError("leaf node with premises")
        stored = (_parse_sequent(_field(p, "sequent"), table) for p in premises)
        yield rule, len(premises), stored
        list(stored)  # read, and rejected if malformed, even below a rule that does not apply
        stack.extend(reversed(premises))


def check_proof_doc(doc: dict, budget=None) -> ProofCheckResult:
    """`check_proof` on the proof `doc` holds, a verdict document's or its
    own, against the verdict's formula (else the proof's root), in one
    `replay` of its steps: no `Derivation` is built.  The root sequent is
    parsed, and the formulas each rule's premises add enter the table, so
    later principals are looked up."""
    proof = doc.get("proof", doc)
    table = _FormulaTable()
    root = _parse_sequent(_field(proof, "sequent"), table)
    claim = Sequent(frozenset(), formula_from_doc(doc["formula"])) if "formula" in doc else root
    steps = proof.get("steps")
    if steps is None:
        steps = _nested_steps(proof, table)
    elif isinstance(steps, list):
        steps = (_read_step(step, table) for step in steps)
    else:
        raise DocumentError(f"steps must be a list, got {steps!r}")
    return replay(claim, root, steps, table.learn_premises, budget)


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
    """Parse a model document into (KripkeModel, designated world)."""
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
        valuation[(table.formula(text), world)] = value
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
