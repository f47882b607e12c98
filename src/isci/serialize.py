"""Structured (JSON) documents for verdicts, proofs and models.

Stable keys:

  verdict   {"status": "proved"|"refuted", "formula": str,
             "proof": <proof node>?, "model": <model>?}
  proof     {"sequent": str, "rule": "axiom"|"open"|"L->"|"R->"|"L==1"|
             "L==2"|"L==3", "principal": str?, "principal2": str?,
             "op": "->"|"=="?, "premises": [<proof node>...]}
  model     {"worlds": [str...], "order_pairs": [[str, str]...],
             "valuation": [[formula str, world str, 0|1]...],
             "designated_world": str}

Formulas and sequents are embedded as concrete syntax, so documents are
self-contained and re-parse with the package's own parser.
"""

from __future__ import annotations

import json
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .calculus import Derivation, RuleInstance, Sequent, is_axiom
from .formulas import Formula, sort_key
from .parser import ParseError, parse_formula, parse_sequent
from .printer import derivation_order, format_formula, format_sequent


class DocumentError(ValueError):
    pass


def dumps(doc: dict) -> str:
    """`json.dumps(doc, indent=2) + "\\n"`, byte for byte, in one pass.

    With `indent` the standard library encodes in pure Python, passing each
    piece up through one generator per nesting level, so a deep proof costs
    depth times size; this writer appends every piece to one list.  It takes
    what documents hold: dicts with string keys, lists, strings, ints,
    booleans and None."""
    pieces: list[str] = []
    append = pieces.append

    def write(value, newline: str) -> None:
        if isinstance(value, str):
            append(_quote(value))
        elif isinstance(value, dict):
            if not value:
                append("{}")
                return
            inner = newline + "  "
            separator = "{" + inner
            for k, v in value.items():
                append(separator)
                append(_quote(k))
                append(": ")
                write(v, inner)
                separator = "," + inner
            append(newline + "}")
        elif isinstance(value, list):
            if not value:
                append("[]")
                return
            inner = newline + "  "
            separator = "[" + inner
            for v in value:
                append(separator)
                write(v, inner)
                separator = "," + inner
            append(newline + "]")
        elif value is None:
            append("null")
        elif value is True:
            append("true")
        elif value is False:
            append("false")
        elif isinstance(value, int):
            append(int.__repr__(value))
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    write(doc, "\n")
    append("\n")
    return "".join(pieces)


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    return doc


def proof_doc(d: Derivation) -> dict:
    text = cache(format_formula)
    key = derivation_order(d)

    def node_doc(n: Derivation) -> dict:
        node: dict[str, Any] = {"sequent": format_sequent(n.sequent, text, key)}
        if n.rule is None:
            node["rule"] = "axiom" if is_axiom(n.sequent) else "open"
        else:
            node["rule"] = n.rule.rule
            if n.rule.principal is not None:
                node["principal"] = text(n.rule.principal)
            if n.rule.principal2 is not None:
                node["principal2"] = text(n.rule.principal2)
            if n.rule.op is not None:
                node["op"] = n.rule.op
        node["premises"] = [node_doc(c) for c in n.children]
        return node

    return node_doc(d)


def formula_from_doc(text, memo: dict[str, Formula] | None = None) -> Formula:
    """`parse_formula` on a document's formula field, once per distinct
    string of the document when the caller keeps `memo`."""
    if not isinstance(text, str):
        raise DocumentError(f"formula must be a string, got {text!r}")
    if memo is None:
        return parse_formula(text)
    f = memo.get(text)
    if f is None:
        f = memo[text] = parse_formula(text)
    return f


def _parse_sequent(text, memo: dict[str, Formula]) -> Sequent:
    """`parse_sequent` via the memo.  No formula holds ',' or '|-', so the text
    splits at them; text whose parts do not parse ('⇒', say) goes to `parse_sequent`."""
    if isinstance(text, str):
        left, _, right = text.partition("|-")
        try:
            parts = left.split(",") if left.strip() else []
            ante = [formula_from_doc(t.strip(), memo) for t in parts]
            return Sequent(frozenset(ante), formula_from_doc(right.strip(), memo))
        except ParseError:
            pass
    return parse_sequent(text)


def derivation_from_doc(doc: dict, _memo: dict[str, Formula] | None = None) -> Derivation:
    memo = {} if _memo is None else _memo
    try:
        seq = _parse_sequent(doc["sequent"], memo)
        rule_name = doc["rule"]
        premises = doc.get("premises", [])
    except (KeyError, TypeError) as exc:
        raise DocumentError(f"malformed proof node: {exc}") from exc
    if not isinstance(premises, list):
        raise DocumentError(f"premises must be a list, got {premises!r}")
    children = tuple(derivation_from_doc(p, memo) for p in premises)
    if rule_name in ("axiom", "open"):
        if children:
            raise DocumentError("leaf node with premises")
        return Derivation(seq)
    if rule_name not in ("L->", "R->", "L==1", "L==2", "L==3"):
        raise DocumentError(f"unknown rule {rule_name!r}")
    principal = formula_from_doc(doc["principal"], memo) if "principal" in doc else None
    principal2 = formula_from_doc(doc["principal2"], memo) if "principal2" in doc else None
    op = doc.get("op")
    if op not in (None, "->", "=="):
        raise DocumentError(f"unknown connective {op!r}")
    rule = RuleInstance(rule_name, principal=principal, principal2=principal2, op=op)
    return Derivation(seq, rule, children)


def model_doc(
    worlds: list[str],
    order_pairs: list[tuple[str, str]],
    rows: list[tuple[Formula, str, int]],
    designated: str,
) -> dict:
    world_index = {w: i for i, w in enumerate(worlds)}
    rows_sorted = sorted(rows, key=lambda r: (sort_key(r[0]), world_index[r[1]]))
    return {
        "worlds": list(worlds),
        "order_pairs": [list(p) for p in sorted(order_pairs, key=lambda p: (world_index[p[0]], world_index[p[1]]))],
        "valuation": [[format_formula(f), w, v] for f, w, v in rows_sorted],
        "designated_world": designated,
    }


def model_from_doc(doc: dict):
    """Parse a model document into (KripkeModel, designated world)."""
    from .semantics import KripkeModel

    try:
        worlds = tuple(doc["worlds"])
        pairs = frozenset((a, b) for a, b in doc["order_pairs"])
        designated = doc["designated_world"]
        rows = doc["valuation"]
    except (KeyError, TypeError) as exc:
        raise DocumentError(f"malformed model document: {exc}") from exc
    if not worlds:
        raise DocumentError("model needs at least one world")
    if designated not in worlds:
        raise DocumentError("designated world is not a world")
    valuation: dict[tuple[Formula, str], int] = {}
    memo: dict[str, Formula] = {}
    for row in rows:
        try:
            text, world, value = row
        except (TypeError, ValueError) as exc:
            raise DocumentError(f"malformed valuation row {row!r}") from exc
        if world not in worlds:
            raise DocumentError(f"valuation row for unknown world {world!r}")
        if value not in (0, 1):
            raise DocumentError(f"valuation value must be 0 or 1, got {value!r}")
        valuation[(formula_from_doc(text, memo), world)] = value
    for a, b in pairs:
        if a not in worlds or b not in worlds:
            raise DocumentError(f"order pair ({a!r}, {b!r}) outside the world set")
    return KripkeModel(worlds, pairs, valuation), designated


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
