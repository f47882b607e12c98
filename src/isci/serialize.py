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
import sys
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .calculus import Derivation, InapplicableRuleError, RuleInstance, Sequent, apply_rule, is_axiom
from .formulas import Formula, sort_key, subformulas
from .parser import ParseError, parse_formula, parse_sequent
from .printer import derivation_order, format_formula, format_sequent
from .semantics import KripkeModel


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


# The JSON nesting `loads` reads, counting the Python frames below it: a
# proof node takes two levels, so a proof about 5,000 nodes deep loads.  The
# standard library's C scanner takes about 120 bytes of stack per level
# (CPython 3.11, x86-64 Linux), about 1.2 MB of a main thread's usual 8 MB.
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
        self.formatted = cache(format_formula)

    def learn(self, formulas) -> None:
        for f in formulas:
            self[self.formatted(f)] = f

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
    if isinstance(text, str):
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


def _read_node(doc, table: _FormulaTable) -> tuple[Sequent, RuleInstance | None, list]:
    """One proof node's sequent, rule instance (None at a leaf) and premise documents."""
    try:
        seq = _parse_sequent(doc["sequent"], table)
        rule_name = doc["rule"]
        premises = doc.get("premises", [])
    except (KeyError, TypeError) as exc:
        raise DocumentError(f"malformed proof node: {exc}") from exc
    if not isinstance(premises, list):
        raise DocumentError(f"premises must be a list, got {premises!r}")
    if rule_name in ("axiom", "open"):
        if premises:
            raise DocumentError("leaf node with premises")
        return seq, None, premises
    if rule_name not in ("L->", "R->", "L==1", "L==2", "L==3"):
        raise DocumentError(f"unknown rule {rule_name!r}")
    principal = table.formula(doc["principal"]) if "principal" in doc else None
    principal2 = table.formula(doc["principal2"]) if "principal2" in doc else None
    op = doc.get("op")
    if op not in (None, "->", "=="):
        raise DocumentError(f"unknown connective {op!r}")
    return seq, RuleInstance(rule_name, principal=principal, principal2=principal2, op=op), premises


def derivation_from_doc(doc: dict) -> Derivation:
    """The derivation a proof document describes, read node by node in
    document order without recursion, so any proof `loads` accepts is read.

    Each node's rule instance enters the formulas its premises add into the
    document's table, so a canonical document parses its root sequent and
    looks every later formula up.  The table only names formulas: whether
    the stored premises are the rule's is `check_proof`'s to say."""
    table = _FormulaTable()
    read: list[tuple[Sequent, RuleInstance | None, int]] = []
    stack = [doc]
    while stack:
        seq, rule, premises = _read_node(stack.pop(), table)
        read.append((seq, rule, len(premises)))
        stack.extend(reversed(premises))
        if rule is not None:
            try:
                predicted = apply_rule(seq, rule)
            except InapplicableRuleError:
                continue
            for premise in predicted:
                table.learn(premise.antecedent - seq.antecedent)
                table.learn((premise.succedent,))
    built: list[Derivation] = []  # finished subtrees, a node's first premise on top
    for seq, rule, n in reversed(read):
        children = tuple(built.pop() for _ in range(n))
        built.append(Derivation(seq, rule, children))
    return built[0]


def model_doc(model: KripkeModel, designated: str) -> dict:
    """The document of `model`: its worlds, its order pairs by world and
    its valuation's rows by formula, then world."""
    world_index = {w: i for i, w in enumerate(model.worlds)}
    rows = sorted(model.valuation.items(), key=lambda r: (sort_key(r[0][0]), world_index[r[0][1]]))
    return {
        "worlds": list(model.worlds),
        "order_pairs": [list(p) for p in sorted(model.order, key=lambda p: (world_index[p[0]], world_index[p[1]]))],
        "valuation": [[format_formula(f), w, v] for (f, w), v in rows],
        "designated_world": designated,
    }


def model_from_doc(doc: dict):
    """Parse a model document into (KripkeModel, designated world)."""
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
    table = _FormulaTable()
    for row in rows:
        try:
            text, world, value = row
        except (TypeError, ValueError) as exc:
            raise DocumentError(f"malformed valuation row {row!r}") from exc
        if world not in worlds:
            raise DocumentError(f"valuation row for unknown world {world!r}")
        if value not in (0, 1):
            raise DocumentError(f"valuation value must be 0 or 1, got {value!r}")
        valuation[(table.formula(text), world)] = value
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
