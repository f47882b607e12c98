"""Deterministic text, LaTeX and DOT renderers.

One printer, `formatter`, emits minimal parentheses (`==` binds tighter
than `->`, `->` is right-associative, `==` non-associative) and prints
each distinct formula once, from its parts' texts.  `format_formula` is
one call of a fresh one; a derivation renderer or a document writer uses
one per call.  Model renderers read the plain model document.  Derivation
renderers rank the tree's formulas by `sort_key` once per call, order
each antecedent by that rank, and follow `Derivation.tour`, so they do
not recurse and any depth renders under any recursion limit.
"""

from __future__ import annotations

from .calculus import Derivation, RuleInstance, Sequent, is_axiom
from .formulas import Bottom, Formula, Id, Imp, sort_key


def _atom(f: Formula) -> str:
    return "#" if isinstance(f, Bottom) else f.name


def formatter(atom=_atom, imp=" -> ", eq=" == "):
    """A cached formatter for one call: each distinct formula is formatted
    once, an implication's or an equation's text from its two parts' texts.
    It prints the minimal parentheses, with the LaTeX renderer's `atom`,
    `imp` and `eq` as well."""
    texts: dict[Formula, str] = {}

    def side(f: Formula) -> str:
        return f"({text(f)})" if isinstance(f, (Imp, Id)) else text(f)

    def text(f: Formula) -> str:
        s = texts.get(f)
        if s is None:
            if isinstance(f, Imp):
                left = side(f.left) if isinstance(f.left, Imp) else text(f.left)
                s = left + imp + text(f.right)
            elif isinstance(f, Id):
                s = side(f.left) + eq + side(f.right)
            else:
                s = atom(f)
            texts[f] = s
        return s

    return text


def format_formula(f: Formula) -> str:
    return formatter()(f)


def format_sequent(s: Sequent, text=format_formula, key=sort_key) -> str:
    """`key` orders the antecedent; any key that orders formulas as
    `sort_key` does, such as `derivation_order`'s, prints the same text."""
    succ = text(s.succedent)
    if not s.antecedent:
        return f"|- {succ}"
    left = ", ".join(map(text, sorted(s.antecedent, key=key)))
    return f"{left} |- {succ}"


def derivation_order(d: Derivation):
    """A key ordering the formulas of `d` as `sort_key` does: their rank.

    `sort_key` compares nested tuples; ranking the tree's formulas once
    lets each sequent sort by an integer instead."""
    rank = {f: i for i, f in enumerate(sorted(d.formulas(), key=sort_key))}
    return rank.__getitem__


def rule_label(r: RuleInstance | None, s: Sequent, text=format_formula) -> str:
    if r is None:
        return "axiom" if is_axiom(s) else "open"
    parts = [r.rule]
    if r.principal is not None:
        parts.append(text(r.principal))
    if r.principal2 is not None:
        parts.append(text(r.principal2))
    if r.op is not None:
        parts.append(r.op)
    return " ".join(parts)


def format_derivation(d: Derivation) -> str:
    """Indented tree, conclusion first, one sequent per line."""
    text = formatter()
    key = derivation_order(d)
    lines: list[str] = []
    for node, depth, entering in d.tour():
        if entering:
            seq = format_sequent(node.sequent, text, key)
            lines.append(f"{'  ' * depth}{seq}   [{rule_label(node.rule, node.sequent, text)}]")
    return "\n".join(lines) + "\n"


def _latex_atom(f: Formula) -> str:
    return r"\bot" if isinstance(f, Bottom) else f.name.replace("_", r"\_")


def latex_sequent(s: Sequent, text, key=sort_key) -> str:
    left = ", ".join(map(text, sorted(s.antecedent, key=key)))
    return f"{left} \\Rightarrow {text(s.succedent)}"


_LATEX_RULES = {
    "L->": r"L{\supset}",
    "R->": r"R{\supset}",
    "L==1": r"L{\equiv}^1",
    "L==2": r"L{\equiv}^2",
    "L==3": r"L{\equiv}^3",
}


def format_derivation_latex(d: Derivation) -> str:
    """Nested \\infer lines (proof.sty style)."""
    text = formatter(_latex_atom, r" \supset ", r" \equiv ")
    key = derivation_order(d)
    pieces = ["\\[\n"]
    after_leaving = False  # so the node entered next is a later premise
    for node, _, entering in d.tour():
        if entering:
            seq = latex_sequent(node.sequent, text, key)
            if node.rule is not None:
                seq = f"\\infer[{_LATEX_RULES[node.rule.rule]}]{{{seq}}}{{"
            pieces.append(" & " + seq if after_leaving else seq)
        elif node.rule is not None:
            pieces.append("}")
        after_leaving = not entering
    pieces.append("\n\\]\n")
    return "".join(pieces)


def format_derivation_dot(d: Derivation) -> str:
    lines = ["digraph derivation {", "  rankdir=BT;", '  node [shape=box, fontname="monospace"];']
    text = formatter()
    key = derivation_order(d)
    count = 0
    path: list[tuple[str, str]] = []  # name and rule label of the node entered last at each depth
    for node, depth, entering in d.tour():
        if entering:
            del path[depth:]
            path.append((f"n{count}", rule_label(node.rule, node.sequent, text).replace('"', '\\"')))
            count += 1
            label = format_sequent(node.sequent, text, key).replace('"', '\\"')
            lines.append(f'  {path[depth][0]} [label="{label}"];')
        elif depth:
            parent, edge_label = path[depth - 1]
            lines.append(f'  {path[depth][0]} -> {parent} [label="{edge_label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_model(doc: dict) -> str:
    """Adjacency plus valuation listing for a model document."""
    worlds = doc["worlds"]
    pairs = [(a, b) for a, b in doc["order_pairs"] if a != b]
    lines = [f"worlds: {' '.join(worlds)}"]
    lines.append("order: " + (", ".join(f"{a} <= {b}" for a, b in pairs) if pairs else "(discrete)"))
    lines.append(f"designated: {doc['designated_world']}")
    lines.append("valuation:")
    by_world: dict[str, list[tuple[str, int]]] = {w: [] for w in worlds}
    for formula, world, value in doc["valuation"]:
        by_world[world].append((formula, value))
    for w in worlds:
        entries = ", ".join(f"{f}={v}" for f, v in by_world[w]) or "(all 0)"
        lines.append(f"  {w}: {entries}")
    return "\n".join(lines) + "\n"

