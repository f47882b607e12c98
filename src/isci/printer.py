"""Deterministic text, LaTeX and DOT renderers.

`format_formula` emits minimal parentheses for the grammar in `parser`:
`==` binds tighter than `->`, `->` is right-associative, `==` is
non-associative.  Model renderers work on the plain model document
produced by `serialize`, so externally supplied models render the same
way as freshly built ones.  Derivation renderers rank the tree's formulas
by `sort_key` once per call and order each antecedent by that rank, and
they format each distinct formula once per call, passing a `formatter` on
as `text`.
"""

from __future__ import annotations

from .calculus import Derivation, RuleInstance, Sequent, is_axiom
from .formulas import Bottom, Formula, Id, Imp, Var, sort_key


def format_formula(f: Formula) -> str:
    return _fmt(f, top=True)


def _fmt(f: Formula, top: bool = False, eq_side: bool = False, imp_left: bool = False) -> str:
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Bottom):
        return "#"
    if isinstance(f, Imp):
        body = f"{_fmt(f.left, imp_left=True)} -> {_fmt(f.right)}"
        return f"({body})" if eq_side or imp_left else body
    if isinstance(f, Id):
        body = f"{_fmt(f.left, eq_side=True)} == {_fmt(f.right, eq_side=True)}"
        return f"({body})" if eq_side else body
    raise TypeError(f"not a formula: {f!r}")


def formatter(atom=format_formula, imp=" -> ", eq=" == "):
    """A cached formatter for one call: each distinct formula is formatted
    once, an implication's or an equation's text from its two parts' texts
    with `format_formula`'s parentheses, the LaTeX renderer's as well."""
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
    lines: list[str] = []
    text = formatter()
    key = derivation_order(d)

    def walk(node: Derivation, depth: int):
        seq = format_sequent(node.sequent, text, key)
        lines.append(f"{'  ' * depth}{seq}   [{rule_label(node.rule, node.sequent, text)}]")
        for child in node.children:
            walk(child, depth + 1)

    walk(d, 0)
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

    def walk(node: Derivation) -> str:
        seq = latex_sequent(node.sequent, text, key)
        if node.rule is None:
            return seq
        premises = " & ".join(walk(c) for c in node.children)
        return f"\\infer[{_LATEX_RULES[node.rule.rule]}]{{{seq}}}{{{premises}}}"

    return "\\[\n" + walk(d) + "\n\\]\n"


def format_derivation_dot(d: Derivation) -> str:
    lines = ["digraph derivation {", "  rankdir=BT;", '  node [shape=box, fontname="monospace"];']
    counter = 0
    text = formatter()
    key = derivation_order(d)

    def walk(node: Derivation) -> str:
        nonlocal counter
        name = f"n{counter}"
        counter += 1
        label = format_sequent(node.sequent, text, key).replace('"', '\\"')
        lines.append(f'  {name} [label="{label}"];')
        for child in node.children:
            cname = walk(child)
            elabel = rule_label(node.rule, node.sequent, text).replace('"', '\\"')
            lines.append(f'  {cname} -> {name} [label="{elabel}"];')
        return name

    walk(d)
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

