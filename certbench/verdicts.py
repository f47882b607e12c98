"""Verdict checks that share no code with `isci`.

Formulas are read with a parser of this file's own into nested tuples:
``("var", name)``, ``("bot",)``, ``("imp", a, b)`` and ``("id", a, b)``.
Two checks use them:

* `is_tautology`: classical truth tables, reading ``==`` as ``<->``.  All
  five rules of the calculus are sound for that reading, so a proved
  formula must be a tautology and a falsifiable one must be refuted.
* `model_errors`: a Kripke evaluator over the model documents that
  ``isci decide --format structured`` prints.  It confirms that the order
  is reflexive and transitive, that every variable stays true along the
  order, and that the designated world does not force the formula.

The evaluator reads an equation the way the model document defines it:
a listed valuation row is authoritative; otherwise an equation is true
when its two sides are the same formula, or when both sides have the same
main connective and both component equations are true; else it is false.
"""

from __future__ import annotations

import itertools
import re

_TOKEN = re.compile(r"\s*(->|==|[()~#]|[A-Za-z_][A-Za-z0-9_]*)")


class FormulaSyntaxError(ValueError):
    pass


def _tokens(text: str) -> list[str]:
    out, pos, text = [], 0, text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected text at {pos}: {text[pos:pos + 10]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def parse(text: str) -> tuple:
    """Read the concrete syntax: ``->`` is right associative, ``==`` binds
    tighter and does not chain, ``~x`` is ``x -> #``, ``#`` and ``bot`` are
    falsum."""
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise FormulaSyntaxError(f"expected {expected or 'a token'} at token {pos} of {text!r}")
        pos += 1
        return tok

    def formula():
        left = equality()
        if peek() == "->":
            take()
            return ("imp", left, formula())
        return left

    def equality():
        left = unary()
        if peek() == "==":
            take()
            return ("id", left, unary())
        return left

    def unary():
        if peek() == "~":
            take()
            return ("imp", unary(), ("bot",))
        return atom()

    def atom():
        tok = take()
        if tok == "(":
            inner = formula()
            take(")")
            return inner
        if tok in ("#", "bot"):
            return ("bot",)
        if tok in ("->", "==", ")", "~"):
            raise FormulaSyntaxError(f"unexpected {tok!r} in {text!r}")
        return ("var", tok)

    result = formula()
    if pos != len(toks):
        raise FormulaSyntaxError(f"trailing tokens in {text!r}")
    return result


def variables(f: tuple) -> set[str]:
    if f[0] == "var":
        return {f[1]}
    if f[0] == "bot":
        return set()
    return variables(f[1]) | variables(f[2])


def _classical(f: tuple, env: dict[str, bool]) -> bool:
    tag = f[0]
    if tag == "var":
        return env[f[1]]
    if tag == "bot":
        return False
    a, b = _classical(f[1], env), _classical(f[2], env)
    return (not a or b) if tag == "imp" else a == b


def is_tautology(f: tuple) -> bool:
    names = sorted(variables(f))
    return all(
        _classical(f, dict(zip(names, row)))
        for row in itertools.product((False, True), repeat=len(names))
    )


class _Model:
    def __init__(self, doc: dict):
        self.worlds = list(doc["worlds"])
        self.order = {tuple(p) for p in doc["order_pairs"]}
        self.designated = doc["designated_world"]
        self.rows = {(parse(text), w): v for text, w, v in doc["valuation"]}
        self.up = {w: [v for v in self.worlds if (w, v) in self.order] for w in self.worlds}
        self.memo: dict = {}

    def atom_value(self, f: tuple, w: str) -> bool:
        stored = self.rows.get((f, w))
        if stored is not None:
            return stored == 1
        if f[0] != "id":
            return False
        left, right = f[1], f[2]
        if left == right:
            return True
        if left[0] == right[0] and left[0] in ("imp", "id"):
            return self.atom_value(("id", left[1], right[1]), w) and self.atom_value(
                ("id", left[2], right[2]), w
            )
        return False

    def forces(self, w: str, f: tuple) -> bool:
        key = (w, f)
        hit = self.memo.get(key)
        if hit is None:
            if f[0] == "imp":
                hit = all(
                    not self.forces(v, f[1]) or self.forces(v, f[2]) for v in self.up[w]
                )
            elif f[0] == "bot":
                hit = False
            else:
                hit = self.atom_value(f, w)
            self.memo[key] = hit
        return hit


def model_errors(formula: tuple, doc: dict) -> list[str]:
    """Reasons the model document fails to refute `formula`; empty when
    it is a countermodel."""
    try:
        model = _Model(doc)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unreadable model document: {exc!r}"]
    errors = []
    worlds = set(model.worlds)
    if model.designated not in worlds:
        errors.append("designated world is not a world")
    if any(a not in worlds or b not in worlds for a, b in model.order):
        errors.append("order pair outside the world set")
    if any((w, w) not in model.order for w in worlds):
        errors.append("order is not reflexive")
    if any((a, c) not in model.order for a, b in model.order for b2, c in model.order if b == b2):
        errors.append("order is not transitive")
    for (f, w), v in model.rows.items():
        if f[0] == "var" and v == 1:
            if any(model.rows.get((f, u), 0) != 1 for u in model.up.get(w, ())):
                errors.append(f"variable {f[1]} true at {w} but not above it")
                break
    if errors:
        return errors
    if model.forces(model.designated, formula):
        errors.append("the designated world forces the formula")
    return errors
