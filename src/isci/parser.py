"""Concrete syntax for formulas and sequents.

Grammar (ASCII first, unicode aliases in parentheses):

    formula  := equality ('->' formula)?          right associative  (⊃)
    equality := unary ('==' unary)?                non-associative    (≡)
    unary    := '~' unary | atom                   ~x sugars to x -> #
    atom     := ident | 'bot' | '#' | '(' formula ')'                 (⊥)
    sequent  := (formula (',' formula)*)? '|-' formula                (⇒)

`==` binds tighter than `->`; `~` binds tighter than `==`.  Chained `==`
without parentheses is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import Sequent
from .formulas import BOT, Formula, Id, Imp, Var


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # '->', '==', '|-', '(', ')', ',', '~', 'bot', 'ident', 'end'
    text: str
    line: int
    col: int


_PUNCT = {
    "->": "->",
    "==": "==",
    "|-": "|-",
    "⊃": "->",
    "≡": "==",
    "⇒": "|-",
    "⊥": "bot",
    "#": "bot",
    "(": "(",
    ")": ")",
    ",": ",",
    "~": "~",
}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        two = text[i : i + 2]
        if two in ("->", "==", "|-"):
            tokens.append(_Token(_PUNCT[two], two, line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "bot" if word == "bot" else "ident"
            tokens.append(_Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.line, tok.col)
        return self.take()

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def formula(self) -> Formula:
        left = self.equality()
        if self.peek().kind == "->":
            self.take()
            return Imp(left, self.formula())
        return left

    def equality(self) -> Formula:
        left = self.unary()
        if self.peek().kind == "==":
            self.take()
            right = self.unary()
            if self.peek().kind == "==":
                self.fail("'==' is not associative; use parentheses")
            return Id(left, right)
        return left

    def unary(self) -> Formula:
        if self.peek().kind == "~":
            self.take()
            return Imp(self.unary(), BOT)
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "(":
            self.take()
            inner = self.formula()
            self.expect(")", "')'")
            return inner
        if tok.kind == "bot":
            self.take()
            return BOT
        if tok.kind == "ident":
            self.take()
            return Var(tok.text)
        self.fail("expected a formula")

    def sequent(self) -> Sequent:
        antecedent: list[Formula] = []
        if self.peek().kind != "|-":
            antecedent.append(self.formula())
            while self.peek().kind == ",":
                self.take()
                antecedent.append(self.formula())
        self.expect("|-", "'|-'")
        if self.peek().kind == "end":
            self.fail("succedent required")
        succedent = self.formula()
        return Sequent(frozenset(antecedent), succedent)

    def finish(self):
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r} after formula", tok.line, tok.col)


def _parse(text: str, read):
    """Run `read` on a parser of `text`, which must read all of it.  Text
    nested past the recursion limit is a ParseError at the token reached."""
    p = _Parser(text)
    try:
        result = read(p)
    except RecursionError:
        tok = p.peek()
        raise ParseError("formula nested too deeply", tok.line, tok.col) from None
    p.finish()
    return result


def parse_formula(text: str) -> Formula:
    return _parse(text, _Parser.formula)


def parse_sequent(text: str) -> Sequent:
    return _parse(text, _Parser.sequent)
