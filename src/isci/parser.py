"""Concrete syntax for formulas and sequents.

Grammar (ASCII first, unicode aliases in parentheses):

    formula  := equality ('->' formula)?          right associative  (⊃)
    equality := unary ('==' unary)?                non-associative    (≡)
    unary    := '~' unary | atom                   ~x sugars to x -> #
    atom     := ident | 'bot' | '#' | '(' formula ')'                 (⊥)
    sequent  := (formula (',' formula)*)? '|-' formula                (⇒)

`==` binds tighter than `->`; `~` binds tighter than `==`.  Chained `==`
without parentheses is rejected.  An identifier starts with a letter or
`_` and goes on with letters, digits and `_`.
"""

from __future__ import annotations

import re

from .calculus import Sequent
from .formulas import BOT, Formula, Id, Imp, Var


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# One token per match, whitespace skipped between them: a connective, a
# symbol, a word, or any other character, which no token starts with.
_SCAN = re.compile(r"->|==|\|-|[⊃≡⇒⊥#(),~]|\w+|\S")
_ALIASES = {"⊃": "->", "≡": "==", "⇒": "|-", "⊥": "#", "bot": "#"}
_SYMBOLS = frozenset(["->", "==", "|-", "#", "(", ")", ",", "~", ""])  # "" ends the text
_SPELLINGS = _SYMBOLS.union(_ALIASES)


def _match(text: str, index: int) -> re.Match | None:
    """Token `index` of `text`, or None past the last."""
    for i, match in enumerate(_SCAN.finditer(text)):
        if i == index:
            return match
    return None


def _error(text: str, offset: int, message: str) -> ParseError:
    """`message` at the line and column of `offset` in `text`."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _stray(token: str) -> bool:
    """Whether `token` starts with a character that starts no token: a
    digit, say, where a symbol or an identifier's letter or `_` is due."""
    return token not in _SPELLINGS and not (token[0].isalpha() or token[0] == "_")


def _tokenize(text: str) -> list[str]:
    """The tokens of `text`, then "": each connective and falsum under its
    ASCII spelling, and each identifier as itself."""
    tokens = _SCAN.findall(text)
    spelled = set(tokens)
    for word in spelled.difference(_SPELLINGS):
        if _stray(word):
            match = next(m for m in _SCAN.finditer(text) if _stray(m.group()))
            raise _error(text, match.start(), f"unexpected character {match.group()[0]!r}")
    if not spelled.isdisjoint(_ALIASES):
        tokens = [_ALIASES.get(t, t) for t in tokens]
    tokens.append("")
    return tokens


class _Parser:
    """Recursive descent over the tokens; each nesting level costs the
    four frames of `formula`, `equality`, `unary` and `atom`."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def error(self, message: str) -> ParseError:
        """`message` at the current token, found again in the text."""
        match = _match(self.text, self.pos)
        return _error(self.text, match.start() if match else len(self.text), message)

    def formula(self) -> Formula:
        left = self.equality()
        if self.tokens[self.pos] == "->":
            self.pos += 1
            return Imp(left, self.formula())
        return left

    def equality(self) -> Formula:
        left = self.unary()
        if self.tokens[self.pos] == "==":
            self.pos += 1
            right = self.unary()
            if self.tokens[self.pos] == "==":
                raise self.error("'==' is not associative; use parentheses")
            return Id(left, right)
        return left

    def unary(self) -> Formula:
        if self.tokens[self.pos] == "~":
            self.pos += 1
            return Imp(self.unary(), BOT)
        return self.atom()

    def atom(self) -> Formula:
        tok = self.tokens[self.pos]
        if tok == "(":
            self.pos += 1
            inner = self.formula()
            if self.tokens[self.pos] != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return inner
        if tok not in _SYMBOLS:
            self.pos += 1
            return Var(tok)
        if tok == "#":
            self.pos += 1
            return BOT
        raise self.error("expected a formula")

    def sequent(self) -> Sequent:
        tokens = self.tokens
        antecedent: list[Formula] = []
        if tokens[self.pos] != "|-":
            antecedent.append(self.formula())
            while tokens[self.pos] == ",":
                self.pos += 1
                antecedent.append(self.formula())
        if tokens[self.pos] != "|-":
            raise self.error("expected '|-'")
        self.pos += 1
        if tokens[self.pos] == "":
            raise self.error("succedent required")
        return Sequent(frozenset(antecedent), self.formula())

    def finish(self):
        if self.tokens[self.pos] != "":
            raise self.error(f"unexpected {_match(self.text, self.pos).group()!r} after formula")


def _parse(text: str, read):
    """Run `read` on a parser of `text`, which must read all of it.  Text
    nested past the recursion limit is a ParseError at the token reached."""
    p = _Parser(text)
    try:
        result = read(p)
    except RecursionError:
        raise p.error("formula nested too deeply") from None
    p.finish()
    return result


def parse_formula(text: str) -> Formula:
    return _parse(text, _Parser.formula)


def parse_sequent(text: str) -> Sequent:
    return _parse(text, _Parser.sequent)
