import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isci.calculus import Sequent
from isci.formulas import BOT, Id, Imp, Var
from isci.parser import ParseError, parse_formula, parse_sequent
from isci.printer import _latex_atom, format_formula, format_sequent, formatter
from oracle_utils import all_formulas, formulas_pq, ref_format_formula, ref_parse_formula, ref_parse_sequent

p, q, r = Var("p"), Var("q"), Var("r")


def test_implication_is_right_associative():
    assert parse_formula("p -> q -> p") == Imp(p, Imp(q, p))


def test_identity_binds_tighter_than_implication():
    assert parse_formula("p == q -> p") == Imp(Id(p, q), p)
    assert parse_formula("p -> q == r") == Imp(p, Id(q, r))


def test_negation_sugar():
    assert parse_formula("~p") == Imp(p, BOT)
    assert parse_formula("~~p") == Imp(Imp(p, BOT), BOT)
    assert parse_formula("~p == q") == Id(Imp(p, BOT), q)


def test_bottom_spellings():
    assert parse_formula("#") == BOT
    assert parse_formula("bot") == BOT


def test_unicode_aliases():
    assert parse_formula("p ⊃ q") == Imp(p, q)
    assert parse_formula("p ≡ q") == Id(p, q)
    assert parse_formula("⊥") == BOT


def test_identity_is_not_associative():
    with pytest.raises(ParseError) as err:
        parse_formula("p == q == r")
    assert "associative" in str(err.value)
    assert parse_formula("(p == q) == r") == Id(Id(p, q), r)
    assert parse_formula("p == (q == r)") == Id(p, Id(q, r))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_formula("p -> )")
    assert err.value.line == 1
    assert err.value.col == 6
    with pytest.raises(ParseError) as err:
        parse_formula("p ->\n q $")
    assert err.value.line == 2


def test_sequent_antecedent_is_a_set():
    s = parse_sequent("p, p |- p")
    assert s == Sequent(frozenset({p}), p)


def test_sequent_empty_antecedent():
    assert parse_sequent("|- p == p") == Sequent(frozenset(), Id(p, p))
    assert parse_sequent("⇒ p") == Sequent(frozenset(), p)


def test_sequent_requires_succedent():
    with pytest.raises(ParseError) as err:
        parse_sequent("|-")
    assert "succedent required" in str(err.value)
    with pytest.raises(ParseError):
        parse_sequent("p, q |-")


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_formula("p q")
    with pytest.raises(ParseError):
        parse_sequent("p |- q |- r")


def read(parse, text):
    """What `parse` makes of `text`: its result, or its error's message and
    position."""
    try:
        return parse(text)
    except ParseError as err:
        return err.message, err.line, err.col


# every token in every spelling, and what is no token or starts none: words
# of letters, digits, `_`, `²` and `½`, whitespace of three kinds, and
# stray halves of the two-character connectives
PIECES = [
    *"pqé_0²½", "p2", "q_é", "bot", "#", "⊥", "->", "⊃", "==", "≡", "|-", "⇒",
    *"(),~", " ", "\n", "\t", "-", "=", "|", "$",
]
SPELLINGS = {"->": ["->", "⊃"], "==": ["==", "≡"], "|-": ["|-", "⇒"], "#": ["#", "⊥", "bot"]}


@st.composite
def respelled(draw, text):
    """`text`'s tokens in any spelling, with any whitespace or none between
    them, and sometimes one piece put in anywhere."""
    out = []
    for token in text.replace("(", "( ").replace(")", " )").split():
        out.append(draw(st.sampled_from(SPELLINGS.get(token, [token]))))
        out.append(draw(st.sampled_from(["", " ", "\n", "\t"])))
    if draw(st.booleans()):
        out.insert(draw(st.integers(0, len(out))), draw(st.sampled_from(PIECES)))
    return "".join(out)


printed_sequents = st.builds(
    lambda ante, succ: format_sequent(Sequent(frozenset(ante), succ)), st.sets(formulas_pq, max_size=3), formulas_pq
)
texts = st.one_of(
    st.lists(st.sampled_from(PIECES), max_size=24).map("".join),
    formulas_pq.map(ref_format_formula).flatmap(respelled),
    printed_sequents.flatmap(respelled),
)


@settings(max_examples=600)
@given(texts, st.sampled_from([0, 1, 3, None]), st.booleans())
def test_the_scanner_reads_as_the_reference_reads(body, depth, as_sequent):
    # the same formula or sequent, or the same error at the same line and
    # column.  Past the recursion limit (depth None: four frames a level)
    # only the error's message is the same, since the two readers reach
    # the limit at different tokens.
    past_the_limit = depth is None
    if past_the_limit:
        depth = sys.getrecursionlimit() // 3
    text = "(" * depth + body + ")" * depth
    if as_sequent:
        got, want = read(parse_sequent, text), read(ref_parse_sequent, text)
    else:
        got, want = read(parse_formula, text), read(ref_parse_formula, text)
    if past_the_limit and want[0] == "formula nested too deeply":
        assert got[0] == want[0]
    else:
        assert got == want


@pytest.mark.parametrize(
    "text, message, col",
    [
        ("p ⇒ q", "unexpected '⇒' after formula", 3),
        ("p bot", "unexpected 'bot' after formula", 3),
        ("p ⊥", "unexpected '⊥' after formula", 3),
        ("(p ⊃ q", "expected ')'", 7),
        ("p ≡ q ≡ r", "'==' is not associative; use parentheses", 7),
        ("p ⊃ ²q", "unexpected character '²'", 5),
        ("é2 -> 2é", "unexpected character '2'", 7),
    ],
)
def test_errors_name_the_token_as_it_is_spelled(text, message, col):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert (err.value.message, err.value.line, err.value.col) == (message, 1, col)


def test_the_cached_formatter_prints_as_format_formula():
    # every formula over p, q and # of complexity at most 4; the formatter
    # builds each text from its parts' texts, as the recursive reference
    # prints it
    formulas = all_formulas([p, q, BOT], 4)
    text = formatter()
    assert len(formulas) == 57_909
    texts = [ref_format_formula(f) for f in formulas]
    assert [text(f) for f in formulas] == texts
    assert [format_formula(f) for f in formulas] == texts
    # LaTeX puts its parentheses where the concrete syntax does
    latex = formatter(_latex_atom, r" \supset ", r" \equiv ")
    spelled = {" -> ": r" \supset ", " == ": r" \equiv ", "#": r"\bot"}
    for f in formulas:
        expected = ref_format_formula(f)
        for plain, tex in spelled.items():
            expected = expected.replace(plain, tex)
        assert latex(f) == expected


def test_printing_examples():
    assert format_formula(Imp(p, Imp(q, p))) == "p -> q -> p"
    assert format_formula(Imp(Id(p, q), p)) == "p == q -> p"
    assert format_formula(Id(Imp(p, p), Imp(q, q))) == "(p -> p) == (q -> q)"
    assert format_formula(Imp(Imp(p, q), p)) == "(p -> q) -> p"
    assert format_sequent(Sequent(frozenset(), p)) == "|- p"
    assert format_sequent(Sequent(frozenset({q, p}), p)) == "p, q |- p"


@given(formulas_pq)
def test_round_trip(phi):
    assert parse_formula(format_formula(phi)) == phi


@given(formulas_pq)
def test_printing_is_stable(phi):
    """No redundant parentheses: re-printing the re-parse is byte-identical."""
    text = format_formula(phi)
    assert format_formula(parse_formula(text)) == text


@given(st.sets(formulas_pq, max_size=4), formulas_pq)
def test_sequent_round_trip(antecedent, succedent):
    s = Sequent(frozenset(antecedent), succedent)
    assert parse_sequent(format_sequent(s)) == s
