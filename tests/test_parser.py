import pytest
from hypothesis import given
from hypothesis import strategies as st

from isci.calculus import Sequent
from isci.formulas import BOT, Id, Imp, Var
from isci.parser import ParseError, parse_formula, parse_sequent
from isci.printer import _latex_atom, format_formula, format_sequent, formatter
from oracle_utils import all_formulas, formulas_pq, ref_format_formula

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
