import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_utils import (
    formulas_pq,
    ref_check_admissible,
    ref_check_frame,
    ref_check_identity_entails_implications,
    ref_check_monotonicity,
    ref_forces,
    ref_value,
)

from isci.formulas import BOT, Id, Imp, Var, extended_subformulas
from isci.parser import parse_formula
from isci.prover import Limits, ResourceExhausted
from isci.semantics import (
    KripkeModel,
    bounded_countermodel_search,
    check_admissible,
    check_frame,
    check_identity_entails_implications,
    check_monotonicity,
    forces,
    valid_in_model,
    value,
)

p, q, r, s = (Var(n) for n in "pqrs")


def model(worlds, pairs, rows):
    return KripkeModel(tuple(worlds), frozenset(pairs), dict(rows))


def reflexive(worlds):
    return [(w, w) for w in worlds]


def test_check_frame():
    assert check_frame(model(["a"], [("a", "a")], {}))
    assert check_frame(model(["a", "b"], reflexive("ab") + [("a", "b")], {}))
    assert not check_frame(model(["a", "b"], [("a", "a"), ("a", "b")], {}))
    assert not check_frame(
        model(["a", "b", "c"], reflexive("abc") + [("a", "b"), ("b", "c")], {})
    )


def test_admissibility_requires_reflexive_truth():
    m = model(["a"], reflexive("a"), {(Id(p, p), "a"): 0})
    assert not check_admissible(m, [Id(p, p)])
    assert check_admissible(model(["a"], reflexive("a"), {}), [Id(p, p)])


def test_admissibility_requires_composition_closure():
    rows = {
        (Id(p, q), "a"): 1,
        (Id(r, s), "a"): 1,
        (Id(Imp(p, r), Imp(q, s)), "a"): 0,
    }
    m = model(["a"], reflexive("a"), rows)
    assert not check_admissible(m, [Id(p, q), Id(r, s), Id(Imp(p, r), Imp(q, s))])
    # a reflexive composition whose sides lie outside the base
    m = model(["a"], reflexive("a"), {(Id(Imp(p, q), Imp(p, q)), "a"): 0})
    assert not check_admissible(m, [Id(p, p), Id(q, q)])


def test_admissibility_vacuous_when_equations_false():
    m = model(["a", "b"], reflexive("ab") + [("a", "b")], {})
    assert check_admissible(m, [Id(p, q), Id(r, s)])


def test_forces_atoms_and_falsum():
    m = model(["a"], reflexive("a"), {(p, "a"): 1})
    assert forces(m, "a", p)
    assert not forces(m, "a", BOT)
    assert not forces(m, "a", q)


def test_forces_implication_quantifies_successors():
    m = model(["a", "b"], reflexive("ab") + [("a", "b")], {(p, "b"): 1})
    assert not forces(m, "a", Imp(p, q))  # witness b
    assert forces(m, "b", Imp(q, p))


def test_value_extension_clauses():
    m = model(["a"], reflexive("a"), {(Id(p, q), "a"): 1})
    assert value(m, Id(Imp(p, p), Imp(p, p)), "a") == 1  # syntactic identity
    assert value(m, Id(Imp(p, r), Imp(q, r)), "a") == 1  # decomposition
    assert value(m, Id(p, r), "a") == 0  # default


def test_monotonicity_check():
    up = model(["a", "b"], reflexive("ab") + [("a", "b")], {(p, "a"): 1, (p, "b"): 1})
    assert check_monotonicity(up, [p, q, Imp(p, q)])
    down = model(["a", "b"], reflexive("ab") + [("a", "b")], {(p, "a"): 1})
    assert not check_monotonicity(down, [p])


def test_identity_entails_implications_check():
    bad = model(["a"], reflexive("a"), {(Id(p, q), "a"): 1, (p, "a"): 1})
    assert not check_identity_entails_implications(bad, [Id(p, q)])
    good = model(["a"], reflexive("a"), {(Id(p, q), "a"): 1, (p, "a"): 1, (q, "a"): 1})
    assert check_identity_entails_implications(good, [Id(p, q)])


def test_valid_in_model():
    m = model(["a"], reflexive("a"), {(p, "a"): 1})
    assert valid_in_model(m, p)
    assert not valid_in_model(m, q)
    assert valid_in_model(m, Id(q, q))


def test_forces_agrees_with_value_on_atoms_and_equations():
    m = model(["a", "b"], reflexive("ab") + [("a", "b")],
              {(p, "b"): 1, (Id(p, q), "a"): 1, (Id(p, q), "b"): 1, (q, "b"): 1, (q, "a"): 0})
    for w in m.worlds:
        for f in (p, q, Id(p, q), Id(q, q)):
            assert forces(m, w, f) == (value(m, f, w) == 1)


def test_oracle_finds_variable_countermodel_at_one_world():
    found = bounded_countermodel_search(p, max_worlds=1)
    assert found is not None
    m, w = found
    assert not forces(m, w, p)


def test_oracle_exhausts_on_reflexive_identity():
    assert bounded_countermodel_search(parse_formula("p == p"), max_worlds=3) is None


def test_oracle_refutes_peirce_and_candidate_passes_checks():
    phi = parse_formula("((p -> q) -> p) -> p")
    found = bounded_countermodel_search(phi, max_worlds=3)
    assert found is not None
    m, w = found
    assert not forces(m, w, phi)
    base = sorted(extended_subformulas(phi), key=str) + [p, q]
    assert check_frame(m)
    assert check_admissible(m, base)
    assert check_monotonicity(m, base)
    assert check_identity_entails_implications(m, base)


def test_oracle_respects_equation_semantics():
    # the semantic shadow of identity-entails-implication on returned models
    phi = parse_formula("(p == q) -> (p -> q)")
    assert bounded_countermodel_search(phi, max_worlds=3) is None


def test_oracle_is_deterministic():
    phi = parse_formula("((p -> q) -> p) -> p")
    m1, w1 = bounded_countermodel_search(phi, max_worlds=3)
    m2, w2 = bounded_countermodel_search(phi, max_worlds=3)
    assert w1 == w2
    assert m1.worlds == m2.worlds
    assert m1.order == m2.order
    assert m1.valuation == m2.valuation


def test_returned_models_validate_equation_implication_axiom():
    """In every checked model, a true equation entails both implications."""
    phi = parse_formula("(p -> q) -> (p == q)")
    found = bounded_countermodel_search(phi, max_worlds=3)
    assert found is not None
    m, _ = found
    for e in (f for f in extended_subformulas(phi) if isinstance(f, Id)):
        assert valid_in_model(m, Imp(e, Imp(e.left, e.right)))
        assert valid_in_model(m, Imp(e, Imp(e.right, e.left)))


# sides for the rows of random models: enough for reflexive equations and
# for compositions of equations to be listed
_SIDES = [p, q, BOT, Imp(p, q), Imp(q, p), Imp(p, p), Id(p, q), Id(q, p), Id(p, p)]
_ROW_FORMULAS = [p, q] + [Id(a, b) for a in _SIDES for b in _SIDES]


@st.composite
def random_models(draw):
    k = draw(st.integers(1, 4))
    worlds = tuple(f"w{i}" for i in range(k))
    pairs = [(a, b) for a in worlds for b in worlds]
    order = set(draw(st.sets(st.sampled_from(pairs))))
    if draw(st.booleans()):  # the checks past the frame's mostly see preorders
        order |= {(w, w) for w in worlds}
        for mid in worlds:
            order |= {(a, c) for a, b in order if b == mid for b2, c in order if b2 == mid}
    keys = st.tuples(st.sampled_from(_ROW_FORMULAS), st.sampled_from(worlds))
    rows = draw(st.dictionaries(keys, st.sampled_from([0, 1]), max_size=16))
    return KripkeModel(worlds, frozenset(order), rows)


@given(
    random_models(),
    st.lists(st.sampled_from(_ROW_FORMULAS), max_size=10),
    st.lists(formulas_pq, min_size=1, max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_evaluator_agrees_with_the_per_world_reference(m, base, formulas):
    for w in m.worlds:
        for f in formulas + base:
            assert forces(m, w, f) == ref_forces(m, w, f)
            assert value(m, f, w) == ref_value(m, f, w)
    assert check_frame(m) == ref_check_frame(m)
    assert check_admissible(m, base) == ref_check_admissible(m, base)
    assert check_monotonicity(m, base + formulas) == ref_check_monotonicity(m, base + formulas)
    assert check_identity_entails_implications(m, base) == ref_check_identity_entails_implications(
        m, base
    )


def test_oracle_timeout_names_the_oracle():
    with pytest.raises(ResourceExhausted) as exc:
        bounded_countermodel_search(p, 1, Limits(timeout=0))
    assert str(exc.value) == "timeout 0s hit in the oracle, at the closure"
