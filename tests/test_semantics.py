import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle_utils import (
    formulas_pq,
    ref_bounded_countermodel_search,
    ref_check_admissible,
    ref_check_frame,
    ref_check_identity_entails_implications,
    ref_check_monotonicity,
    ref_forces,
    ref_value,
    small_formulas_pq,
)

from isci.cli import main
from isci.formulas import BOT, Id, Imp, Var, extended_subformulas
from isci.parser import parse_formula
from isci.prover import Limits, ResourceExhausted
from isci.semantics import (
    Congruence,
    Evaluator,
    KripkeModel,
    _preorders,
    _rooted_orders,
    bounded_countermodel_search,
    check_admissible,
    check_frame,
    check_identity_entails_implications,
    check_monotonicity,
    forces,
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


def test_a_listed_equation_makes_its_congruence_true():
    m = model(["a", "b"], reflexive("ab") + [("a", "b")], {(Id(p, q), "a"): 1})
    for w in "ab":  # at the world that lists it and above
        assert value(m, Id(q, p), w) == 1
        assert value(m, Id(Imp(p, r), Imp(q, r)), w) == 1
        assert value(m, Id(Id(q, r), Id(p, r)), w) == 1
    below = model(["a", "b"], reflexive("ab") + [("a", "b")], {(Id(p, q), "b"): 1})
    assert value(below, Id(q, p), "a") == 0


def test_listing_a_congruent_equation_as_0_is_inadmissible():
    rows = {(Id(p, q), "a"): 1, (Id(q, p), "a"): 0}
    assert not check_admissible(model(["a"], reflexive("a"), rows))
    rows = {(Id(p, q), "a"): 1, (Id(q, r), "a"): 1, (Id(p, r), "a"): 0}  # transitivity
    assert not check_admissible(model(["a"], reflexive("a"), rows))
    assert check_admissible(model(["a"], reflexive("a"), {(Id(p, q), "a"): 1, (Id(p, r), "a"): 0}))


def test_check_model_rejects_a_class_that_is_not_forced_uniformly(capsys):
    # p == q -> q -> p is a theorem: with p == q and q true, p is in q's class
    doc = {
        "formula": "p == q -> q -> p",
        "model": {
            "worlds": ["w0"],
            "order_pairs": [["w0", "w0"]],
            "valuation": [["p", "w0", 0], ["q", "w0", 1], ["p == q", "w0", 1]],
            "designated_world": "w0",
        },
    }
    assert main(["check-model", json.dumps(doc)]) == 1
    out = capsys.readouterr().out
    assert out == "INVALID MODEL: a true equation fails to force its implications\n"


def test_a_term_added_after_a_merge_reads_its_merged_class():
    cong = Congruence()
    cong.merge(p, q)
    assert cong.find(Imp(p, r)) is cong.find(Imp(q, r))  # both added after the merge
    cong.merge(Imp(p, r), s)
    assert cong.find(Imp(q, r)) is cong.find(s)
    assert cong.find(Id(s, p)) is cong.find(Id(Imp(q, r), q))
    assert cong.find(p) is not cong.find(r)
    assert cong.classes([p, r, q, s, Imp(q, r)]) == [[p, q], [s, Imp(q, r)]]


def test_the_oracle_extends_congruences_without_rebuilding_them():
    # `listing` copies only the congruences of the worlds it lists 1 at and
    # above; the rest are shared, and the parent's are left as they were
    m = model(["a", "b"], reflexive("ab") + [("a", "b")], {})
    parent = Evaluator(m)
    child = parent.listing(Id(p, q), 0b10)  # world b
    [(both, equality)] = parent.congruences
    assert both == 0b11
    assert [mask for mask, _ in child.congruences] == [0b10, 0b01]
    assert child.congruences[1][1] is equality
    assert child.floor(Id(q, p)) == 0b10
    grandchild = child.listing(Id(q, r), 0b11)
    assert Evaluator(m).floor(Id(p, r)) == 0
    assert grandchild.floor(Id(p, r)) == 0b10
    assert grandchild.floor(Id(q, r)) == 0b11
    assert child.floor(Id(q, r)) == 0


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
    assert Evaluator(m).forces(p) == m.full
    assert Evaluator(m).forces(q) != m.full
    assert Evaluator(m).forces(Id(q, q)) == m.full


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
        assert Evaluator(m).forces(Imp(e, Imp(e.left, e.right))) == m.full
        assert Evaluator(m).forces(Imp(e, Imp(e.right, e.left))) == m.full


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
    assert str(exc.value) == "timeout 0s hit in the oracle, at frames of 1 worlds"


def _found(result):
    return result and (result[1], result[0].worlds, result[0].order, result[0].valuation)


def test_rooted_orders_are_the_rooted_partial_orders_among_the_preorders():
    for k, count in zip(range(1, 5), (1, 1, 2, 5)):
        frames = _rooted_orders(k)
        assert len(frames) == count
        positions = [_preorders(k).index(rel) for rel in frames]
        assert positions == sorted(positions)
        for rel in frames:
            assert all((b, a) not in rel for a, b in rel if a != b)
            assert any(all((root, j) in rel for j in range(k)) for root in range(k))


@pytest.mark.parametrize(
    "formula, vectors",
    [
        ("(p -> q -> r) -> (p -> q) -> p -> r", 292),
        ("p == q -> q == p", 814),
        ("p == q -> q == r -> p == r", 9_250),
    ],
)
def test_oracle_vectors_to_exhaust_three_worlds(formula, vectors):
    phi = parse_formula(formula)
    assert bounded_countermodel_search(phi, 3, Limits(max_nodes=vectors)) is None
    with pytest.raises(ResourceExhausted):
        bounded_countermodel_search(phi, 3, Limits(max_nodes=vectors - 1))


# two first countermodels with a composed equation of the goal true
@example(parse_formula("q -> (r == q) == (q == p) -> r"), 3)
@example(parse_formula("(r == r) == (p -> r) -> r == #"), 3)
# the reference also searches the unrooted frames and those with a cluster:
# exhausted at 3 and 4 worlds, and a first countermodel of 2 worlds
@example(parse_formula("p == q -> q == p"), 3)
@example(parse_formula("(p == q) -> ((p -> #) == (q -> #))"), 3)
@example(parse_formula("(p == q) -> ((p -> #) == (q -> #))"), 4)
@example(parse_formula("((p -> q) -> p) -> p"), 3)
@given(small_formulas_pq, st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_oracle_finds_the_reference_search_model(phi, max_worlds):
    found = bounded_countermodel_search(phi, max_worlds)
    assert _found(found) == _found(ref_bounded_countermodel_search(phi, max_worlds))
