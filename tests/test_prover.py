import hashlib

import pytest
from hypothesis import assume, example, given, settings

from isci import prover
from isci.calculus import Sequent, check_proof, is_axiom, sequent
from isci.countermodel import CounterModelError, decide
from isci.formulas import Id, Imp, Var, extended_subformulas_within
from isci.invariants import (
    antecedents_inherited,
    extended_subformula_offenders,
    no_branch_repetition,
)
from isci.parser import parse_formula, parse_sequent
from isci.printer import format_derivation, format_derivation_dot, format_derivation_latex
from isci.prover import EXSUB_CAP, Limits, ResourceExhausted, Saturator, _ProofSearch, prove
from isci.serialize import dumps, proof_doc

from oracle_utils import small_formulas_pqr

p, q, r, s = (Var(n) for n in "pqrs")


def saturation_chain(start, goal):
    """The identity-rule chain a branch's `Saturator` applies from `start`,
    as (instance, premise) pairs; every step enlarges the antecedent."""
    sat = Saturator(goal).extend(start)
    chain = []
    for conclusion, inst in sat.saturate():
        assert conclusion.antecedent < sat.sequent.antecedent
        chain.append((inst, sat.sequent))
    return chain


def antecedent_after(chain, start):
    return chain[-1][1].antecedent if chain else start.antecedent


def test_saturation_reaches_reflexive_axiom():
    start = parse_sequent("|- p == p")
    chain = saturation_chain(start, Id(p, p))
    assert len(chain) == 1
    inst, end = chain[0]
    assert inst.rule == "L==1" and inst.principal == p
    assert is_axiom(end)


def test_saturation_closes_equation_antecedent():
    start = parse_sequent("p == q |- r")
    goal = parse_formula("(p == q) -> r")
    chain = saturation_chain(start, goal)
    final = antecedent_after(chain, start)
    expected = {
        Id(p, q),
        Imp(p, q), Imp(q, p),
        Id(p, p), Id(q, q), Id(r, r),
        Imp(p, p), Imp(q, q), Imp(r, r),
    }
    assert final == expected
    # fixpoint: a second run adds nothing
    assert saturation_chain(chain[-1][1], goal) == []


def test_saturation_composes_toward_the_succedent():
    goal = parse_formula("(p == q) -> (r == s) -> ((p -> r) == (q -> s))")
    start = sequent({Id(p, q), Id(r, s)}, Id(Imp(p, r), Imp(q, s)))
    chain = saturation_chain(start, goal)
    assert any(inst.rule == "L==3" for inst, _ in chain)
    assert is_axiom(chain[-1][1])


def test_guided_composition_needs_both_sides_in_the_sequent():
    goal = parse_formula("(p == q) -> (r == s) -> ((p -> r) == (q -> s))")
    assert extended_subformulas_within(goal, EXSUB_CAP) is None  # guided mode
    composed = Id(Imp(p, r), Imp(q, s))
    # only the left side p -> r occurs: the composition is not applied
    start = sequent({Id(p, q), Id(r, s)}, Imp(p, r))
    chain = saturation_chain(start, goal)
    assert composed not in antecedent_after(chain, start)
    # both sides occur: it is applied to the two equations under ->
    start = sequent({Id(p, q), Id(r, s)}, Imp(Imp(p, r), Imp(q, s)))
    chain = saturation_chain(start, goal)
    steps = [inst for inst, end in chain if composed in end.antecedent]
    assert steps and steps[0].rule == "L==3"
    assert (steps[0].principal, steps[0].principal2, steps[0].op) == (Id(p, q), Id(r, s), "->")


THEOREMS = [
    "p -> p",
    "p -> q -> p",
    "(p -> q -> r) -> (p -> q) -> p -> r",
    "p == p",
    "(p == q) -> (p -> q)",
    "(p == q) -> ((p -> #) == (q -> #))",
]

NON_THEOREMS = [
    "((p -> q) -> p) -> p",
    "((p -> #) -> #) -> p",
    "(p -> p) == (q -> q)",
    "p == q",
]


@pytest.mark.parametrize("text", THEOREMS)
def test_theorems_are_proved(text):
    phi = parse_formula(text)
    verdict = prove(phi)
    assert verdict.proved
    assert check_proof(verdict.proof, sequent((), phi)).ok


@pytest.mark.parametrize("text", NON_THEOREMS)
def test_non_theorems_are_not_proved(text):
    assert not prove(parse_formula(text)).proved


@pytest.mark.parametrize("text", THEOREMS + NON_THEOREMS)
def test_determinism(text):
    phi = parse_formula(text)
    v1, v2 = prove(phi), prove(phi)
    assert v1.proved == v2.proved
    assert v1.stats == v2.stats
    if v1.proved:
        assert proof_doc(v1.proof) == proof_doc(v2.proof)


@pytest.mark.parametrize("text", THEOREMS)
def test_proof_invariants(text):
    phi = parse_formula(text)
    proof = prove(phi).proof
    assert antecedents_inherited(proof)
    assert no_branch_repetition(proof)
    assert extended_subformula_offenders(proof, phi) == []


def test_node_cap_raises_resource_exhausted():
    with pytest.raises(ResourceExhausted):
        prove(parse_formula("((p -> q) -> p) -> p"), Limits(max_nodes=3))


def test_timeout_raises_resource_exhausted():
    with pytest.raises(ResourceExhausted):
        prove(parse_formula("((p -> q) -> p) -> p"), Limits(timeout=0.0))


@pytest.mark.parametrize(
    "limits, message",
    [
        (Limits(max_nodes=3), "node cap 3 hit in the proof search"),
        (Limits(timeout=0.0), "timeout 0.0s hit in the proof search"),
    ],
)
def test_search_caps_name_the_search(limits, message):
    with pytest.raises(ResourceExhausted) as exc:
        prove(parse_formula("((p -> q) -> p) -> p"), limits)
    assert str(exc.value) == message


def test_budget_start_returns_the_running_budget():
    budget = Limits(max_nodes=7, timeout=5.0).start()
    assert budget.start() is budget
    assert _ProofSearch(parse_formula("p"), budget).budget is budget


def test_search_statistics_are_exposed():
    verdict = prove(parse_formula("((p -> q) -> p) -> p"))
    assert verdict.stats.nodes > 0
    assert verdict.stats.backtracks > 0


CONGRUENCE = "(p == q) -> (r == s) -> ((p -> r) == (q -> s))"


@pytest.mark.parametrize(
    "text, nodes, backtracks",
    [
        ("(p -> #) == q -> r", 87, 8),
        ("((p -> q) -> p) -> p", 25, 3),
        (CONGRUENCE, 418, 0),
        ("# == p -> (q -> #) -> q", 3_033, 1_469),
    ],
)
def test_search_space_is_pinned(text, nodes, backtracks):
    # the loop check blocking one premise more or less, or the provability
    # table cutting one sequent more or less, changes these counts (blocking
    # less can loop until the node cap); they do not depend on the string
    # hash seed
    verdict = decide(parse_formula(text), Limits(max_nodes=100_000))
    assert (verdict.stats.nodes, verdict.stats.backtracks) == (nodes, backtracks)
    if text == CONGRUENCE:
        renderings = [
            dumps(proof_doc(verdict.proof)),
            format_derivation(verdict.proof),
            format_derivation_latex(verdict.proof),
            format_derivation_dot(verdict.proof),
        ]
        assert [hashlib.sha256(r.encode()).hexdigest() for r in renderings] == [
            "9482aae232c40f425d6c39da4fc624dae45065ab63fd2a0a716a280f4dea7aab",
            "f9fb47962cc78ef73c0c01bdaa1b904b5f5f6e2dd14927a000a7a172ca1623f4",
            "f2c7d27b93b2491d8a7f28aba7da17c1621d01a3a6847203470f11e1a58b0add",
            "58584bdbd4f49d3fc846417c51effa8898d031a22ffdf9c47ffb488e8a4b1218",
        ]


def test_proof_search_hashes_no_sequent(monkeypatch):
    # a segment's sequents share their antecedent, so the loop check, the
    # failures and the provability table are keyed by formulas and never
    # hash a whole sequent
    hashed = []
    sequent_hash = Sequent.__hash__

    def counting_hash(self):
        hashed.append(self)
        return sequent_hash(self)

    monkeypatch.setattr(Sequent, "__hash__", counting_hash)
    search = _ProofSearch(parse_formula("# == p -> (q -> #) -> q"), Limits())
    assert search.run() is None
    assert hashed == []
    # failures are succedents per antecedent, and the table holds decided
    # answers per antecedent and succedent, the failed root's among them
    assert all(isinstance(a, frozenset) for a in (*search.failed, *search.table))
    assert search.table[frozenset()] == {search.goal: False}
    answers = [v for by_succ in search.table.values() for v in by_succ.values()]
    assert (
        sum(map(len, search.failed.values())),
        answers.count(True),
        answers.count(False),
    ) == (249, 78, 249)


def test_implications_are_the_l_imp_candidates():
    """`implications` leaves out self-implications and the implications
    whose consequent the antecedent holds, in canonical order."""
    search = _ProofSearch(parse_formula("p"), Limits())
    ante = parse_sequent("r -> s, q, p -> q, s -> s, p -> r |- p").antecedent
    assert search.implications(ante) == (Imp(p, r), Imp(r, s))


TABLE_NODE_CAP = 20_000


def decided(phi, table=True):
    """What `decide` gives with or without the search's table cut (a search
    that never consults the table cuts nothing; the builder still asks the
    table which premise its branch follows): the verdict and its document,
    or the error it raises; None when the cap is hit."""
    with pytest.MonkeyPatch.context() as mp:
        if not table:
            expand = _ProofSearch.expand

            def expand_without_cut(self, *args):
                self.failed.clear()  # no sequent has failed before
                return expand(self, *args)

            mp.setattr(_ProofSearch, "expand", expand_without_cut)
        try:
            verdict = decide(phi, Limits(max_nodes=TABLE_NODE_CAP))
        except ResourceExhausted:
            return None
        except CounterModelError as error:  # guided mode may fail validation
            return "error", str(error)
    if verdict.proved:
        return True, dumps(proof_doc(verdict.proof))
    return False, dumps(verdict.model.model_document())


@pytest.mark.parametrize("guided", [False, True], ids=["full", "guided"])
@settings(max_examples=150, deadline=None)
@given(phi=small_formulas_pqr)
@example(phi=Imp(p, Imp(Imp(p, q), q)))  # proved only through an L-> clause
def test_table_keeps_verdicts_and_proofs(guided, phi):
    # the table only cuts unprovable sequents, so the search finds the same
    # proofs and the builder the same models as with no table at all; and
    # the table alone, asked about the root, gives the verdict
    with pytest.MonkeyPatch.context() as mp:
        if guided:
            mp.setattr(prover, "EXSUB_CAP", 0)
        with_table, without = decided(phi), decided(phi, table=False)
        assume(with_table is not None and without is not None)
        assert with_table == without
        if with_table[0] != "error":
            search = _ProofSearch(phi, Limits())
            root = Sequent(frozenset(), phi)
            assert search.provable(root, Saturator(phi)) == with_table[0]
