import hashlib
import importlib.util
import os
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from isci import prover
from isci.calculus import (
    L_ID1,
    L_ID2,
    L_ID3,
    L_IMP,
    R_IMP,
    RuleInstance,
    Sequent,
    apply_rule,
    check_proof,
    is_axiom,
    relevant,
    sequent,
)
from isci.cli import main
from isci.countermodel import CounterModelError, decide
from isci.formulas import BOT, Formula, Id, Imp, Var
from isci.invariants import (
    antecedents_inherited,
    assert_restricted_derivation,
    extended_subformula_offenders,
    no_branch_repetition,
)
from isci.parser import parse_formula, parse_sequent
from isci.printer import format_derivation, format_derivation_dot, format_derivation_latex
from isci.prover import Limits, ResourceExhausted, Saturator, _ProofSearch, conclusions, identity_instance, prove
from isci.serialize import check_proof_doc, dumps, loads, proof_doc

from oracle_utils import (
    CHOOSERS,
    ref_run,
    rescan_instance,
    same_derivation,
    small_formulas_pqr,
    unpruned_proof,
    written_proof,
)
from test_acceptance import THEOREMS as ACCEPTANCE_THEOREMS

p, q, r, s = (Var(n) for n in "pqrs")


def saturation_chain(start, goal):
    """The identity-rule chain a branch's `Saturator` applies from `start`,
    as (instance, premise) pairs; every step enlarges the antecedent."""
    sat = Saturator(goal).extend(start)
    chain, conclusion = [], start
    for inst, _ in sat.saturate():
        assert conclusion.antecedent < sat.sequent.antecedent
        chain.append((inst, sat.sequent))
        conclusion = sat.sequent
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


DEPTH_2 = "p == q -> (p -> (p -> r)) == (p -> (q -> r))"

# the guided saturator checked against the full rescan, whose own choices
# these tests take as the reference
GUIDED_ONLY = pytest.mark.parametrize("choose", [CHOOSERS["guided"]], ids=["guided"])


@GUIDED_ONLY
@settings(max_examples=40, deadline=None)
@given(hyps=st.lists(small_formulas_pqr, min_size=1, max_size=2), succ=small_formulas_pqr)
@example(hyps=[Id(p, q)], succ=parse_formula(DEPTH_2).right)
def test_saturation_chooses_what_a_rescan_chooses(choose, hyps, succ):
    # the saturator's incremental state chooses, at every step, the instance
    # a rescan of the whole sequent chooses, and stops where the rescan does
    goal = succ
    for h in reversed(hyps):
        goal = Imp(h, goal)
    start = sequent(hyps, succ)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prover, "identity_instance", choose)
        chain = saturation_chain(start, goal)
    steps = [start] + [end for _, end in chain]
    assert [inst for inst, _ in chain] + [None] == [rescan_instance(goal, s) for s in steps]


# L==3 composes ((p -> q) -> s) == ((p -> q) -> (p -> q) -> s), whose right
# side occurs only in the succedent
SUCCEDENT_SIDE = "(s == ((p -> q) -> s)) -> ((p -> q) -> ((p -> q) -> s))"


@GUIDED_ONLY
@pytest.mark.parametrize(
    "text", ["p == q -> (p -> #) -> q", "(p -> #) == q -> r", DEPTH_2, SUCCEDENT_SIDE]
)
def test_search_saturates_as_a_rescan_does(monkeypatch, choose, text):
    # every saturation step of a whole decision, on branches that extend a
    # parent's saturator and change succedents, is the rescan's choice; a
    # saturator that drops the compositions of the succedent's sides
    # departs from it on SUCCEDENT_SIDE
    goal = parse_formula(text)

    def checked(sat):
        inst = choose(sat)
        assert inst == rescan_instance(goal, sat.sequent)
        return inst

    monkeypatch.setattr(prover, "identity_instance", checked)
    decide(goal)


@pytest.mark.parametrize("text", ["p == q -> (p -> #) -> q", DEPTH_2, SUCCEDENT_SIDE])
def test_admitted_entries_carry_their_instances_order_key(monkeypatch, text):
    # the saturator queues instances unbuilt, under keys it builds inline;
    # each instance admitted sits on top of the heap under its own order key
    admitted = []

    def checked(sat):
        inst = identity_instance(sat)
        if inst is not None:
            key, built, top, _ = sat._heap[0]
            assert built == 0 and top is inst and key == inst.order_key()
            admitted.append(inst.rule)
        return inst

    monkeypatch.setattr(prover, "identity_instance", checked)
    decide(parse_formula(text))
    assert {"L==1", "L==2", "L==3"} <= set(admitted)


def test_guided_saturation_interns_few_equations():
    # guided mode builds a composition only once its two sides occur; built
    # against every partner within the bound and parked until its sides
    # occurred, the compositions of this proof interned about 1,500 equations
    script = (
        "from isci.countermodel import decide\n"
        "from isci.formulas import Id\n"
        "from isci.parser import parse_formula\n"
        f"phi = parse_formula({DEPTH_2!r})\n"
        "before = len(Id._interned)\n"
        "proved = decide(phi).proved\n"
        "print(proved, len(Id._interned) - before)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    proved, interned = proc.stdout.split()
    assert proved == "True"
    assert int(interned) <= 600


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
    # the nodes are the table's saturation steps and clause evaluations;
    # writing the proof counts none
    verdict = prove(parse_formula("p == q -> q == p"))
    assert verdict.stats.nodes == 45


CONGRUENCE = "(p == q) -> (r == s) -> ((p -> r) == (q -> s))"


SEARCH_SPACES = [
    ("(p -> #) == q -> r", 34),
    ("((p -> q) -> p) -> p", 18),
    (CONGRUENCE, 417),
    ("# == p -> (q -> #) -> q", 50),
]


@pytest.mark.parametrize("text, nodes", SEARCH_SPACES, ids=[case[0] for case in SEARCH_SPACES])
def test_search_space_is_pinned(text, nodes):
    # the provability table evaluating one goal or saturating one sequent
    # more or less changes these counts; they do not depend on the string
    # hash seed
    verdict = decide(parse_formula(text), Limits(max_nodes=100_000))
    assert verdict.stats.nodes == nodes
    if text == CONGRUENCE:
        renderings = [
            dumps(proof_doc(verdict.proof)),
            format_derivation(verdict.proof),
            format_derivation_latex(verdict.proof),
            format_derivation_dot(verdict.proof),
        ]
        assert [hashlib.sha256(r.encode()).hexdigest() for r in renderings] == [
            "18e330f2cd4acec0f7155848f8b1088229bfbc73cd405be9b546e13276661a84",
            "2a74ceaadc92be0520d195213b59c3b2681af850896af674de5c97a8583c68dc",
            "36ee615d731409f6b5064fa9ec674cb048fc8a31ea8514f3074bc6cc0999eac8",
            "3557673081c92c35879a896ff82ca41d58fc8908fee4e3de4d9ef2fa3757fa86",
        ]


@pytest.mark.parametrize("text", [CONGRUENCE, DEPTH_2])
def test_no_composition_pairs_a_side_with_itself(monkeypatch, text):
    # a composition x == x is never admitted, since the L==1 instance of x,
    # under the same bound and closure test, sorts before it; so none waits
    # on any heap the congruence theorems' saturation reads
    compositions = []

    def checked(sat):
        compositions.extend(entry for entry in sat._heap if entry[1] == 1 and len(entry) == 7)
        return identity_instance(sat)

    monkeypatch.setattr(prover, "identity_instance", checked)
    assert decide(parse_formula(text), Limits(max_nodes=100_000)).proved
    assert compositions
    assert not [(x, y) for *_, x, y in compositions if x is y]


# L==1 on p 2,000 times over |- p -> p, then R-> and an axiom leaf, built
# under the interpreter's default recursion limit
DEEP_CHAIN_SCRIPT = (
    "import sys\n"
    "from isci.calculus import Derivation, RuleInstance, apply_rule, sequent\n"
    "from isci.formulas import Imp, Var\n"
    "p = Var('p')\n"
    "rules = [RuleInstance('L==1', principal=p)] * 2000 + [RuleInstance('R->')]\n"
    "seqs = [sequent([], Imp(p, p))]\n"
    "for rule in rules:\n"
    "    seqs.append(apply_rule(seqs[-1], rule)[0])\n"
    "d = Derivation(seqs.pop())\n"
    "for seq, rule in zip(reversed(seqs), reversed(rules)):\n"
    "    d = Derivation(seq, rule, (d,))\n"
    "assert sys.getrecursionlimit() < 2000\n"
)


def run_on_the_deep_chain(lines):
    proc = subprocess.run([sys.executable, "-c", DEEP_CHAIN_SCRIPT + lines], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_a_derivation_2000_steps_deep_renders_in_a_fresh_process():
    assert run_on_the_deep_chain(
        "from isci.printer import format_derivation, format_derivation_dot, format_derivation_latex\n"
        "from isci.serialize import check_proof_doc, proof_doc\n"
        "print(len(format_derivation(d).splitlines()))\n"
        "print(format_derivation_latex(d).count('\\\\infer'))\n"
        "print(format_derivation_dot(d).count(' -> n'))\n"
        "print(check_proof_doc(proof_doc(d)).ok)\n"
    ) == ["2002", "2001", "2001", "True"]


def test_relevant_prunes_a_derivation_2000_steps_deep_in_a_fresh_process():
    # nothing reads p == p, so the chain goes and R-> closes on the axiom
    assert run_on_the_deep_chain(
        "from isci.calculus import relevant\n"
        "print(*[n.rule.rule if n.rule else 'axiom' for n in relevant(d).walk()])\n"
    ) == ["R->", "axiom"]


@pytest.mark.parametrize("text, proved, nodes", [(CONGRUENCE, True, 417), ("p == q -> q -> r", False, 51)])
def test_decide_prove_and_the_checks_leave_the_recursion_limit_alone(capsys, monkeypatch, text, proved, nodes):
    # the provability table runs on an explicit stack, and `loads` reads
    # under the limit it finds, so no call changes the process-wide limit,
    # and the verdicts and counts are as before
    def refuse(limit):
        raise AssertionError(f"setrecursionlimit({limit})")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    phi = parse_formula(text)
    for verdict in (decide(phi), prove(phi)):
        assert (verdict.proved, verdict.stats.nodes) == (proved, nodes)
    assert main(["decide", text, "--format", "structured"]) == (0 if proved else 1)
    document = capsys.readouterr().out
    assert main(["check-proof" if proved else "check-model", document]) == 0
    assert capsys.readouterr().out == ("VALID PROOF\n" if proved else "VALID MODEL\n")


def test_a_60_variable_chain_proves_under_a_recursion_limit_of_150():
    # p0 -> p1 -> ... -> p59 -> p0 stacks a premise per variable, which a
    # recursive table would decide 60 calls deep, or more
    script = (
        "import sys\n"
        "from isci.countermodel import decide\n"
        "from isci.formulas import Imp, Var\n"
        "ps = [Var(f'p{i}') for i in range(60)]\n"
        "phi = ps[0]\n"
        "for v in reversed(ps):\n"
        "    phi = Imp(v, phi)\n"
        "sys.setrecursionlimit(150)\n"
        "def refuse(limit):\n"
        "    raise AssertionError(f'setrecursionlimit({limit})')\n"
        "sys.setrecursionlimit = refuse\n"
        "verdict = decide(phi)\n"
        "print(verdict.proved, verdict.stats.nodes)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "3974"]


def test_the_formula_walks_run_under_a_recursion_limit_of_100():
    # chains 3,000 deep: subformulas, variables, closure membership, the
    # saturator's indexes, forcing and the congruences walk them all on
    # explicit stacks
    script = (
        "import sys\n"
        "from isci.calculus import Sequent\n"
        "from isci.formulas import Id, Imp, Var, in_extended_subformulas, subformulas, variables\n"
        "from isci.prover import Saturator\n"
        "from isci.semantics import Congruence, Evaluator, KripkeModel\n"
        "p, q = Var('p'), Var('q')\n"
        "ps, qs = p, q\n"
        "for _ in range(3000):\n"
        "    ps, qs = Imp(p, ps), Imp(q, qs)\n"
        "goal = Imp(Id(p, q), Imp(ps, qs))\n"
        "sys.setrecursionlimit(100)\n"
        "sat = Saturator(p).extend(Sequent(frozenset([ps]), p))\n"
        "model = KripkeModel(('w',), frozenset([('w', 'w')]), {(p, 'w'): 1, (q, 'w'): 0})\n"
        "congruence = Congruence()\n"
        "congruence.merge(ps, qs)\n"
        "print(len(subformulas(goal)), len(variables(goal)), in_extended_subformulas(Id(ps, qs), goal))\n"
        "print(len(sat._sub), Evaluator(model).forces(ps), Evaluator(model).forces(Imp(ps, q)))\n"
        "print(congruence.find(ps) is congruence.find(qs), congruence.find(Imp(p, ps)) is congruence.find(Imp(p, qs)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["6005", "2", "True", "3001", "1", "0", "True", "True"]


def test_proof_search_hashes_no_sequent(monkeypatch):
    # the provability table and the saturation chains are keyed by
    # antecedent and then succedent, so the search never hashes a whole
    # sequent
    hashed = []
    sequent_hash = Sequent.__hash__

    def counting_hash(self):
        hashed.append(self)
        return sequent_hash(self)

    monkeypatch.setattr(Sequent, "__hash__", counting_hash)
    search = _ProofSearch(parse_formula("# == p -> (q -> #) -> q"), Limits())
    assert search.run() is None
    assert hashed == []
    # the table holds decided answers per antecedent and succedent, the
    # refuted root's among them
    assert all(isinstance(a, frozenset) for a in search.table)
    assert search.table[frozenset()] == {search.goal: False}
    answers = [v for by_succ in search.table.values() for v in by_succ.values()]
    assert answers == [False] * 9


def test_each_sequent_is_saturated_once():
    # a second call reads the stored chain and saturator and ticks nothing
    search = _ProofSearch(parse_formula("p == q -> q -> r"), Limits())
    seq = parse_sequent("p == q |- q -> r")
    chain, sat = search.saturated(seq, search.saturator)
    assert chain and search.stats.nodes == len(chain)
    again = search.saturated(Sequent(seq.antecedent, seq.succedent), search.saturator)
    assert again[0] is chain and again[1] is sat
    assert search.stats.nodes == len(chain)


def test_implications_are_the_l_imp_candidates():
    """`implications` leaves out self-implications and the implications
    whose consequent the antecedent holds, in canonical order."""
    search = _ProofSearch(parse_formula("p"), Limits())
    ante = parse_sequent("r -> s, q, p -> q, s -> s, p -> r |- p").antecedent
    assert search.implications(ante) == (Imp(p, r), Imp(r, s))


TABLE_NODE_CAP = 20_000


def decided(phi, table=True):
    """What `decide` gives with the proof read off the provability table,
    or without the table deciding the root (then `ref_run` searches from
    the root with no table; the builder still asks the table which premise
    its branch follows): the verdict and its document, or the error it
    raises; None when the cap is hit."""
    with pytest.MonkeyPatch.context() as mp:
        if not table:
            mp.setattr(_ProofSearch, "run", ref_run)
        try:
            verdict = decide(phi, Limits(max_nodes=TABLE_NODE_CAP))
        except ResourceExhausted:
            return None
        except CounterModelError as error:
            return "error", str(error)
    if verdict.proved:
        return True, dumps(proof_doc(verdict.proof))
    return False, dumps(verdict.model.model_document())


@pytest.mark.parametrize("choose", CHOOSERS.values(), ids=CHOOSERS.keys())
@settings(max_examples=150, deadline=None)
@given(phi=small_formulas_pqr)
@example(phi=Imp(p, Imp(Imp(p, q), q)))  # proved only through an L-> clause
def test_table_keeps_verdicts_and_proofs(choose, phi):
    # the table gives the verdicts of a search with no table, and the
    # builder the same models; a proof is one the checker accepts, but it
    # may take another alternative than the search; and the table alone,
    # asked about the root, gives the verdict; whether saturation rescans
    # each sequent or keeps the guided saturator's state
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prover, "identity_instance", choose)
        with_table, without = decided(phi), decided(phi, table=False)
        assume(with_table is not None and without is not None)
        assert with_table[0] == without[0]
        if with_table[0] is not True:
            assert with_table == without
        if with_table[0] != "error":
            search = _ProofSearch(phi, Limits())
            root = Sequent(frozenset(), phi)
            assert search.provable(root, Saturator(phi)) == with_table[0]


@pytest.mark.parametrize("text", ACCEPTANCE_THEOREMS + ["p == q -> q == p"])
def test_the_gated_search_writes_the_reference_proofs(text):
    # the theorems' proofs are those of the search with no table; on the
    # symmetry formula the table proves a premise of a later alternative
    # first, so its proof differs from the search's, at the same size
    phi = parse_formula(text)
    gated, reference = decided(phi), decided(phi, table=False)
    assert gated is not None and gated[0] is True
    if text != "p == q -> q == p":
        assert gated == reference
        return
    assert gated != reference
    steps = [len(loads(doc)["steps"]) for _, doc in (gated, reference)]
    assert steps == [7, 7]
    assert check_proof_doc(loads(gated[1])).ok
    digest = hashlib.sha256(gated[1].encode()).hexdigest()
    assert digest == "f7c248422583083a6b0d8bef399f57b287859ac794d1e34107b7565886c5f866"


@pytest.mark.parametrize("text", ACCEPTANCE_THEOREMS)
def test_the_writer_decides_nothing(monkeypatch, text):
    # once the table proves the root, the proof is read off it: writing
    # evaluates no clause and counts no node, and each R-> and L-> node of
    # the proof the table holds, before pruning, is the clause the table
    # keeps for its sequent, premises and all
    phi = parse_formula(text)
    search = _ProofSearch(phi, Limits())
    root = Sequent(frozenset(), phi)
    assert search.provable(root, search.saturator)
    nodes = search.stats.nodes

    def no_clauses(*args):
        raise AssertionError("the writer evaluated a clause")

    monkeypatch.setattr(_ProofSearch, "_clauses", no_clauses)
    proof = search.write(root)
    assert search.stats.nodes == nodes
    assert check_proof(proof, root).ok
    written = unpruned_proof(search, root)
    inner = [n for n in written.walk() if n.rule is not None and n.rule.rule in (R_IMP, L_IMP)]
    for node in inner:  # none where saturation alone proves the theorem
        inst, premises = search.table[node.sequent.antecedent][node.sequent.succedent]
        assert node.rule is inst
        assert len(node.children) == len(premises)
        assert all(child.sequent is premise for child, premise in zip(node.children, premises))


def reads(node):
    """The antecedent formulas the subtree at `node` reads, by recursion:
    an axiom leaf its succedent, else #; a rule what its premises read less
    what it adds, its principals, and what it would add that its conclusion
    already holds."""
    seq, rule = node.sequent, node.rule
    if rule is None:
        return {seq.succedent if seq.succedent in seq.antecedent else BOT}
    above = set().union(*map(reads, node.children))
    new = node.children[-1].sequent.antecedent - seq.antecedent
    held = set()
    if rule.rule == R_IMP:
        held = {seq.succedent.left}
    elif rule.rule == L_ID2:
        held = {Imp(rule.principal.left, rule.principal.right), Imp(rule.principal.right, rule.principal.left)}
    principals = {rule.principal, rule.principal2} - {None} if rule.rule in (L_IMP, L_ID2, L_ID3) else set()
    return (above - new) | (held & seq.antecedent) | principals


def is_subsequence(short, long):
    rest = iter(long)
    return all(any(x is y for y in rest) for x in short)


def assert_relevant_proof(phi):
    """The pruned proof of a provable `phi` is certified, its steps are a
    subsequence of the written proof's, a second pass leaves it as it is,
    and each identity step in it adds a formula read above."""
    try:
        written = written_proof(phi, Limits(max_nodes=TABLE_NODE_CAP))
    except ResourceExhausted:
        assume(False)
    if written is None:
        return
    proof = relevant(written)
    assert check_proof(proof, sequent((), phi)).ok
    assert_restricted_derivation(proof, phi)
    assert is_subsequence([n.rule for n in proof.walk()], [n.rule for n in written.walk()])
    assert relevant(proof) is proof
    for node in proof.walk():
        if node.rule is not None and node.rule.rule in (L_ID1, L_ID2, L_ID3):
            premise = node.children[0]
            assert reads(premise) & (premise.sequent.antecedent - node.sequent.antecedent)


@settings(max_examples=150, deadline=None)
@given(phi=small_formulas_pqr)
def test_relevant_keeps_a_certified_subsequence(phi):
    assert_relevant_proof(phi)


@pytest.mark.parametrize("text", ACCEPTANCE_THEOREMS)
def test_relevant_keeps_a_certified_subsequence_of_the_theorems(text):
    assert_relevant_proof(parse_formula(text))


def test_the_congruence_axiom_proof_keeps_the_steps_it_reads():
    # the written proof has 418 steps, all but 3 of them saturation; the
    # axiom reads only the one composition
    proof = prove(parse_formula(CONGRUENCE)).proof
    assert [n.rule.rule if n.rule else "axiom" for n in proof.walk()] == [R_IMP, R_IMP, L_ID3, "axiom"]


def identity_workload() -> list[str]:
    """The formulas of the benchmark's `identity` workload at seed 1, read
    from `certbench/corpus.py`."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "certbench", "corpus.py")
    spec = importlib.util.spec_from_file_location("certbench_corpus", path)
    corpus = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(corpus)
    return [op.formula for op in corpus.identity(1).ops]


IDENTITY_WORKLOAD = identity_workload()


def assert_written_as_pruned(phi):
    """The proof `write` reads off the table is `relevant` of the whole
    proof the table holds, node for node; and every stored chain holds
    instances and formulas, no sequent, whose conclusions `conclusions`
    builds as `apply_rule` does, up to the saturator's end sequent."""
    search = _ProofSearch(phi, Limits(max_nodes=TABLE_NODE_CAP))
    root = Sequent(frozenset(), phi)
    if search.provable(root, search.saturator):
        whole = unpruned_proof(search, root)
        assert same_derivation(search.write(root), relevant(whole))
    assert search._saturated
    for ante, by_succ in search._saturated.items():
        for succ, (chain, sat) in by_succ.items():
            assert all(
                isinstance(inst, RuleInstance) and all(isinstance(f, Formula) for f in new)
                for inst, new in chain
            )
            steps = list(conclusions(Sequent(ante, succ), chain))
            premises = [conclusion for conclusion, _ in steps[1:]] + [sat.sequent]
            for (conclusion, inst), premise in zip(steps, premises):
                assert apply_rule(conclusion, inst) == [premise]


@settings(max_examples=150, deadline=None)
@given(phi=small_formulas_pqr)
def test_write_prunes_as_it_reads(phi):
    try:
        assert_written_as_pruned(phi)
    except ResourceExhausted:
        assume(False)


@pytest.mark.parametrize("text", ACCEPTANCE_THEOREMS + IDENTITY_WORKLOAD)
def test_write_prunes_as_it_reads_the_theorems_and_the_identity_workload(text):
    assert_written_as_pruned(parse_formula(text))
