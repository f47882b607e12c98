import dataclasses
import sys
import time

import pytest

from hypothesis import assume, given, settings
from oracle_utils import (
    all_formulas,
    ref_build,
    ref_leftmost_open_branch,
    ref_small_eqs,
    ref_wide_eqs,
    small_formulas_pqr,
)

import isci.countermodel as cm
from isci import prover, serialize
from isci.calculus import L_IMP, is_axiom, sequent
from isci.countermodel import (
    VALIDATION_CAP,
    CounterModelError,
    NoOpenBranchError,
    _Builder,
    _degraded_material,
    countermodel,
    decide,
    validate_bundle,
    wide_eqs,
)
from isci.formulas import (
    Id,
    Imp,
    Var,
    complexity,
    extended_subformulas,
    extended_subformulas_within,
    in_form0,
    sorted_formulas,
)
from isci.invariants import antecedents_inherited, no_branch_repetition
from isci.parser import parse_formula
from isci.prover import Limits, ResourceExhausted, _ProofSearch, prove
from isci.cli import main
from isci.semantics import Evaluator, KripkeModel, forces, value
from isci.serialize import model_from_doc

p, q, r = Var("p"), Var("q"), Var("r")


def build(text):
    """The goal's walked branch and the derivation that records it."""
    bundle = countermodel(parse_formula(text))
    return bundle.branches[0], bundle.derivations[0]


def test_build_c5_on_implication_goal():
    branch, d = build("p -> q")
    leaf = branch[-1].sequent
    assert p in leaf.antecedent
    assert leaf.succedent == q
    assert antecedents_inherited(d)
    assert no_branch_repetition(d)


def test_build_c5_on_bare_variable():
    branch, d = build("p")
    assert d.rule is None and not is_axiom(d.sequent)
    assert [occ.sequent for occ in branch] == [sequent((), p)]


def test_build_c5_on_provable_goal_closes():
    with pytest.raises(NoOpenBranchError):
        build("p == p")


def test_builder_walks_its_branches_without_searching(monkeypatch):
    # each derivation is its branch plus, at every L->, the other premise
    # as a leaf; the table picks the premise, and no proof is searched
    phi = parse_formula("p == q -> q -> r")
    search = _ProofSearch(phi, Limits())
    assert search.run() is None

    def no_search(self, *args):
        raise AssertionError("the builder searched")

    monkeypatch.setattr(_ProofSearch, "expand", no_search)
    bundle = _Builder(search).run()
    assert len(bundle.derivations) == len(bundle.branches) > 1
    for d, branch in zip(bundle.derivations, bundle.branches):
        l_imps = sum(occ.rule is not None and occ.rule.rule == L_IMP for occ in branch)
        assert d.size() == len(branch) + l_imps
        assert sum(node.is_leaf for node in d.walk()) == l_imps + 1


def test_package_exposes_the_countermodel_module():
    import isci.countermodel as cm

    assert cm is sys.modules["isci.countermodel"]
    assert cm.countermodel is countermodel


WALK_NODE_CAP = 50_000


@pytest.mark.parametrize("guided", [False, True], ids=["full", "guided"])
@settings(max_examples=100, deadline=None)
@given(phi=small_formulas_pqr)
def test_walk_follows_the_tree_builders_leftmost_open_branch(guided, phi):
    # the table's choice of premise at each L-> is the branch the tree
    # builder reached by deriving the whole tree and taking the leftmost
    # open leaf: the same sequents and rules on every branch
    with pytest.MonkeyPatch.context() as mp:
        if guided:
            mp.setattr(prover, "EXSUB_CAP", 0)
        try:
            search = _ProofSearch(phi, Limits(max_nodes=WALK_NODE_CAP))
            assume(search.run() is None)
            bundle = _Builder(search).run()
            reference = _ProofSearch(phi, Limits(max_nodes=WALK_NODE_CAP))
            assert reference.run() is None
            expected = [
                ref_leftmost_open_branch(ref_build(reference, branch[0].sequent))
                for branch in bundle.branches
            ]
        except ResourceExhausted:
            assume(False)
    for walked, branch in zip(bundle.branches, expected):
        assert [(o.sequent, o.rule) for o in walked] == [(n.sequent, n.rule) for n in branch]


def first_branch_segments(text):
    """The worlds the goal's walked branch is cut into, and the
    segment edges between them as index pairs."""
    b = countermodel(parse_formula(text))
    first = {id(node) for node in b.branches[0]}
    names = [w.name for w in b.worlds if id(w.occurrences[0]) in first]
    edges = sorted((names.index(a), names.index(c)) for a, c in b.segment_edges if a in names)
    return names, edges


def test_segment_worlds_no_r_imp():
    segments, edges = first_branch_segments("p")
    assert len(segments) == 1 and edges == []


def test_segment_worlds_splits_at_r_imp():
    segments, edges = first_branch_segments("p -> q")
    assert len(segments) == 2
    assert edges == [(0, 1)]


def test_segment_worlds_chain_of_three():
    segments, edges = first_branch_segments("p -> q -> r")
    assert len(segments) == 3
    assert edges == [(0, 1), (1, 2)]


def test_decide_searches_the_root_once(monkeypatch):
    phi = parse_formula("((p -> q) -> p) -> p")
    root = sequent((), phi)
    expanded = []
    inner = _ProofSearch._expand_inner

    def spy(self, seq, *args):
        expanded.append(seq)
        return inner(self, seq, *args)

    monkeypatch.setattr(_ProofSearch, "_expand_inner", spy)
    verdict = decide(phi)
    assert not verdict.proved and verdict.model is not None
    # the builder walks the failed root without searching it again
    assert expanded.count(root) == 1


def test_decide_has_one_deadline(monkeypatch):
    # the clock passes the deadline right after the proof search fails, so
    # the countermodel phase must stop rather than start a fresh budget
    now = [0.0]
    monkeypatch.setattr(time, "monotonic", lambda: now[0])
    run = _ProofSearch.run

    def slow_run(self):
        proof = run(self)
        now[0] += 11.0
        return proof

    monkeypatch.setattr(_ProofSearch, "run", slow_run)
    with pytest.raises(ResourceExhausted, match="timeout"):
        decide(parse_formula("((p -> q) -> p) -> p"), Limits(timeout=10.0))


@pytest.mark.parametrize(
    "limits, message",
    [
        (Limits(max_nodes=5), "node cap 5 hit in the countermodel walk"),
        (Limits(timeout=0), "timeout 0s hit in the countermodel walk"),
    ],
)
def test_walk_caps_name_the_walk(limits, message):
    # the walk counts its own nodes against the budget the search hands it
    search = _ProofSearch(parse_formula("p == q -> q -> r"), Limits())
    assert search.run() is None
    search.budget = limits.start()
    with pytest.raises(ResourceExhausted) as exc:
        _Builder(search).run()
    assert str(exc.value) == message


def test_costliest_builder_run_is_pinned():
    # the builder walks only its branches, so its nodes are theirs, and the
    # table answers every premise it asks about from the search, whose
    # nodes are all the verdict counts
    verdict = decide(parse_formula("p == q -> q -> r"))
    assert not verdict.proved
    assert len(verdict.model.worlds) == 9
    assert sum(map(len, verdict.model.branches)) == 159
    assert (verdict.stats.nodes, verdict.model.stats.nodes) == (3_188, 159)


def refute(text):
    phi = parse_formula(text)
    assert not prove(phi).proved
    return phi, countermodel(phi)


def test_variable_countermodel():
    phi, b = refute("p")
    assert len(b.worlds) == 1
    assert value(b.model, p, b.designated) == 0
    assert not forces(b.model, b.designated, phi)
    assert value(b.model, Id(q, q), b.designated) == 1


def test_atomic_equation_countermodel():
    phi, b = refute("p == q")
    assert value(b.model, Id(p, q), b.designated) == 0
    assert not forces(b.model, b.designated, phi)


def test_implication_countermodel_has_witness_world():
    phi, b = refute("p -> q")
    assert len(b.worlds) == 2
    w0, w1 = (w.name for w in b.worlds)
    assert value(b.model, p, w0) == 0
    assert value(b.model, p, w1) == 1
    assert all(value(b.model, q, w.name) == 0 for w in b.worlds)


def test_double_negation_countermodel():
    phi, b = refute("((p -> #) -> #) -> p")
    inner = parse_formula("(p -> #) -> #")
    assert any(
        forces(b.model, w.name, inner) and not forces(b.model, w.name, p)
        for w in b.worlds
    )


def test_peirce_countermodel():
    phi, b = refute("((p -> q) -> p) -> p")
    assert not forces(b.model, b.designated, phi)


def test_trivial_equation_always_true():
    phi, b = refute("p")
    assert value(b.model, Id(Imp(p, r), Imp(p, r)), b.designated) == 1


def test_succedents_never_occur_in_their_world():
    for text in ("p == q", "((p -> q) -> p) -> p", "(p -> q) -> (p == q)"):
        phi, b = refute(text)
        for w in b.worlds:
            for occ in w.occurrences:
                succ = occ.sequent.succedent
                if in_form0(succ):
                    assert succ not in w.gamma_max


def test_true_small_equations_occur_in_antecedents():
    phi, b = refute("(p -> q) -> (p == q)")
    n = complexity(phi)
    members = sorted(extended_subformulas(phi), key=str)
    for a in members:
        for c in members:
            e = Id(a, c)
            if a != c and complexity(e) <= n:
                for w in b.worlds:
                    if value(b.model, e, w.name) == 1:
                        assert e in w.gamma_max


def test_antecedents_grow_along_the_order():
    phi, b = refute("((p -> #) -> #) -> p")
    for src, dst in b.base_edges:
        assert b.world_named(src).gamma_max <= b.world_named(dst).gamma_max


def test_branch_worlds_form_a_chain():
    phi, b = refute("p -> q -> r")
    names = [w.name for w in b.worlds]
    for a in names:
        for c in names:
            assert (a, c) in b.model.order or (c, a) in b.model.order


def test_spawned_branches_are_memoized():
    phi, b = refute("((p -> q) -> p) -> p")
    keys = [occ.sequent for branch in b.branches for occ in branch]
    assert len(b.branches) <= len(keys)
    # rebuilding is deterministic
    b2 = countermodel(phi)
    assert [w.name for w in b2.worlds] == [w.name for w in b.worlds]
    assert b2.model.order == b.model.order
    assert b2.model.valuation == b.model.valuation


def test_model_document_reimports_equivalently():
    phi, b = refute("((p -> q) -> p) -> p")
    model, designated = model_from_doc(b.model_document())
    assert designated == b.designated
    assert model.worlds == tuple(w.name for w in b.worlds)
    assert not forces(model, designated, phi)
    for w in b.worlds:
        for f in (p, q):
            assert value(model, f, w.name) == value(b.model, f, w.name)


def test_close_branch_set_variable_is_singleton():
    bundle = countermodel(p)
    assert len(bundle.branches) == 1
    assert [occ.sequent for occ in bundle.branches[0]] == [sequent((), p)]
    assert bundle.spawn_edges == set()
    assert not forces(bundle.model, bundle.designated, p)


def test_close_branch_set_spawn_reuses_r_imp_premise():
    phi = parse_formula("p -> q")
    bundle = countermodel(phi)
    # the spawned witness for the implication succedent coincides with the
    # world the branch itself enters at its R-> application
    assert bundle.spawn_edges <= bundle.segment_edges
    assert len(bundle.worlds) == 2
    assert not forces(bundle.model, bundle.designated, phi)


def test_close_branch_set_peirce_is_finite_and_refutes():
    phi = parse_formula("((p -> q) -> p) -> p")
    bundle = countermodel(phi)
    assert 1 <= len(bundle.branches) < 20
    assert not forces(bundle.model, bundle.designated, phi)


def test_provable_nodes_never_reach_open_branches():
    # regression: these goals once poisoned a world with a succedent its own
    # antecedents prove (directly or after later growth)
    for text in ("p == (q == p) -> q == p", "p -> (# == q) -> #", "p -> (q == #) -> q"):
        phi = parse_formula(text)
        if prove(phi).proved:
            continue
        b = countermodel(phi)
        assert not forces(b.model, b.designated, phi)


def test_bottom_antecedent_implications_close_by_r_imp():
    # a succedent like '# -> q' is forced everywhere, so its node must close
    phi = parse_formula("p -> (# == q) -> #")
    assert not prove(phi).proved
    b = countermodel(phi)
    for w in b.worlds:
        for occ in w.occurrences:
            succ = occ.sequent.succedent
            if isinstance(succ, Imp):
                assert succ.left != succ.right
                assert not forces(b.model, w.name, succ)


def test_validation_stops_at_the_deadline():
    bundle = countermodel(parse_formula("p == q -> q -> r"))
    validate_bundle(bundle, Limits(timeout=60))
    with pytest.raises(ResourceExhausted) as exc:
        validate_bundle(bundle, Limits(timeout=0))
    assert str(exc.value) == "timeout 0s hit in validation, at the closure"


@pytest.mark.parametrize("world", range(9))
def test_validation_fails_as_check_model_does(capsys, world):
    """A bundle whose order lacks one reflexive pair fails validation with
    the failure that `isci check-model` prints for its model document: both
    run `model_failures` on the same base."""
    phi = parse_formula("p == q -> q -> r")
    bundle = countermodel(phi)
    assert len(bundle.worlds) == 9
    order = bundle.model.order - {(f"w{world}", f"w{world}")}
    model = KripkeModel(bundle.model.worlds, order, bundle.model.valuation)
    tampered = dataclasses.replace(bundle, model=model)
    with pytest.raises(CounterModelError) as exc:
        validate_bundle(tampered)
    doc = serialize.dumps(serialize.verdict_doc(phi, model=tampered.model_document()))
    assert main(["check-model", doc]) == 1
    assert capsys.readouterr().out == f"INVALID MODEL: {exc.value}\n"
    assert str(exc.value) == "order is not reflexive-transitive"


def test_equation_sets_match_the_pair_scans(monkeypatch):
    """Validation's equation sets equal the pair scans they replace, on
    every refuted formula over p and q of complexity at most 3 and on a
    goal whose closure is not subformula-closed (validation fails on it,
    ROADMAP item 1), with the closure material and with the fallback
    material.  The small check reads the one list `validate_bundle` sorts;
    its equations true somewhere are the scan's true small equations."""
    read = []

    def spy(fs):
        out = sorted_formulas(fs)
        if isinstance(fs, list):
            read.append(out)
        return out

    monkeypatch.setattr(cm, "sorted_formulas", spy)
    goals = all_formulas([p, q], 3) + [parse_formula("r == (q -> q -> r) -> r == q")]
    refuted = 0
    for phi in goals:
        search = _ProofSearch(phi, Limits())
        if search.run() is not None:
            continue
        refuted += 1
        bundle = _Builder(search).run()
        ev = Evaluator(bundle.model)
        n = complexity(phi)
        closure = extended_subformulas_within(phi, VALIDATION_CAP)
        for cap, material in ((VALIDATION_CAP, closure), (0, _degraded_material(phi, bundle))):
            monkeypatch.setattr(cm, "VALIDATION_CAP", cap)
            read.clear()
            try:
                assert validate_bundle(bundle) == (cap == 0)
            except CounterModelError:
                pass
            [small] = read
            assert [e for e in small if ev.value(e)] == [
                e for e in ref_small_eqs(phi, material) if ev.value(e)
            ]
            found = wide_eqs(n, material, bundle.model)
            assert len(found) == len(set(found))
            assert set(found) == ref_wide_eqs(n, material, bundle.model)
    assert refuted > 500
