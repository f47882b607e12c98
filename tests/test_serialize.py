import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import isci.calculus
import isci.parser
import isci.printer
import isci.serialize
from isci.calculus import Derivation, RuleInstance, Sequent, check_proof, sequent
from isci.cli import main
from isci.countermodel import countermodel, decide
from isci.formulas import Var
from isci.parser import ParseError, parse_formula, parse_sequent
from isci.printer import format_sequent
from isci.prover import prove
from isci.semantics import forces, value
from isci.serialize import (
    DocumentError,
    check_proof_doc,
    dumps,
    loads,
    model_from_doc,
    proof_doc,
    verdict_doc,
)
from oracle_utils import derivation_from_doc, formulas_pq, reference_check_proof, same_derivation, written_proof
from test_acceptance import NON_THEOREMS, THEOREMS

p, q = Var("p"), Var("q")
CONGRUENCE = "(p == q) -> (r == s) -> ((p -> r) == (q -> s))"


def nested_document(d):
    """`d` as a nested proof document, as the reader still takes it: each
    node holds its sequent, its step's fields and its premises."""
    steps = iter(proof_doc(d)["steps"])

    def node(n):
        return {"sequent": format_sequent(n.sequent), **next(steps), "premises": [node(c) for c in n.children]}

    return node(d)


def test_proof_document_round_trip():
    phi = parse_formula("(p == q) -> (p -> q)")
    verdict = prove(phi)
    doc = proof_doc(verdict.proof)
    restored = derivation_from_doc(loads(dumps(doc)))
    assert same_derivation(restored, verdict.proof)
    assert check_proof(restored, sequent((), phi)).ok
    assert check_proof_doc(loads(dumps(doc))).ok


def test_model_document_round_trip():
    phi = parse_formula("p -> q")
    bundle = countermodel(phi)
    model, designated = model_from_doc(loads(dumps(bundle.model_document())))
    assert designated == bundle.designated
    assert not forces(model, designated, phi)
    for w in model.worlds:
        assert value(model, p, w) == value(bundle.model, p, w)


# refutations from the benchmark's search workload, and one whose closure is too large to build
REFUTATIONS = [
    "# == p -> (q -> #) -> q",
    "p == q -> q -> r",
    "p == q -> (p -> #) -> q",
    "(p -> #) == q -> r",
    "(# == p) == q -> # == (r == #)",
]


@pytest.mark.parametrize("text", NON_THEOREMS + REFUTATIONS)
def test_the_model_document_is_the_validated_model(text):
    """The document prints the very valuation `decide` validated: reading
    it back gives the same worlds, order, valuation and designated world."""
    bundle = countermodel(parse_formula(text))
    model, designated = model_from_doc(bundle.model_document())
    assert model.worlds == bundle.model.worlds
    assert model.order == bundle.model.order
    assert model.valuation == bundle.model.valuation
    assert designated == bundle.designated


def test_verdict_document_status():
    phi = parse_formula("p == p")
    assert verdict_doc(phi, proof=prove(phi).proof)["status"] == "proved"
    psi = parse_formula("p == q")
    doc = verdict_doc(psi, model=countermodel(psi).model_document())
    assert doc["status"] == "refuted"
    assert doc["formula"] == "p == q"


json_text = st.text(st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\u00e9\u2203\U0001d4b3') | st.characters())
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | json_text,
    lambda children: st.lists(children) | st.dictionaries(json_text, children),
    max_leaves=40,
)


@given(json_values)
def test_dumps_writes_what_json_dumps_writes(value):
    assert dumps(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("text", THEOREMS + NON_THEOREMS)
def test_dumps_writes_each_acceptance_document_as_json_dumps_does(text):
    phi = parse_formula(text)
    verdict = decide(phi)
    if verdict.proved:
        doc = verdict_doc(phi, proof=verdict.proof)
    else:
        doc = verdict_doc(phi, model=verdict.model.model_document())
    assert dumps(doc) == json.dumps(doc, indent=2) + "\n"


def test_malformed_documents_rejected():
    with pytest.raises(DocumentError):
        loads("not json")
    with pytest.raises(DocumentError):
        loads("[1, 2]")
    with pytest.raises(DocumentError):
        check_proof_doc({"sequent": "|- p", "rule": "L??", "premises": []})
    with pytest.raises(DocumentError):
        check_proof_doc({"sequent": "|- p", "rule": "axiom", "premises": [
            {"sequent": "|- p", "rule": "axiom", "premises": []}]})
    with pytest.raises(DocumentError):
        model_from_doc({"worlds": [], "order_pairs": [], "valuation": [],
                        "designated_world": "w0"})
    with pytest.raises(DocumentError):
        model_from_doc({"worlds": ["w0"], "order_pairs": [["w0", "w9"]],
                        "valuation": [], "designated_world": "w0"})
    with pytest.raises(DocumentError):
        model_from_doc({"worlds": ["w0"], "order_pairs": [],
                        "valuation": [["p", "w0", 2]], "designated_world": "w0"})


def test_rule_instances_survive_round_trip():
    phi = parse_formula("(p == q) -> (r == s) -> ((p -> r) == (q -> s))")
    verdict = prove(phi)
    restored = derivation_from_doc(proof_doc(verdict.proof))
    rules = {n.rule.rule for n in restored.walk() if n.rule is not None}
    assert "L==3" in rules  # the composition step carries two principals
    assert same_derivation(restored, verdict.proof)


def result_or_error(read, arg):
    try:
        return read(arg)
    except ParseError as exc:
        return f"ParseError {exc}"


EDIT_CHARS = list(",|->=()#⇒p ")


def apply_edits(text, edits):
    for pos, kind, ch in edits:
        i = pos % (len(text) + 1)
        if kind == "insert":
            text = text[:i] + ch + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + ch + text[i + 1 :]
    return text


@given(
    st.sets(formulas_pq, max_size=4),
    formulas_pq,
    st.lists(
        st.tuples(st.integers(0, 200), st.sampled_from(["insert", "delete", "replace"]),
                  st.sampled_from(EDIT_CHARS)),
        max_size=4,
    ),
)
def test_memoized_reader_agrees_with_parse_sequent(antecedent, succedent, edits):
    # the root sequent fills the document's memo before its premise is read
    printed = format_sequent(Sequent(frozenset(antecedent), succedent))
    edited = apply_edits(printed, edits)
    doc = {"sequent": printed, "rule": "R->",
           "premises": [{"sequent": edited, "rule": "open", "premises": []}]}
    premise = result_or_error(lambda d: derivation_from_doc(d).children[0].sequent, doc)
    assert premise == result_or_error(parse_sequent, edited)


def formulas_in(d):
    found = set()
    for node in d.walk():
        found |= node.sequent.antecedent | {node.sequent.succedent}
        if node.rule is not None:
            found |= {f for f in (node.rule.principal, node.rule.principal2) if f is not None}
    return found


@pytest.fixture(scope="module")
def congruence_proof():
    return written_proof(parse_formula(CONGRUENCE))


def test_documents_print_and_parse_each_distinct_formula_once(monkeypatch, congruence_proof):
    formulas = formulas_in(congruence_proof)
    texts = {isci.printer.format_formula(f) for f in formulas}
    assert sum(1 for _ in congruence_proof.walk()) == 418 and len(texts) == len(formulas)

    # a formatter prints each distinct formula once, so a document is
    # printed by one formatter and no call of `format_formula`
    printed, built = [], []
    fmt, make = isci.printer.format_formula, isci.printer.formatter

    def counting_format(f):
        printed.append(f)
        return fmt(f)

    def counting_formatter(*args):
        built.append(args)
        return make(*args)

    for module in (isci.printer, isci.serialize):
        monkeypatch.setattr(module, "format_formula", counting_format)
        monkeypatch.setattr(module, "formatter", counting_formatter)
    doc = proof_doc(congruence_proof)
    assert (len(printed), len(built)) == (0, 1)
    # a model's rows repeat each formula at each world
    bundle = decide(parse_formula("p == q -> (p -> #) -> q")).model
    built.clear()
    rows = bundle.model_document()["valuation"]
    assert (len(printed), len(built)) == (0, 1)
    assert (len(rows), len({text for text, _, _ in rows})) == (24, 11)
    monkeypatch.undo()
    assert doc["sequent"] == format_sequent(congruence_proof.sequent)
    assert len(doc["steps"]) == sum(1 for _ in congruence_proof.walk())

    tokenized = []
    tokenize = isci.parser._tokenize

    def counting_tokenize(text):
        tokenized.append(text)
        return tokenize(text)

    monkeypatch.setattr(isci.parser, "_tokenize", counting_tokenize)
    assert check_proof_doc(doc).ok
    assert len(tokenized) <= len(texts)
    assert sum(map(len, tokenized)) <= sum(map(len, texts))


DEPTH2 = "p == q -> (p -> (p -> r)) == (p -> (q -> r))"


@pytest.fixture(scope="module")
def depth2_proof():
    return prove(parse_formula(DEPTH2)).proof


def depth2_document(proof):
    """The verdict on DEPTH2 with its proof in the nested form."""
    doc = verdict_doc(parse_formula(DEPTH2), proof=proof)
    doc["proof"] = nested_document(proof)
    return doc


def document_nodes(node):
    nodes, stack = [], [node]
    while stack:
        nodes.append(stack.pop())
        stack.extend(reversed(nodes[-1]["premises"]))
    return nodes


def split_sequent(text):
    left, _, succedent = text.partition("|- ")
    return (left[:-1].split(", ") if left else []), succedent


def node_texts(node):
    antecedent, succedent = split_sequent(node["sequent"])
    return antecedent + [succedent] + [node[k] for k in ("principal", "principal2") if k in node]


def plain_derivation(node):
    """A document's derivation read with `parse_sequent` and `parse_formula` alone."""
    rule = None
    if node["rule"] not in ("axiom", "open"):
        principals = [parse_formula(node[k]) if k in node else None for k in ("principal", "principal2")]
        rule = RuleInstance(node["rule"], *principals, node.get("op"))
    children = tuple(plain_derivation(p) for p in node["premises"])
    return Derivation(parse_sequent(node["sequent"]), rule, children)


def check_proof_output(capsys, doc):
    code = main(["check-proof", json.dumps(doc)])
    return code, capsys.readouterr().out


def test_seeded_read_tokenizes_only_the_root(monkeypatch, depth2_proof):
    doc = proof_doc(depth2_proof)
    root = depth2_proof.sequent
    root_texts = {isci.printer.format_formula(f) for f in root.antecedent | {root.succedent}}
    tokenized = []
    tokenize = isci.parser._tokenize

    def counting_tokenize(text):
        tokenized.append(text)
        return tokenize(text)

    monkeypatch.setattr(isci.parser, "_tokenize", counting_tokenize)
    assert check_proof_doc(doc).ok
    assert len(tokenized) <= len(root_texts)


def alias(text):
    return text.replace(" -> ", " ⊃ ").replace(" == ", " ≡ ")


REPRINTS = {
    "reversed": lambda ante, succ: ", ".join(reversed(ante)) + " |- " + succ,
    "no space": lambda ante, succ: ",".join(ante) + " |- " + succ,
    "aliases": lambda ante, succ: ", ".join(map(alias, ante)) + " ⇒ " + alias(succ),
}


@pytest.mark.parametrize("reprint", REPRINTS.values(), ids=REPRINTS.keys())
def test_documents_from_other_writers_read_as_parse_sequent_reads_them(capsys, depth2_proof, reprint):
    doc = depth2_document(depth2_proof)
    nodes = document_nodes(doc["proof"])
    for node in nodes:
        node["sequent"] = reprint(*split_sequent(node["sequent"]))
    read = list(derivation_from_doc(doc["proof"]).walk())
    assert [d.sequent for d in read] == [parse_sequent(n["sequent"]) for n in nodes]
    assert check_proof_output(capsys, doc) == (0, "VALID PROOF\n")


def test_a_swap_between_seeded_texts_is_reported_as_parse_sequent_reads_it(capsys, depth2_proof):
    doc = depth2_document(depth2_proof)
    nodes = document_nodes(doc["proof"])
    # the first non-root node with an antecedent formula to swap for a
    # formula of an earlier node, which the reader's table already holds
    for index in range(1, len(nodes)):
        antecedent, succedent = split_sequent(nodes[index]["sequent"])
        earlier = {t for n in nodes[:index] for t in node_texts(n)}
        others = sorted(earlier - set(antecedent) - {succedent})
        if antecedent and others:
            break
    nodes[index]["sequent"] = ", ".join([others[0]] + antecedent[1:]) + " |- " + succedent
    claim = sequent((), parse_formula(doc["formula"]))
    expected = check_proof(plain_derivation(doc["proof"]), claim).error
    assert expected.startswith("premise mismatch at ")
    assert check_proof_output(capsys, doc) == (1, f"INVALID PROOF: {expected}\n")


# the theorems of the benchmark's `identity` and `search` workloads: the
# congruence instances p == q -> C[p] == C[q] over its contexts C, two
# further theorems, and the 418-node congruence proof
INNER = ["(x -> r)", "(r -> x)", "(x == r)", "(r == x)"]
OUTER = ["(p -> x)", "(q -> x)", "(# == x)", "(r == x)"]
BENCHMARK_THEOREMS = [
    f"p == q -> {c.replace('x', 'p')} == {c.replace('x', 'q')}"
    for c in INNER + [outer.replace("x", inner) for inner in INNER for outer in OUTER]
] + ["(p -> q -> r) -> (p -> q) -> p -> r", "(p == q) -> ((p -> #) == (q -> #))", CONGRUENCE]


@pytest.mark.parametrize("text", BENCHMARK_THEOREMS)
def test_proofs_read_back_unchanged(text):
    proof = decide(parse_formula(text)).proof
    assert same_derivation(derivation_from_doc(loads(dumps(proof_doc(proof)))), proof)


def test_the_nested_form_is_the_earlier_documents_byte_for_byte(congruence_proof):
    # the nested form is what proof documents were before they held steps,
    # byte for byte, and it reads back as the compact one does
    doc = nested_document(congruence_proof)
    assert hashlib.sha256(dumps(doc).encode()).hexdigest() == (
        "9482aae232c40f425d6c39da4fc624dae45065ab63fd2a0a716a280f4dea7aab"
    )
    assert same_derivation(derivation_from_doc(loads(dumps(doc))), congruence_proof)


def swap_l_id3_principal(doc):
    # the goal is an implication, not an antecedent equation
    step = next(s for s in doc["proof"]["steps"] if s["rule"] == "L==3")
    step["principal"] = doc["formula"]


def close_early(doc):
    # the step before the last leaf becomes a leaf, and the last leaf goes
    doc["proof"]["steps"][-2:] = [{"rule": "axiom"}]


EDITS = {
    "principal swapped": (swap_l_id3_principal, "L==3 not applicable at "),
    "step deleted": (lambda doc: doc["proof"]["steps"].pop(), "the steps end before the proof does"),
    "step appended": (lambda doc: doc["proof"]["steps"].append({"rule": "axiom"}), "steps after the proof's last leaf"),
    "axiom on an open leaf": (close_early, "open leaf "),
}


@pytest.mark.parametrize("edit, message", EDITS.values(), ids=EDITS.keys())
def test_edited_compact_documents_fail(capsys, depth2_proof, edit, message):
    doc = verdict_doc(parse_formula(DEPTH2), proof=depth2_proof)
    assert check_proof_output(capsys, doc) == (0, "VALID PROOF\n")
    edit(doc)
    code, out = check_proof_output(capsys, doc)
    assert code == 1
    assert out.startswith(f"INVALID PROOF: {message}")


def test_check_proof_builds_no_derivation(capsys, monkeypatch, depth2_proof):
    def no_derivation(*args, **kwargs):
        raise AssertionError("a Derivation was built")

    applied = []
    apply_rule = isci.calculus.apply_rule

    def counting_apply_rule(seq, rule):
        applied.append(rule)
        return apply_rule(seq, rule)

    doc = verdict_doc(parse_formula(DEPTH2), proof=depth2_proof)
    for module in (isci.calculus, isci.serialize):
        monkeypatch.setattr(module, "Derivation", no_derivation)
        monkeypatch.setattr(module, "apply_rule", counting_apply_rule, raising=False)
    assert check_proof_output(capsys, doc) == (0, "VALID PROOF\n")
    rule_steps = [s for s in doc["proof"]["steps"] if s["rule"] not in ("axiom", "open")]
    assert len(applied) == len(rule_steps)


def swap_principals(doc, count):
    # the first `count` principals become the goal: L==1 then adds the wrong
    # equation, and no antecedent holds the goal for the other rules
    for step in [s for s in doc["proof"]["steps"] if "principal" in s][:count]:
        step["principal"] = doc["formula"]


def mark_first_leaf_open(doc):
    next(s for s in doc["proof"]["steps"] if s["rule"] == "axiom")["rule"] = "open"


def widened(text):
    antecedent, succedent = split_sequent(text)
    return ", ".join(["#"] + antecedent) + " |- " + succedent


def widen_root(doc):
    # every step still applies to the wider root, which is not the claim
    doc["proof"]["sequent"] = widened(doc["proof"]["sequent"])


def nested_nodes(doc):
    """The nodes of `doc`'s proof, rewritten in the nested form, in preorder."""
    doc["proof"] = nested_document(derivation_from_doc(doc["proof"]))
    return document_nodes(doc["proof"])


def widen_a_stored_sequent(doc):
    nodes = nested_nodes(doc)
    node = nodes[len(nodes) // 2]
    node["sequent"] = widened(node["sequent"])


def break_a_stored_sequent_below_a_rejected_step(doc):
    nodes = nested_nodes(doc)
    next(n for n in nodes if "principal" in n)["principal"] = doc["formula"]
    nodes[-1]["sequent"] = "p |- (("


# each edit and the exit codes it gives on the acceptance proofs
TAMPERINGS = {
    "none": (lambda doc: None, {0}),
    "swapped principal": (lambda doc: swap_principals(doc, 1), {1}),
    "two swapped principals": (lambda doc: swap_principals(doc, 2), {1}),
    "deleted step": (lambda doc: doc["proof"]["steps"].pop(), {1}),
    "appended step": (lambda doc: doc["proof"]["steps"].append({"rule": "axiom"}), {1}),
    # the leaf is still an axiom, whatever the step says
    "leaf marked open": (mark_first_leaf_open, {0}),
    "wrong root": (widen_root, {1}),
    "stored sequent edited": (widen_a_stored_sequent, {1}),
    "stored sequent malformed": (break_a_stored_sequent_below_a_rejected_step, {2}),
}


@pytest.fixture(scope="module")
def acceptance_proofs():
    return [verdict_doc(parse_formula(text), proof=written_proof(parse_formula(text))) for text in THEOREMS]


@pytest.mark.parametrize("tamper, codes", TAMPERINGS.values(), ids=TAMPERINGS.keys())
def test_check_proof_agrees_with_the_reference_reader(capsys, acceptance_proofs, tamper, codes):
    # the reference reads the document into a tree, then checks it node by node
    seen = set()
    for proof in acceptance_proofs:
        doc = json.loads(json.dumps(proof))
        tamper(doc)
        code = main(["check-proof", json.dumps(doc)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == reference_check_proof(doc), doc["formula"]
        seen.add(code)
    assert seen == codes
