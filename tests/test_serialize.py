import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    derivation_from_doc,
    dumps,
    loads,
    model_from_doc,
    proof_doc,
    verdict_doc,
)
from oracle_utils import formulas_pq
from test_acceptance import NON_THEOREMS, THEOREMS

p, q = Var("p"), Var("q")
CONGRUENCE = "(p == q) -> (r == s) -> ((p -> r) == (q -> s))"


def test_proof_document_round_trip():
    phi = parse_formula("(p == q) -> (p -> q)")
    verdict = prove(phi)
    doc = proof_doc(verdict.proof)
    restored = derivation_from_doc(loads(dumps(doc)))
    assert restored == verdict.proof
    assert check_proof(restored, sequent((), phi)).ok


def test_model_document_round_trip():
    phi = parse_formula("p -> q")
    bundle = countermodel(phi)
    model, designated = model_from_doc(loads(dumps(bundle.model_document())))
    assert designated == bundle.designated
    assert not forces(model, designated, phi)
    for w in model.worlds:
        assert value(model, p, w) == value(bundle.model, p, w)


# refutations from the benchmark's search workload, and one validated on the fallback base
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
        derivation_from_doc({"sequent": "|- p", "rule": "L??", "premises": []})
    with pytest.raises(DocumentError):
        derivation_from_doc({"sequent": "|- p", "rule": "axiom", "premises": [
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
    assert restored == verdict.proof


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
    return prove(parse_formula(CONGRUENCE)).proof


def test_documents_print_and_parse_each_distinct_formula_once(monkeypatch, congruence_proof):
    formulas = formulas_in(congruence_proof)
    texts = {isci.printer.format_formula(f) for f in formulas}
    assert congruence_proof.size() == 418 and len(texts) == len(formulas)

    printed = []
    fmt = isci.printer.format_formula

    def counting_format(f):
        printed.append(f)
        return fmt(f)

    monkeypatch.setattr(isci.printer, "format_formula", counting_format)
    monkeypatch.setattr(isci.serialize, "format_formula", counting_format)
    doc = proof_doc(congruence_proof)
    assert len(printed) <= len(formulas)
    monkeypatch.undo()
    nodes, stack = [], [doc]
    while stack:
        nodes.append(stack.pop())
        stack.extend(reversed(nodes[-1]["premises"]))
    assert [n["sequent"] for n in nodes] == [format_sequent(d.sequent) for d in congruence_proof.walk()]

    tokenized = []
    tokenize = isci.parser._tokenize

    def counting_tokenize(text):
        tokenized.append(text)
        return tokenize(text)

    monkeypatch.setattr(isci.parser, "_tokenize", counting_tokenize)
    assert derivation_from_doc(doc) == congruence_proof
    assert len(tokenized) <= len(texts)
    assert sum(map(len, tokenized)) <= sum(map(len, texts))


DEPTH2 = "p == q -> (p -> (p -> r)) == (p -> (q -> r))"


@pytest.fixture(scope="module")
def depth2_proof():
    return prove(parse_formula(DEPTH2)).proof


def depth2_document(proof):
    return verdict_doc(parse_formula(DEPTH2), proof=proof)


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
    assert derivation_from_doc(doc) == depth2_proof
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
