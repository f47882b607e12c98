import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import types

import pytest

import isci.calculus
import isci.cli
import isci.countermodel
import isci.printer
import isci.prover
import isci.semantics
from isci.cli import main
from isci.parser import parse_formula
from isci.serialize import dumps, loads, proof_doc
from oracle_utils import derivation_from_doc, reference_check_proof

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_proved(capsys):
    code, out, _ = run(capsys, "decide", "p == q -> (p -> q)")
    assert code == 0
    assert out.startswith("PROVED")
    assert "[axiom]" in out


def test_decide_refuted(capsys):
    code, out, _ = run(capsys, "decide", "((p -> q) -> p) -> p")
    assert code == 1
    assert out.startswith("REFUTED")
    assert "designated: w0" in out


def test_decide_syntax_error(capsys):
    code, _, err = run(capsys, "decide", "p == q ==")
    assert code == 2
    assert "associative" in err


def test_decide_resource_exhaustion(capsys):
    code, _, err = run(capsys, "decide", "((p -> q) -> p) -> p", "--max-nodes", "2")
    assert code == 3
    assert "resource" in err


def test_negation_sugar_on_cli(capsys):
    code, out, _ = run(capsys, "decide", "~p -> ~p", "--quiet")
    assert code == 0 and out == "PROVED\n"


def test_structured_output_is_one_json_document(capsys):
    code, out, err = run(capsys, "decide", "p == p", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "proved"
    assert doc["formula"] == "p == p"
    assert "PROVED" in err


def test_structured_proof_revalidates(capsys):
    _, out, _ = run(capsys, "decide", "(p == q) -> (q -> p)", "--format", "structured")
    code, out2, _ = run(capsys, "check-proof", out)
    assert code == 0
    assert "VALID PROOF" in out2


def test_structured_model_revalidates(capsys):
    code, out, _ = run(capsys, "decide", "((p -> #) -> #) -> p", "--format", "structured")
    assert code == 1
    code, out2, _ = run(capsys, "check-model", out)
    assert code == 0
    assert "VALID MODEL" in out2


@pytest.mark.parametrize(
    "formula, digest",
    [
        (
            "p == q -> (p -> (p -> r)) == (p -> (q -> r))",
            "4c74ee2cb114732f5da6d74ea15b192ba3324e3a252a1e063ca1005b357cbd02",
        ),
        ("p == q -> q -> r", "82c11aa34e2cda5f5ad6a8333a2dbf32095e9e5d614bffd281490a0d938ad236"),
    ],
)
def test_structured_documents_are_pinned(capsys, formula, digest):
    # a depth-2 congruence proof and a three-world model, byte for byte
    _, out, _ = run(capsys, "decide", formula, "--format", "structured")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "formula, steps",
    [("p == q -> (p -> (p -> r)) == (p -> (q -> r))", 6), ("(p -> q -> r) -> (p -> q) -> p -> r", 10)],
)
def test_prove_and_decide_print_the_same_proof(capsys, formula, steps):
    # both print the proof the one search writes and `relevant` prunes
    # (written, the two proofs have 144 and 36 steps)
    proved, decided = (run(capsys, command, formula, "--format", "structured") for command in ("prove", "decide"))
    assert proved == decided and proved[0] == 0
    assert len(json.loads(proved[1])["proof"]["steps"]) == steps


@pytest.mark.parametrize(
    "formula, command",
    [("p == q -> (p -> q)", "check-proof"), ("((p -> #) -> #) -> p", "check-model")],
)
def test_checkers_obey_the_timeout(capsys, formula, command):
    _, doc, _ = run(capsys, "decide", formula, "--format", "structured")
    assert run(capsys, command, doc)[0] == 0
    code, out, err = run(capsys, command, doc, "--timeout", "0")
    assert code == 3 and out == ""
    assert err.startswith(f"resource limit: timeout 0.0s hit in {command}, at the parse")


# refutable goals whose closure is too large to build: validation and
# check-model read the model's term graph instead
LARGE_CLOSURE_GOALS = [
    "(# == p) == q -> # == (r == #)",
    "p == q -> (p -> (p -> r)) == (q -> (r -> r))",
]

# goals whose models the floor reading (reflexivity and composition only)
# rejected: validation failed, or check-model rejected what validation
# accepted on a weaker base
CONGRUENCE_GOALS = [
    "r == (q -> q -> r) -> r == q",
    "(((s == s) -> s) == #) -> (q == r)",
    "((s == (# -> q)) == (r == r)) -> q",
    "((r -> r) == q) -> ((s == #) == q)",
    "p == q -> r -> r -> r -> p",
    "r == (q == #) -> # == (q == p)",
    # a world holds an equation true by symmetry that no identity rule adds
    "(p == q) == (q == p) -> p",
    "(p == q) == (r == p) -> r",
]


def test_fallback_validated_models_pass_check_model(capsys):
    for formula in LARGE_CLOSURE_GOALS:
        code, out, err = run(capsys, "decide", formula, "--format", "structured")
        assert (code, err) == (1, "REFUTED\n")
        assert run(capsys, "check-model", out, "--timeout", "1")[:2] == (0, "VALID MODEL\n")


@pytest.mark.parametrize("formula", CONGRUENCE_GOALS)
def test_congruence_models_are_refutations_check_model_accepts(capsys, formula):
    code, out, err = run(capsys, "decide", formula, "--format", "structured")
    assert (code, err) == (1, "REFUTED\n")
    assert json.loads(out)["status"] == "refuted"
    assert run(capsys, "check-model", out, "--timeout", "1")[:2] == (0, "VALID MODEL\n")


def test_check_proof_rejects_tampering(capsys):
    _, out, _ = run(capsys, "decide", "p == p", "--format", "structured")
    doc = json.loads(out)
    doc["proof"]["sequent"] = "q == q |- q == q"
    code, out2, _ = run(capsys, "check-proof", json.dumps(doc))
    assert code == 1
    assert out2 == "INVALID PROOF: root is q == q |- q == q, claim is |- p == p\n"


def test_check_proof_rejects_the_nested_form(capsys):
    # the form earlier versions wrote: a sequent and premises at every node
    doc = {
        "sequent": "|- p -> p",
        "rule": "R->",
        "premises": [{"sequent": "p |- p", "rule": "axiom", "premises": []}],
    }
    code, out, err = run(capsys, "check-proof", json.dumps(doc))
    assert (code, out) == (2, "")
    assert err.startswith("input error: proof has no steps list; the nested form")


def test_check_model_rejects_tampering(capsys):
    _, out, _ = run(capsys, "decide", "p -> q", "--format", "structured")
    doc = json.loads(out)
    doc["model"]["valuation"] = [["p == p", "w0", 0]]
    code, out2, _ = run(capsys, "check-model", json.dumps(doc))
    assert code == 1
    assert "INVALID MODEL" in out2


@pytest.mark.parametrize("bad", [5, None, {"a": 1}, ["p"]], ids=["int", "null", "object", "array"])
@pytest.mark.parametrize(
    "formula, command, field",
    [
        ("p == p", "check-proof", ("proof", "sequent")),
        ("p == p", "check-proof", ("proof", "steps", 0, "rule")),
        ("p == p", "check-proof", ("formula",)),
        ("p -> q", "check-model", ("model", "valuation", 0, 0)),
        ("p -> q", "check-model", ("formula",)),
        ("p == p", "check-proof", ("proof", "steps", 0, "principal")),
        ("p == p", "check-proof", ("proof", "steps")),
    ],
)
def test_malformed_document_field_is_an_input_error(capsys, formula, command, field, bad):
    _, out, _ = run(capsys, "decide", formula, "--format", "structured")
    doc = json.loads(out)
    *path, last = field
    node = doc
    for key in path:
        node = node[key]
    node[last] = bad
    code, _, err = run(capsys, command, json.dumps(doc))
    assert code == 2
    assert err.startswith("input error:")


def test_check_model_catches_designated_forcing(capsys):
    _, out, _ = run(capsys, "decide", "p -> q", "--format", "structured")
    doc = json.loads(out)
    doc["model"]["valuation"] = [["q", w, 1] for w in doc["model"]["worlds"]]
    code, out2, _ = run(capsys, "check-model", json.dumps(doc))
    assert code == 1
    assert "forces the formula" in out2


@pytest.mark.parametrize(
    "valuation",
    [
        # a composition listed 0 where both of its component equations are true
        [["p == q", "a", 1], ["r == s", "a", 1], ["(p -> r) == (q -> s)", "a", 0]],
        # a reflexive equation listed 0
        [["p == p", "a", 0]],
    ],
)
def test_check_model_rejects_an_inadmissible_row(capsys, valuation):
    doc = {"worlds": ["a"], "order_pairs": [["a", "a"]], "valuation": valuation, "designated_world": "a"}
    code, out, _ = run(capsys, "check-model", json.dumps(doc))
    assert code == 1
    assert out == "INVALID MODEL: assignment not admissible\n"


def test_check_model_rejects_an_order_that_is_not_a_preorder(capsys):
    doc = {"worlds": ["a", "b"], "order_pairs": [["a", "b"]], "valuation": [], "designated_world": "a"}
    code, out, _ = run(capsys, "check-model", json.dumps(doc))
    assert (code, out) == (1, "INVALID MODEL: order is not reflexive-transitive\n")


def test_check_model_rejects_a_forcing_that_is_not_monotone(capsys):
    doc = {
        "worlds": ["a", "b"],
        "order_pairs": [["a", "a"], ["a", "b"], ["b", "b"]],
        "valuation": [["p", "a", 1], ["p", "b", 0]],
        "designated_world": "a",
    }
    code, out, _ = run(capsys, "check-model", json.dumps(doc))
    assert (code, out) == (1, "INVALID MODEL: forcing not monotone\n")


ONE_WORLD = {"worlds": ["a"], "order_pairs": [["a", "a"]], "valuation": [], "designated_world": "a"}


@pytest.mark.parametrize(
    "command, doc, message",
    [
        (
            "check-proof",
            {"sequent": "p == q |- p", "steps": [{"rule": "L==3", "principal": "p == q", "op": "&"}]},
            "unknown connective '&'",
        ),
        ("check-model", {"worlds": ["a"]}, "malformed model document: 'order_pairs'"),
        ("check-model", {**ONE_WORLD, "designated_world": "b"}, "designated world is not a world"),
        ("check-model", {**ONE_WORLD, "valuation": [["p", "a"]]}, "malformed valuation row ['p', 'a']"),
        ("check-model", {**ONE_WORLD, "valuation": [["p", "b", 1]]}, "valuation row for unknown world 'b'"),
        ("check-proof", {"sequent": 5, "steps": [{"rule": "axiom"}]}, "sequent must be a string, got 5"),
        ("check-model", {**ONE_WORLD, "order_pairs": [["a"]]}, "malformed order pair ['a']"),
        ("check-model", {**ONE_WORLD, "worlds": "ab"}, "worlds must be a list of strings, got 'ab'"),
        ("check-model", {**ONE_WORLD, "valuation": [["p", "a", True]]}, "valuation value must be 0 or 1, got True"),
    ],
    ids=[
        "unknown connective",
        "missing field",
        "designated",
        "short row",
        "unknown world",
        "sequent not a string",
        "short order pair",
        "worlds a string",
        "boolean value",
    ],
)
def test_malformed_document_messages(capsys, command, doc, message):
    code, out, err = run(capsys, command, json.dumps(doc))
    assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_decide_graph_of_a_proof(capsys):
    code, out, _ = run(capsys, "decide", "p -> p", "--format", "graph")
    assert code == 0
    assert out == (
        "PROVED\n"
        "digraph derivation {\n"
        "  rankdir=BT;\n"
        '  node [shape=box, fontname="monospace"];\n'
        '  n0 [label="|- p -> p"];\n'
        '  n1 [label="p == p |- p -> p"];\n'
        '  n2 [label="p -> p, p == p |- p -> p"];\n'
        '  n2 -> n1 [label="L==2 p == p"];\n'
        '  n1 -> n0 [label="L==1 p"];\n'
        "}\n"
    )


# refutable; its closure holds 289,593 formulas and takes seconds to build
LARGE_CLOSURE = "(p == q) == ((r == p) == (# -> r)) -> q == r"


def test_check_model_builds_no_closure(capsys, monkeypatch):
    def no_closure(*args):
        raise AssertionError("the closure was built")

    monkeypatch.setattr(isci.cli, "extended_subformulas", no_closure)
    code, out, _ = run(capsys, "decide", LARGE_CLOSURE, "--format", "structured")
    assert code == 1
    started = time.monotonic()
    assert run(capsys, "check-model", out, "--timeout", "1") == (0, "VALID MODEL\n", "")
    assert time.monotonic() - started < 1.0


def test_exsub_obeys_the_timeout(capsys):
    code, out, err = run(capsys, "exsub", LARGE_CLOSURE, "--timeout", "0")
    assert (code, out) == (3, "")
    assert err == "resource limit: timeout 0.0s hit in exsub, at the closure\n"


@pytest.mark.parametrize("command", ["check-proof", "check-model", "exsub"])
@pytest.mark.parametrize("option", [["--max-nodes", "5"], ["--format", "text"], ["--quiet"]])
def test_commands_reject_options_they_do_not_read(capsys, command, option):
    with pytest.raises(SystemExit) as exc:
        main([command, "p", *option])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(option) in capsys.readouterr().err


def test_input_is_never_read_from_a_file(capsys, monkeypatch, tmp_path):
    (tmp_path / "p").write_text("q -> q", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "decide", "p", "--quiet")
    assert (code, out) == (1, "REFUTED\n")


def test_prove_command_stops_without_model(capsys):
    code, out, _ = run(capsys, "prove", "((p -> q) -> p) -> p")
    assert code == 1
    assert out == "NOT PROVED\n"


def test_prove_command_prints_the_proof(capsys):
    code, out, err = run(capsys, "prove", "p -> p")
    assert (code, err) == (0, "")
    assert out == (
        "PROVED\n"
        "|- p -> p   [L==1 p]\n"
        "  p == p |- p -> p   [L==2 p == p]\n"
        "    p -> p, p == p |- p -> p   [axiom]\n"
    )


def test_oracle_exhausted_below_the_refutation(capsys):
    code, out, err = run(capsys, "decide", "((p -> q) -> p) -> p", "--oracle", "1", "--quiet")
    assert (code, err) == (1, "")
    assert out == "REFUTED\noracle: exhausted at 1 worlds (the refutation may need a larger frame)\n"


def test_oracle_exhausted_above_the_refutation_is_a_disagreement(capsys, monkeypatch):
    # a broken decide refutes the theorem p == q -> q == p with the 2-world
    # model of p -> q; the oracle, which rules out every countermodel of up
    # to 3 worlds, contradicts it
    wrong = isci.cli.decide(parse_formula("p -> q"))
    monkeypatch.setattr(isci.cli, "decide", lambda phi, limits: wrong)
    code, out, err = run(capsys, "decide", "p == q -> q == p", "--oracle", "--quiet")
    assert (code, out) == (4, "REFUTED\n")
    assert err == "oracle: DISAGREEMENT, no countermodel within 3 worlds despite a 2-world model\n"


def test_check_proof_rejects_l_imp_without_its_implication(capsys):
    doc = {"sequent": "|- p -> p", "steps": [{"rule": "L->", "principal": "p -> p"}, {"rule": "open"}, {"rule": "axiom"}]}
    code, out, err = run(capsys, "check-proof", json.dumps(doc))
    assert (code, err) == (1, "")
    assert out == (
        "INVALID PROOF: L-> not applicable at |- p -> p: "
        "L-> needs its implication in the antecedent\n"
    )


def test_exsub_command(capsys):
    code, out, _ = run(capsys, "exsub", "p == q")
    assert code == 0
    assert "c=1  p == q" in out
    assert "total: 9" in out


def test_oracle_agreement_reported(capsys):
    code, out, _ = run(capsys, "decide", "p -> p", "--oracle", "--quiet")
    assert code == 0
    assert "oracle: agreement" in out
    code, out, _ = run(capsys, "decide", "p == q", "--oracle", "--quiet")
    assert code == 1
    assert "oracle: agreement" in out


def test_oracle_line_leaves_structured_stdout_one_document(capsys):
    code, out, err = run(capsys, "decide", "p -> p", "--format", "structured", "--oracle")
    assert code == 0
    assert json.loads(out)["status"] == "proved"
    assert "oracle: agreement" in err


@pytest.mark.parametrize("worlds", ["0", "5", "6"])
def test_oracle_bound_rejected_before_any_search(capsys, monkeypatch, worlds):
    def refuse(*args, **kwargs):
        raise AssertionError("searched despite an out-of-range --oracle")

    monkeypatch.setattr(isci.cli, "decide", refuse)
    monkeypatch.setattr(isci.cli, "bounded_countermodel_search", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["decide", "p == q -> (q == p)", "--oracle", worlds])
    assert exc.value.code == 2
    assert "--oracle" in capsys.readouterr().err


def test_certification_survives_optimized_python():
    # python -O strips asserts; a proof the checker rejects must still exit 4
    script = (
        "import sys, isci.prover\n"
        "from isci.calculus import ProofCheckResult\n"
        "isci.prover.check_proof = lambda proof, claim: ProofCheckResult(False, 'rejected')\n"
        "from isci.cli import main\n"
        "sys.exit(main(['decide', 'p -> p']))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 4
    assert "rejected" in proc.stderr


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("p -> p"))
    code, out, _ = run(capsys, "decide", "-", "--quiet")
    assert code == 0 and out == "PROVED\n"


def test_latex_and_graph_formats(capsys):
    _, out, _ = run(capsys, "decide", "p == p", "--format", "latex")
    assert "\\infer" in out and "\\equiv" in out
    _, out, _ = run(capsys, "decide", "p -> q", "--format", "graph")
    assert out.splitlines()[1] == "digraph countermodel {"


def test_output_is_byte_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "decide", "((p -> #) -> #) -> p", "--format", "structured")
        runs.append((code, out))
    assert runs[0] == runs[1]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "isci.cli", "decide", "p -> p", "--quiet"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "PROVED\n"


def test_check_proof_rejects_a_swapped_principal(capsys, monkeypatch):
    code, out, _ = run(capsys, "decide", "(p == q) -> ((p -> #) == (q -> #))", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    steps = doc["proof"]["steps"]
    nodes = list(derivation_from_doc(doc["proof"]).walk())
    # the first step past the middle with a principal to swap for another
    # formula that an earlier step already put into the reader's table and
    # that is not in the step's antecedent
    for index in range(len(steps) // 2, len(steps)):
        antecedent = set(map(isci.printer.format_formula, nodes[index].sequent.antecedent))
        earlier = {s["principal"] for s in steps[:index] if "principal" in s}
        others = sorted(earlier - antecedent)
        if "principal" in steps[index] and others:
            break
    steps[index]["principal"] = others[0]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out, _ = run(capsys, "check-proof", "-")
    assert code == 1
    assert out.startswith(f"INVALID PROOF: {steps[index]['rule']} not applicable at ")
    assert (code, out, "") == reference_check_proof(doc)


def test_oracle_stops_at_the_deadline_decide_started(capsys, monkeypatch):
    # the clock passes the deadline as soon as decide returns, so the oracle
    # must stop before its first frame instead of running on
    now = [0.0]
    monkeypatch.setattr(time, "monotonic", lambda: now[0])
    decide = isci.cli.decide

    def slow_decide(phi, limits):
        verdict = decide(phi, limits)
        now[0] += 11.0
        return verdict

    def no_assignments(*args):
        raise AssertionError("the oracle enumerated assignments past its deadline")

    monkeypatch.setattr(isci.cli, "decide", slow_decide)
    monkeypatch.setattr(isci.semantics, "_search_blocks", no_assignments)
    code, _, err = run(capsys, "decide", "p == q -> (q == p)", "--oracle", "4", "--timeout", "10", "--quiet")
    assert code == 3
    assert err == "resource limit: timeout 10.0s hit in the oracle, at frames of 1 worlds\n"


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = [0]
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    isci.cli.build_arg_parser.cache_clear()
    run(capsys, "decide", "p -> p", "--quiet")
    once = built[0]
    run(capsys, "decide", "p -> q", "--quiet")
    assert once > 0
    assert built[0] == once


def test_oracle_stops_inside_a_frame(capsys, monkeypatch):
    # once decide has returned, the clock passes the deadline after the
    # first frame's check; the oracle would refute p within that frame, so
    # only a check inside the frame stops it
    calls = [None]

    def clock():
        if calls[0] is None:
            return 0.0
        calls[0] += 1
        return 0.0 if calls[0] <= 1 else float("inf")

    decide = isci.cli.decide

    def decide_then_tick(phi, limits):
        verdict = decide(phi, limits)
        calls[0] = 0
        return verdict

    monkeypatch.setattr(isci.prover, "time", types.SimpleNamespace(monotonic=clock))
    monkeypatch.setattr(isci.cli, "decide", decide_then_tick)
    code, _, err = run(capsys, "decide", "p", "--oracle", "1", "--quiet")
    assert code == 3
    assert err == "resource limit: timeout 30.0s hit in the oracle, at frames of 1 worlds\n"


def test_the_oracle_counts_its_vectors_against_the_node_cap(capsys):
    # the proof search needs 36 nodes; the oracle enumerates 292 vectors
    # before it exhausts three worlds
    formula = "(p -> q -> r) -> (p -> q) -> p -> r"
    code, out, err = run(capsys, "decide", formula, "--oracle", "--max-nodes", "200", "--quiet")
    assert (code, out, err) == (3, "PROVED\n", "resource limit: node cap 200 hit in the oracle\n")


def compact_chain_document(depth):
    """The text of a valid proof document `depth` + 2 nodes deep: L==1 on
    v0, v1, ... in turn over `|- p -> p`, then R-> and an axiom leaf."""
    steps = [{"rule": "L==1", "principal": f"v{i}"} for i in range(depth)]
    return json.dumps({"sequent": "|- p -> p", "steps": steps + [{"rule": "R->"}, {"rule": "axiom"}]})


@contextlib.contextmanager
def recursion_limit(limit):
    """Run under `limit`: a fresh `isci` process has the interpreter's
    default, 1000, and the commands leave it as they find it."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
        assert sys.getrecursionlimit() == limit
    finally:
        sys.setrecursionlimit(saved)


def test_check_proof_reads_a_proof_2000_nodes_deep(capsys):
    with recursion_limit(1000):
        code, out, err = run(capsys, "check-proof", compact_chain_document(2000))
    assert (code, out, err) == (0, "VALID PROOF\n", "")


def test_a_proof_2000_nodes_deep_writes_and_checks(capsys):
    with recursion_limit(1000):
        text = dumps(proof_doc(derivation_from_doc(loads(compact_chain_document(2000)))))
        code, out, err = run(capsys, "check-proof", text)
    assert (code, out, err) == (0, "VALID PROOF\n", "")
    assert len(text.encode()) < 300_000


def test_the_compact_chain_is_what_the_writer_writes():
    assert loads(compact_chain_document(50)) == proof_doc(derivation_from_doc(loads(compact_chain_document(50))))


def test_check_proof_stops_at_the_deadline_inside_the_replay(capsys, monkeypatch):
    # the clock passes the deadline once the replay has applied its first
    # rule; 5,002 steps take the replay past its check at step 4,096
    applied = []
    apply_rule = isci.calculus.apply_rule

    def counting_apply_rule(seq, rule):
        applied.append(rule)
        return apply_rule(seq, rule)

    clock = types.SimpleNamespace(monotonic=lambda: float("inf") if applied else 0.0)
    monkeypatch.setattr(isci.prover, "time", clock)
    monkeypatch.setattr(isci.calculus, "apply_rule", counting_apply_rule)
    code, out, err = run(capsys, "check-proof", compact_chain_document(5000))
    assert (code, out) == (3, "")
    assert err == "resource limit: timeout 30.0s hit in check-proof, at the proof check\n"
    assert len(applied) == 4096


def test_check_proof_reads_the_compact_chain_in_bounded_memory():
    # `ru_maxrss` starts from the size of the process a child is forked
    # from, so a small interpreter launches the checking one
    launcher = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    script = (
        "import resource, sys\n"
        "from isci.cli import main\n"
        "code = main(['check-proof', '-'])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        "sys.exit(code)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", launcher, sys.executable, "-c", script],
        input=compact_chain_document(2000),
        capture_output=True,
        text=True,
        env=env,
    )
    verdict, max_rss_kib = proc.stdout.splitlines()
    assert (proc.returncode, verdict, proc.stderr) == (0, "VALID PROOF", "")
    assert int(max_rss_kib) < 40 * 1024


def test_check_proof_rejects_nesting_beyond_the_reader():
    # a fresh process at the default limit, which `loads` leaves alone
    proc = subprocess.run(
        [sys.executable, "-m", "isci.cli", "check-proof", "-"],
        input="[" * 100_000 + "]" * 100_000,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "input error: document nested too deeply\n")


def deepest_loadable(shape):
    """The largest depth of nested lists that `loads` reads within `shape`."""
    depth = 1
    while True:
        try:
            loads(shape("[" * (depth + 1) + "]" * (depth + 1)))
        except isci.serialize.DocumentError:
            return depth
        depth += 1


@pytest.mark.parametrize("field", ["principal", "op"])
def test_check_proof_reports_a_deeply_nested_value_as_an_input_error(capsys, field):
    # as deep as `loads` reads, a value is printed in the error message;
    # deeper, `loads` rejects it
    def shape(value):
        return '{"sequent": "|- p", "steps": [{"rule": "L==1", "%s": %s}]}' % (field, value)

    with recursion_limit(1000):
        deepest = deepest_loadable(shape)
        for depth in range(deepest - 20, deepest + 3):
            code, out, err = run(capsys, "check-proof", shape("[" * depth + "]" * depth))
            assert (code, out) == (2, ""), depth
            if depth > deepest:
                assert err == "input error: document nested too deeply\n"
            else:
                assert err.startswith("input error: ")


@pytest.mark.parametrize("command", ["decide", "prove", "exsub"])
def test_a_formula_nested_past_the_recursion_limit_is_an_input_error(capsys, command):
    deep = "(" * 400 + "p" + ")" * 400
    with recursion_limit(1000):
        code, out, err = run(capsys, command, deep)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"input error: 1:\d+: formula nested too deeply\n", err)


def test_decide_leaves_the_recursion_limit_as_it_found_it(capsys):
    # the search never changes the limit, so a deep formula is an input
    # error after a `decide` in the same process as before it
    deep = "(" * 400 + "p" + ")" * 400
    codes = []
    with recursion_limit(1000):
        for text in (deep, "p", deep):
            codes.append(run(capsys, "decide", text, "--quiet")[0])
            assert sys.getrecursionlimit() == 1000
    assert codes == [2, 1, 2]


def test_a_proof_with_600_negations_prints_under_the_default_limit(capsys):
    # the formatter builds a text from its parts' texts, parts first,
    # without recursion; its 600 nested parentheses are more than the
    # parser reads back under this limit, so the test reads no text back
    negated = "p -> #"
    for _ in range(599):
        negated = f"({negated}) -> #"
    with recursion_limit(1000):
        code, out, err = run(capsys, "decide", "q -> " + "~" * 600 + "p -> q")
    assert (code, err) == (0, "")
    assert out == (
        "PROVED\n"
        f"|- q -> ({negated}) -> q   [R->]\n"
        f"  q |- ({negated}) -> q   [R->]\n"
        f"    q, {negated} |- q   [axiom]\n"
    )


@pytest.mark.parametrize("formula, code, verdict", [("p == q -> (p -> q)", 0, "PROVED\n"), ("p -> q", 1, "REFUTED\n")])
@pytest.mark.parametrize("fmt", ["text", "structured", "graph", "latex"])
def test_quiet_renders_nothing(capsys, monkeypatch, formula, code, verdict, fmt):
    def no_render(*args, **kwargs):
        raise RuntimeError("rendered under --quiet")

    for name in ("format_derivation", "format_derivation_dot", "format_derivation_latex", "format_model"):
        monkeypatch.setattr(isci.cli, name, no_render)
    monkeypatch.setattr(isci.cli.serialize, "dumps", no_render)
    monkeypatch.setattr(isci.countermodel.CounterModelBundle, "to_dot", no_render)
    monkeypatch.setattr(isci.countermodel.CounterModelBundle, "model_document", no_render)
    expected = (code, "", verdict) if fmt == "structured" else (code, verdict, "")
    assert run(capsys, "decide", formula, "--format", fmt, "--quiet") == expected


# the deepest `->` or `~` chain `parse_formula` reads in a fresh process,
# less five levels for `main`'s own frames, decided under a node cap
DEEPEST_CHAIN_SCRIPT = (
    "import sys\n"
    "from isci.cli import main\n"
    "from isci.parser import ParseError, parse_formula\n"
    "def chain(n):\n"
    "    return ' -> '.join(['p'] * (n + 1)) if sys.argv[1] == '->' else '~' * n + 'p'\n"
    "def parses(n):\n"
    "    try:\n"
    "        parse_formula(chain(n))\n"
    "    except ParseError:\n"
    "        return False\n"
    "    return True\n"
    "n = next(n for n in range(1000, 0, -1) if parses(n)) - 5\n"
    "print(n)\n"
    "sys.exit(main(['decide', chain(n), '--quiet', '--max-nodes', '100']))\n"
)


@pytest.mark.parametrize("connective", ["->", "~"])
def test_the_deepest_chain_that_parses_runs_into_the_node_cap(connective):
    # the search walks formulas on explicit stacks, so a chain the parser
    # reads under the default limit meets the node cap, as it did when
    # `decide` raised the limit
    proc = subprocess.run([sys.executable, "-c", DEEPEST_CHAIN_SCRIPT, connective], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (3, "resource limit: node cap 100 hit in the proof search\n")
    assert int(proc.stdout) > 900


def test_the_oracle_recurses_once_per_enumerated_block():
    # the closure holds 1,833 equations, but the blocks are only the goal's
    # three variables and three subformula equations
    phi = parse_formula("(((p == (r == q)) -> r) -> (# == r))")
    with recursion_limit(1000):
        found = isci.semantics.bounded_countermodel_search(phi, 1)
    assert found is not None and found[1] == "w0"
