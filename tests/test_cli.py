import argparse
import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
import time
import types

import pytest

import isci.cli
import isci.prover
import isci.semantics
from isci.cli import main


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
            "8122283e71b12189379c31a2c3ef9577d657368ca9240a118b6bdc359b86998c",
        ),
        ("p == q -> q -> r", "06ac1ac27c095373062bae1ba1dc67997a27c41961a6655bd315228f07924eb9"),
    ],
)
def test_structured_documents_are_pinned(capsys, formula, digest):
    # a depth-2 congruence proof and a nine-world model, byte for byte
    _, out, _ = run(capsys, "decide", formula, "--format", "structured")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


# refutable goals whose closure exceeds VALIDATION_CAP
FALLBACK_GOALS = [
    "(# == p) == q -> # == (r == #)",
    "p == q -> (p -> (p -> r)) == (q -> (r -> r))",
]


def test_fallback_validation_is_noted_on_stderr(capsys):
    code, out, err = run(capsys, "decide", FALLBACK_GOALS[0], "--format", "structured")
    assert code == 1
    assert json.loads(out)["status"] == "refuted"
    assert err == (
        "REFUTED\nnote: the closure exceeds 4096 formulas, so the model was "
        "validated only on the subformulas of what it mentions\n"
    )
    code, _, err = run(capsys, "decide", "p -> q", "--format", "structured")
    assert (code, err) == (1, "REFUTED\n")


@pytest.mark.xfail(
    strict=True,
    reason="the fallback validation base misses true equations that check-model reads "
    "(ROADMAP item 1)",
)
def test_fallback_validated_models_pass_check_model(capsys):
    for formula in FALLBACK_GOALS:
        code, out, _ = run(capsys, "decide", formula, "--format", "structured")
        assert code == 1
        assert run(capsys, "check-model", out)[:2] == (0, "VALID MODEL\n")


def test_check_proof_rejects_tampering(capsys):
    _, out, _ = run(capsys, "decide", "p == p", "--format", "structured")
    doc = json.loads(out)
    doc["proof"]["premises"][0]["sequent"] = "q == q |- q == q"
    code, out2, _ = run(capsys, "check-proof", json.dumps(doc))
    assert code == 1
    assert "INVALID PROOF" in out2


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
        ("p == p", "check-proof", ("proof", "principal")),
        ("p == p", "check-proof", ("proof", "premises")),
        ("p == p", "check-proof", ("formula",)),
        ("p -> q", "check-model", ("model", "valuation", 0, 0)),
        ("p -> q", "check-model", ("formula",)),
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
            {"sequent": "p == q |- p", "rule": "L==3", "principal": "p == q", "op": "&"},
            "unknown connective '&'",
        ),
        ("check-model", {"worlds": ["a"]}, "malformed model document: 'order_pairs'"),
        ("check-model", {**ONE_WORLD, "designated_world": "b"}, "designated world is not a world"),
        ("check-model", {**ONE_WORLD, "valuation": [["p", "a"]]}, "malformed valuation row ['p', 'a']"),
        ("check-model", {**ONE_WORLD, "valuation": [["p", "b", 1]]}, "valuation row for unknown world 'b'"),
    ],
    ids=["unknown connective", "missing field", "designated", "short row", "unknown world"],
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


def test_check_model_stops_inside_the_closure(capsys, monkeypatch):
    # the clock passes the deadline after the budget's start, the parse
    # check and the closure's first check, so only a check inside the
    # closure's worklist stops it before the frame check
    reads = [0]

    def clock():
        reads[0] += 1
        return 0.0 if reads[0] <= 3 else float("inf")

    monkeypatch.setattr(isci.prover, "time", types.SimpleNamespace(monotonic=clock))
    doc = {"formula": LARGE_CLOSURE, "model": ONE_WORLD}
    started = time.monotonic()
    code, out, err = run(capsys, "check-model", json.dumps(doc), "--timeout", "0.2")
    assert (code, out) == (3, "")
    assert err == "resource limit: timeout 0.2s hit in check-model, at the closure\n"
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


def test_check_proof_rejects_l_imp_without_its_implication(capsys):
    doc = {
        "sequent": "|- p -> p",
        "rule": "L->",
        "principal": "p -> p",
        "premises": [
            {"sequent": "|- p", "rule": "open", "premises": []},
            {"sequent": "p |- p -> p", "rule": "axiom", "premises": []},
        ],
    }
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


def test_check_proof_rejects_a_swapped_antecedent_formula(capsys, monkeypatch):
    code, out, _ = run(capsys, "decide", "(p == q) -> ((p -> #) == (q -> #))", "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    nodes, stack = [], [doc["proof"]]
    while stack:
        nodes.append(stack.pop())
        stack.extend(reversed(nodes[-1]["premises"]))

    def split(node):
        left, _, succedent = node["sequent"].partition("|-")
        return [t.strip() for t in left.split(",") if t.strip()], succedent.strip()

    # the first node past the middle with an antecedent formula to swap for
    # another one that an earlier node already put into the reader's memo
    for index in range(len(nodes) // 2, len(nodes)):
        antecedent, succedent = split(nodes[index])
        earlier = {t for n in nodes[:index] for t in split(n)[0] + [split(n)[1]]}
        others = sorted(earlier - set(antecedent) - {succedent})
        if antecedent and others:
            break
    nodes[index]["sequent"] = ", ".join([others[0]] + antecedent[1:]) + " |- " + succedent
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out, _ = run(capsys, "check-proof", "-")
    assert code == 1
    assert out.startswith("INVALID PROOF")


def test_oracle_stops_at_the_deadline_decide_started(capsys, monkeypatch):
    # the clock passes the deadline as soon as decide returns, so the oracle
    # must stop at its closure instead of running about 12 s
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
    assert err == "resource limit: timeout 10.0s hit in the oracle, at the closure\n"


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
    # closure's check and the first frame's; the oracle would refute p
    # within that frame, so only a check inside the frame stops it
    calls = [None]

    def clock():
        if calls[0] is None:
            return 0.0
        calls[0] += 1
        return 0.0 if calls[0] <= 2 else float("inf")

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


def chain_document(depth):
    """The text of a valid proof document `depth` + 2 nodes deep: L==1 on
    v0, v1, ... in turn over `|- p -> p`, then R-> and an axiom leaf."""

    def node(antecedent, succedent, rule, **fields):
        text = (", ".join(antecedent) + " |- " if antecedent else "|- ") + succedent
        return json.dumps({"sequent": text, "rule": rule, **fields})[:-1] + ', "premises": ['

    opening, antecedent = [], []
    for i in range(depth):
        opening.append(node(antecedent, "p -> p", "L==1", principal=f"v{i}"))
        antecedent.append(f"v{i} == v{i}")
    opening.append(node(antecedent, "p -> p", "R->"))
    opening.append(node(antecedent + ["p"], "p", "axiom"))
    return "".join(opening) + "]}" * len(opening)


@contextlib.contextmanager
def recursion_limit(limit):
    """Run under `limit`: a fresh `isci` process has the interpreter's
    default, 1000, and an in-process `decide` leaves 100,000 or more."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
        assert sys.getrecursionlimit() == limit
    finally:
        sys.setrecursionlimit(saved)


def test_check_proof_reads_a_proof_2000_nodes_deep(capsys):
    with recursion_limit(1000):
        code, out, err = run(capsys, "check-proof", chain_document(2000))
    assert (code, out, err) == (0, "VALID PROOF\n", "")


def test_check_proof_rejects_nesting_beyond_the_reader(capsys):
    with recursion_limit(100_000):
        code, out, err = run(capsys, "check-proof", "[" * 100_000 + "]" * 100_000)
    assert (code, out) == (2, "")
    assert err.startswith("input error: document nested")


@pytest.mark.parametrize("field", ["premises", "principal"])
def test_check_proof_reports_a_deeply_nested_value_as_an_input_error(capsys, field):
    deep = "[" * 4000 + "]" * 4000
    text = '{"sequent": "|- p", "rule": "L==1", "%s": {"a": %s}}' % (field, deep)
    with recursion_limit(1000):
        code, out, err = run(capsys, "check-proof", text)
    assert (code, out, err) == (2, "", "input error: document nested too deeply\n")


@pytest.mark.parametrize("command", ["decide", "prove", "exsub"])
def test_a_formula_nested_past_the_recursion_limit_is_an_input_error(capsys, command):
    deep = "(" * 400 + "p" + ")" * 400
    with recursion_limit(1000):
        code, out, err = run(capsys, command, deep)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"input error: 1:\d+: formula nested too deeply\n", err)
