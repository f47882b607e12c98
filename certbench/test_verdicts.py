"""Tests of the benchmark's own verdict checks.

    python3 -m pytest -q certbench
"""

import copy
import json
import os

import corpus
import run
import verdicts
from spans import Tracer
from verdicts import model_errors, parse

PEIRCE = "((p -> q) -> p) -> p"

# w0 <= w1; p holds at w1 only, q nowhere: w0 does not force Peirce's law.
PEIRCE_MODEL = {
    "worlds": ["w0", "w1"],
    "order_pairs": [["w0", "w0"], ["w0", "w1"], ["w1", "w1"]],
    "valuation": [["p", "w0", 0], ["p", "w1", 1], ["q", "w0", 0], ["q", "w1", 0]],
    "designated_world": "w0",
}


def test_parse_follows_the_grammar():
    assert parse("p == q -> q -> p") == (
        "imp", ("id", ("var", "p"), ("var", "q")), ("imp", ("var", "q"), ("var", "p"))
    )
    assert parse("~p") == ("imp", ("var", "p"), ("bot",))
    assert parse("(# -> q == (r == p)) -> p") == parse("(# -> (q == (r == p))) -> p")


def test_truth_tables():
    assert verdicts.is_tautology(parse(PEIRCE))
    assert verdicts.is_tautology(parse("(p == q) -> (r == s) -> ((p -> r) == (q -> s))"))
    assert not verdicts.is_tautology(parse("(p -> q) -> (p == q)"))
    assert not verdicts.is_tautology(parse("p == q"))


def test_accepts_a_known_countermodel():
    assert model_errors(parse(PEIRCE), PEIRCE_MODEL) == []


def test_rejects_a_model_whose_designated_world_forces_the_formula():
    altered = copy.deepcopy(PEIRCE_MODEL)
    altered["valuation"][0] = ["p", "w0", 1]
    assert model_errors(parse(PEIRCE), altered) == ["the designated world forces the formula"]


def test_rejects_a_broken_order_and_a_non_monotone_variable():
    no_transitivity = copy.deepcopy(PEIRCE_MODEL)
    no_transitivity["worlds"].append("w2")
    no_transitivity["order_pairs"] += [["w1", "w2"], ["w2", "w2"]]
    assert "order is not transitive" in model_errors(parse(PEIRCE), no_transitivity)
    shrinking = copy.deepcopy(PEIRCE_MODEL)
    shrinking["valuation"] = [["p", "w0", 1], ["p", "w1", 0], ["q", "w0", 0], ["q", "w1", 0]]
    assert model_errors(parse(PEIRCE), shrinking) == ["variable p true at w0 but not above it"]


def test_equations_extend_from_their_rows():
    one_world = {
        "worlds": ["w0"],
        "order_pairs": [["w0", "w0"]],
        "valuation": [["p", "w0", 0], ["q", "w0", 0], ["p == q", "w0", 1]],
        "designated_world": "w0",
    }
    # a listed equation, a reflexive one and a composition are all true
    assert model_errors(parse("(p -> #) == (q -> #)"), one_world) == [
        "the designated world forces the formula"
    ]
    assert model_errors(parse("(p -> p) == (p -> p)"), one_world) == [
        "the designated world forces the formula"
    ]
    # an equation that is neither listed nor derivable is false
    assert model_errors(parse("p == r"), one_world) == []


def test_flags_a_proved_formula_that_is_not_a_tautology():
    op = corpus.Op("(p -> q) -> (p == q)")
    doc = {"status": "proved", "formula": op.formula, "proof": {}}
    assert run.independent_problems(op, 0, doc, "") == ["proved, but not a classical tautology"]


def test_flags_a_verdict_against_a_known_one():
    op = corpus.Op(PEIRCE, expect=corpus.PROVED)
    doc = {"status": "refuted", "formula": PEIRCE, "model": PEIRCE_MODEL}
    assert run.independent_problems(op, 1, doc, "") == ["refuted, but the formula is known to be proved"]


def test_oracle_line_is_read_from_either_stream():
    op = corpus.Op("p -> p", oracle=True)
    doc = {"status": "proved", "formula": "p -> p", "proof": {}}
    line = "oracle: agreement, no countermodel within 3 worlds\n"
    assert run.independent_problems(op, 0, doc, line) == []
    assert run.independent_problems(op, 0, doc, "") != []


def test_renaming_keeps_variable_order():
    rename = corpus.renaming(7)
    renamed = rename("p == q -> (r -> s) == (q -> p)")
    names = [tok for tok in verdicts._tokens(renamed) if tok.isalpha()]
    p, q, r, s = names[0], names[1], names[2], names[3]
    assert p < q < r < s
    assert renamed == f"{p} == {q} -> ({r} -> {s}) == ({q} -> {p})"


def test_corpora_are_made_from_the_seed():
    for make in corpus.WORKLOADS.values():
        assert make(3) == make(3)
        assert make(3) != make(4)
    assert len(corpus.sweep(0).ops) == 714


def test_results_carry_exactly_the_metrics_of_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    passed, failed = run.Outcome(0.5), run.Outcome(2.0)
    passed.check_s, passed.cert_bytes = 0.1, 1234
    failed.failure = "decide exited 3"
    e2e = run.end_to_end([passed, passed, failed], 0.2, 3, 1.0)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == {
        (name, metric["unit"]) for name, metric in e2e.items()
    }
    layers = run.per_layer([vars(Tracer())], [passed], [passed], 1.0)
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == {
        (name, metric["unit"]) for name, metric in layers.items()
    }
