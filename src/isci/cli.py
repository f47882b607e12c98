"""Command line interface.

Commands: decide, prove, countermodel, check-proof, check-model, exsub.
Exit codes: 0 proved/valid, 1 refuted/invalid, 2 input error, 3 resource
caps hit, 4 internal validation failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import serialize
from .calculus import Sequent, check_proof
from .countermodel import VALIDATION_CAP, CounterModelError, decide
from .formulas import complexity, extended_subformulas, sorted_formulas, variables
from .parser import ParseError, parse_formula
from .printer import (
    format_derivation,
    format_derivation_dot,
    format_derivation_latex,
    format_formula,
    format_model,
)
from .prover import CertificationError, Limits, ResourceExhausted, prove
from .semantics import (
    Evaluator,
    bounded_countermodel_search,
    check_admissible,
    check_frame,
    check_identity_entails_implications,
    check_monotonicity,
)

EXIT_PROVED = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_RESOURCES = 3
EXIT_INTERNAL = 4


def _read_input(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    if os.path.isfile(arg):
        with open(arg, encoding="utf-8") as handle:
            return handle.read()
    return arg


def _limits(args) -> Limits:
    return Limits(max_nodes=args.max_nodes, timeout=args.timeout)


def _stage_deadline(args, command: str):
    """`check(stage)` raises ResourceExhausted once `--timeout` has passed,
    naming the stage about to start; the checkers call it between stages."""
    deadline = time.monotonic() + args.timeout

    def check(stage: str) -> None:
        if time.monotonic() >= deadline:
            raise ResourceExhausted(f"timeout {args.timeout}s hit in {command}, at {stage}")

    return check


def _emit(args, text: str):
    if not args.quiet:
        sys.stdout.write(text)


def _verdict_line(args, text: str):
    # structured output must be a single document on stdout
    print(text, file=sys.stderr if args.format == "structured" else sys.stdout)


def _report_proof(args, phi, proof) -> int:
    _verdict_line(args, "PROVED")
    if args.format == "structured":
        _emit(args, serialize.dumps(serialize.verdict_doc(phi, proof=proof)))
    elif args.format == "latex":
        _emit(args, format_derivation_latex(proof))
    elif args.format == "graph":
        _emit(args, format_derivation_dot(proof))
    else:
        _emit(args, format_derivation(proof))
    return EXIT_PROVED


def _report_model(args, phi, bundle) -> int:
    _verdict_line(args, "REFUTED")
    if bundle.fallback_base:
        print(
            f"note: the closure exceeds {VALIDATION_CAP} formulas, so the model was "
            "validated only on the subformulas of what it mentions",
            file=sys.stderr,
        )
    if args.format == "structured":
        _emit(args, serialize.dumps(serialize.verdict_doc(phi, model=bundle.model_document())))
    elif args.format == "graph":
        _emit(args, bundle.to_dot())
    else:
        _emit(args, format_model(bundle.model_document()))
    return EXIT_REFUTED


def _cmd_decide(args) -> int:
    phi = parse_formula(_read_input(args.input))
    deadline = time.monotonic() + args.timeout  # the oracle shares decide's budget
    verdict = decide(phi, _limits(args))
    if verdict.proved:
        code = _report_proof(args, phi, verdict.proof)
    else:
        code = _report_model(args, phi, verdict.model)
    if args.oracle is not None:
        found = bounded_countermodel_search(phi, max_worlds=args.oracle, deadline=deadline)
        if verdict.proved and found is not None:
            print(
                f"oracle: DISAGREEMENT, countermodel at {found[1]} despite a proof",
                file=sys.stderr,
            )
            return EXIT_INTERNAL
        if verdict.proved:
            line = f"oracle: agreement, no countermodel within {args.oracle} worlds"
        elif found is not None:
            line = f"oracle: agreement, countermodel found at {found[1]}"
        else:
            line = (
                f"oracle: exhausted at {args.oracle} worlds "
                "(the refutation may need a larger frame)"
            )
        _verdict_line(args, line)
    return code


def _cmd_prove(args) -> int:
    phi = parse_formula(_read_input(args.input))
    verdict = prove(phi, _limits(args))
    if verdict.proved:
        return _report_proof(args, phi, verdict.proof)
    print("NOT PROVED")
    return EXIT_REFUTED


def _cmd_countermodel(args) -> int:
    phi = parse_formula(_read_input(args.input))
    verdict = decide(phi, _limits(args))
    if verdict.proved:
        print("PROVED (no countermodel exists)")
        return EXIT_PROVED
    return _report_model(args, phi, verdict.model)


def _cmd_check_proof(args) -> int:
    check_deadline = _stage_deadline(args, "check-proof")
    doc = serialize.loads(_read_input(args.input))
    check_deadline("the parse")
    proof_node = doc.get("proof", doc)
    derivation = serialize.derivation_from_doc(proof_node)
    if "formula" in doc:
        claim = Sequent(frozenset(), serialize.formula_from_doc(doc["formula"]))
    else:
        claim = derivation.sequent
    check_deadline("the proof check")
    result = check_proof(derivation, claim)
    if result.ok:
        print("VALID PROOF")
        return EXIT_PROVED
    print(f"INVALID PROOF: {result.error}")
    return EXIT_REFUTED


def _cmd_check_model(args) -> int:
    check_deadline = _stage_deadline(args, "check-model")
    doc = serialize.loads(_read_input(args.input))
    check_deadline("the parse")
    model_node = doc.get("model", doc)
    model, designated = serialize.model_from_doc(model_node)
    base = {f for (f, _w) in model.valuation}
    phi = None
    if "formula" in doc:
        phi = serialize.formula_from_doc(doc["formula"])
        check_deadline("the closure")
        base |= extended_subformulas(phi)
    check_deadline("the frame check")
    ev = Evaluator(model)  # every check reads its truth sets; none reads the base's order
    failures = []
    if not check_frame(ev):
        failures.append("order is not reflexive-transitive")
    else:
        check_deadline("the admissibility check")
        if not check_admissible(ev, base):
            failures.append("assignment not admissible")
        check_deadline("the monotonicity check")
        if not check_monotonicity(ev, base):
            failures.append("forcing not monotone")
        check_deadline("the identity-to-implication check")
        if not check_identity_entails_implications(ev, base):
            failures.append("a true equation fails to force its implications")
        if phi is not None:
            check_deadline("the forcing of the formula")
            if ev.forces(phi) & model.bit[designated]:
                failures.append("designated world forces the formula")
    if failures:
        print("INVALID MODEL: " + "; ".join(failures))
        return EXIT_REFUTED
    print("VALID MODEL")
    return EXIT_PROVED


def _cmd_exsub(args) -> int:
    phi = parse_formula(_read_input(args.input))
    members = sorted_formulas(extended_subformulas(phi))
    members.sort(key=complexity)
    for f in members:
        print(f"c={complexity(f)}  {format_formula(f)}")
    print(f"total: {len(members)} ({len(variables(phi))} variables, bound c={complexity(phi)})")
    return EXIT_PROVED


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isci",
        description="Decision procedure for intuitionistic sentential logic "
        "with identity: prove a formula or refute it with a checked Kripke "
        "countermodel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="formula (or document), '-' for stdin, or a file path")
        p.add_argument(
            "--format",
            choices=["text", "structured", "graph", "latex"],
            default="text",
        )
        p.add_argument("--max-nodes", type=int, default=1_000_000)
        p.add_argument("--timeout", type=float, default=30.0)
        p.add_argument("--quiet", action="store_true", help="verdict line only")

    p = sub.add_parser("decide", help="prove or refute a formula")
    common(p)
    p.add_argument(
        "--oracle",
        nargs="?",
        type=int,
        choices=range(1, 5),  # 5 worlds already mean 2^20 candidate orders
        const=3,
        default=None,
        metavar="K",
        help="cross-check against brute-force search over at most K worlds (1 to 4)",
    )
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("prove", help="proof search only, no countermodel")
    common(p)
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("countermodel", help="build a countermodel for an unprovable formula")
    common(p)
    p.set_defaults(func=_cmd_countermodel)

    p = sub.add_parser("check-proof", help="validate a serialized proof")
    common(p)
    p.set_defaults(func=_cmd_check_proof)

    p = sub.add_parser("check-model", help="validate a serialized model")
    common(p)
    p.set_defaults(func=_cmd_check_model)

    p = sub.add_parser("exsub", help="print the extended subformulas of a formula")
    common(p)
    p.set_defaults(func=_cmd_exsub)
    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, serialize.DocumentError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceExhausted as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCES
    except (CertificationError, CounterModelError, AssertionError) as exc:
        print(f"internal validation failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
