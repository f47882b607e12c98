"""Command line interface.

Commands: decide, prove, check-proof, check-model, exsub.  Each accepts
only the options it reads.  Exit codes: 0 proved/valid, 1 refuted/invalid,
2 input error, 3 resource caps hit, 4 internal validation failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import serialize
from .countermodel import CounterModelError, decide
from .formulas import complexity, extended_subformulas, sorted_formulas, variables
from .parser import ParseError, parse_formula
from .printer import (
    format_derivation,
    format_derivation_dot,
    format_derivation_latex,
    format_formula,
    format_model,
)
from .prover import Budget, CertificationError, Limits, ResourceExhausted, prove
from .semantics import bounded_countermodel_search, model_failures

EXIT_PROVED = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_RESOURCES = 3
EXIT_INTERNAL = 4


def _start(args, limits: Limits) -> tuple[str, Budget]:
    """The input, the argument itself or standard input for `-`, and the
    call's one budget, started once the input is read."""
    text = sys.stdin.read() if args.input == "-" else args.input
    return text, limits.start()


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
    if args.format == "structured":
        _emit(args, serialize.dumps(serialize.verdict_doc(phi, model=bundle.model_document())))
    elif args.format == "graph":
        _emit(args, bundle.to_dot())
    else:
        _emit(args, format_model(bundle.model_document()))
    return EXIT_REFUTED


def _cmd_decide(args) -> int:
    text, budget = _start(args, Limits(args.max_nodes, args.timeout))
    phi = parse_formula(text)
    verdict = decide(phi, budget)
    if verdict.proved:
        code = _report_proof(args, phi, verdict.proof)
    else:
        code = _report_model(args, phi, verdict.model)
    if args.oracle is not None:
        found = bounded_countermodel_search(phi, args.oracle, budget)  # the same budget
        disagreement = None
        if verdict.proved:
            line = f"agreement, no countermodel within {args.oracle} worlds"
            if found is not None:
                disagreement = f"countermodel at {found[1]} despite a proof"
        elif found is not None:
            line = f"agreement, countermodel found at {found[1]}"
        else:
            line = f"exhausted at {args.oracle} worlds (the refutation may need a larger frame)"
            worlds = len(verdict.model.model.worlds)
            if worlds <= args.oracle:  # the oracle has ruled out every countermodel this small
                disagreement = f"no countermodel within {args.oracle} worlds despite a {worlds}-world model"
        if disagreement:
            print(f"oracle: DISAGREEMENT, {disagreement}", file=sys.stderr)
            return EXIT_INTERNAL
        _verdict_line(args, f"oracle: {line}")
    return code


def _cmd_prove(args) -> int:
    text, budget = _start(args, Limits(args.max_nodes, args.timeout))
    phi = parse_formula(text)
    verdict = prove(phi, budget)
    if verdict.proved:
        return _report_proof(args, phi, verdict.proof)
    print("NOT PROVED")
    return EXIT_REFUTED


def _reads_a_document(command):
    """`loads` accepts deeper nesting than the interpreter's recursion limit
    lets Python print or compare, so a document value that recurses past
    it (a premise list nested 4,000 levels deep, say) is an input error."""

    @functools.wraps(command)
    def run(args) -> int:
        try:
            return command(args)
        except RecursionError as exc:
            raise serialize.DocumentError("document nested too deeply") from exc

    return run


@_reads_a_document
def _cmd_check_proof(args) -> int:
    text, budget = _start(args, Limits(timeout=args.timeout))
    doc = serialize.loads(text)
    budget.check("check-proof", "the parse")
    result = serialize.check_proof_doc(doc, budget)
    if result.ok:
        print("VALID PROOF")
        return EXIT_PROVED
    print(f"INVALID PROOF: {result.error}")
    return EXIT_REFUTED


@_reads_a_document
def _cmd_check_model(args) -> int:
    text, budget = _start(args, Limits(timeout=args.timeout))
    doc = serialize.loads(text)
    budget.check("check-model", "the parse")
    model, designated = serialize.model_from_doc(doc.get("model", doc))
    # the term graph: the valuation's formulas, the formula and their subformulas
    phi = serialize.formula_from_doc(doc["formula"]) if "formula" in doc else None
    base = () if phi is None else (phi,)
    failures = list(model_failures(model, base, phi, designated, budget, "check-model"))
    if failures:
        print("INVALID MODEL: " + "; ".join(failures))
        return EXIT_REFUTED
    print("VALID MODEL")
    return EXIT_PROVED


def _cmd_exsub(args) -> int:
    text, budget = _start(args, Limits(timeout=args.timeout))
    phi = parse_formula(text)
    members = sorted_formulas(extended_subformulas(phi, budget, "exsub"))
    members.sort(key=complexity)
    for f in members:
        print(f"c={complexity(f)}  {format_formula(f)}")
    print(f"total: {len(members)} ({len(variables(phi))} variables, bound c={complexity(phi)})")
    return EXIT_PROVED


@functools.cache  # built once per process: `main` may be called many times
def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isci",
        description="Decision procedure for intuitionistic sentential logic "
        "with identity: prove a formula or refute it with a checked Kripke "
        "countermodel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, searches=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("input", help="the formula or document itself, or '-' for stdin")
        p.add_argument("--timeout", type=float, default=30.0)
        if searches:
            p.add_argument("--format", choices=["text", "structured", "graph", "latex"], default="text")
            p.add_argument("--max-nodes", type=int, default=1_000_000)
            p.add_argument("--quiet", action="store_true", help="verdict line only")
        return p

    p = command("decide", _cmd_decide, "prove or refute a formula", searches=True)
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
    command("prove", _cmd_prove, "proof search only, no countermodel", searches=True)
    command("check-proof", _cmd_check_proof, "validate a serialized proof")
    command("check-model", _cmd_check_model, "validate a serialized model")
    command("exsub", _cmd_exsub, "print the extended subformulas of a formula")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
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
