#!/usr/bin/env python3
"""Digests of what isci prints, one per corpus and kind of output.

A change that should leave the outputs alone leaves every digest alone;
a change that alters some on purpose updates `scripts/digests.txt` and says
why.  Two corpora are digested:

* the c≤3 set, every formula of complexity at most 3 over p, q, r and #
  (`certbench/corpus.py` `formulas_up_to`), decided in-process: its proof
  documents, text derivations and model documents, and each formula's
  node count;
* the benchmark's operations at seed 1 (`certbench/corpus.py` `WORKLOADS`),
  each run through `isci decide` in the four `--format`s with the
  benchmark's options, plus `check-proof` or `check-model` on each
  structured document: the exit code, stdout and stderr of every command,
  one digest per workload and verdict.

Each line is `name  count  sha256`.  The digests are taken with
`PYTHONHASHSEED=0`; the script re-runs itself with it when it is unset.

    PYTHONPATH=src python3 scripts/digests.py
    PYTHONPATH=src python3 scripts/digests.py --check scripts/digests.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "certbench"))
import corpus  # noqa: E402

FORMATS = ("text", "structured", "graph", "latex")
VERDICTS = {0: "proved", 1: "refuted"}  # any other exit code is "failed"


class Digest:
    def __init__(self):
        self.sha, self.count = hashlib.sha256(), 0

    def add(self, *items) -> None:
        self.sha.update(json.dumps(items).encode() + b"\n")
        self.count += 1


def c3_digests() -> dict[str, Digest]:
    from isci import serialize
    from isci.countermodel import decide
    from isci.parser import parse_formula
    from isci.printer import format_derivation

    names = ("proof_documents", "text_derivations", "model_documents", "nodes")
    out = {name: Digest() for name in names}
    for text in corpus.formulas_up_to(["p", "q", "r", "#"], 3):
        verdict = decide(parse_formula(text))
        out["nodes"].add(text, verdict.stats.nodes)
        if verdict.proved:
            out["proof_documents"].add(text, serialize.dumps(serialize.proof_doc(verdict.proof)))
            out["text_derivations"].add(text, format_derivation(verdict.proof))
        else:
            out["model_documents"].add(text, serialize.dumps(verdict.model.model_document()))
    return {f"c3.{name}": digest for name, digest in out.items()}


def call(main, argv: list[str], stdin_text: str | None = None) -> tuple[int, str, str]:
    """Run one `isci` command in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def cli_digests(seed: int = 1) -> dict[str, Digest]:
    from isci.cli import main

    out: dict[str, Digest] = {}
    for name, generate in corpus.WORKLOADS.items():
        workload = generate(seed)
        for verdict in (*VERDICTS.values(), "failed"):
            out[f"cli.{name}.{verdict}"] = Digest()
        for op in workload.ops:
            results = []
            for fmt in FORMATS:
                argv = ["decide", op.formula, "--format", fmt, "--timeout", repr(workload.timeout),
                        "--max-nodes", str(workload.max_nodes)] + ["--oracle"] * op.oracle
                code, stdout, stderr = call(main, argv)
                results.append((argv, code, stdout, stderr))
                if fmt == "structured" and code in VERDICTS:
                    check = ["check-proof" if code == 0 else "check-model", "-"]
                    results.append((check, *call(main, check, stdout)))
            verdict = VERDICTS.get(results[0][1], "failed")
            for result in results:
                out[f"cli.{name}.{verdict}"].add(*result)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", metavar="FILE", help="compare with the digests in FILE; exit 1 if any differs")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    digests = {**c3_digests(), **cli_digests()}
    lines = [f"{name}  {d.count}  {d.sha.hexdigest()}" for name, d in digests.items()]
    print("\n".join(lines))
    if args.check is None:
        return 0
    with open(args.check) as f:
        expected = f.read().splitlines()
    if lines == expected:
        print(f"the digests match {args.check}")
        return 0
    for line in sorted(set(expected) ^ set(lines)):
        print(("expected  " if line in expected else "now       ") + line, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
