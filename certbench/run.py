#!/usr/bin/env python3
"""Benchmark of certified `isci decide`, end to end and per layer.

    python3 certbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: the program is imported from ``src/``
there and from nowhere else.  One operation decides one formula with
``isci decide --format structured`` and re-checks the printed certificate
with ``isci check-proof`` or ``isci check-model``; both calls go through
`isci.cli.main` in-process, one at a time (a closed loop with one
client).  Every verdict is then checked apart from the program, outside
the timed regions.

A run repeats whole rounds of the workload's operations for about
``--seconds`` seconds.  Each round runs in a fresh worker process, so the
program's caches and intern tables are cold at the start of every round.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced
run, whose spans go to ``.certbench/`` in the checkout.  README.md in this
directory explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".certbench")
SETUP_SAMPLES = 11
KERNEL_REF_S = 0.004  # the kernel's time at the reference speed
SAMPLE_EVERY_S = 0.5

sys.path.insert(0, HERE)
import corpus  # noqa: E402
import verdicts  # noqa: E402
from spans import Tracer  # noqa: E402


def import_program():
    """Import `isci` from this checkout's sources and nowhere else."""
    sys.path.insert(0, SRC)
    import isci.cli

    if not os.path.abspath(isci.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"isci was imported from {isci.cli.__file__}, not from {SRC}")
    return isci.cli


def _kernel() -> int:
    """Fixed pure-Python arithmetic that allocates nothing, so its time
    follows the core's speed and not the state of the heap."""
    acc = 0
    for i in range(40000):
        acc = (acc + i * i) % 1000003
    return acc


class Speed:
    """The speed of the core this run is on, sampled through the run.

    The cores are shared, and the speed at which they run the same Python
    code drifts by up to half for many seconds at a time.  While
    operations run, a timer signal every SAMPLE_EVERY_S seconds times a
    fixed kernel (best of three); `call` takes the sampling time back out
    of the operation it interrupted.  Times are reported at the reference
    speed: scaled by KERNEL_REF_S over the run's median kernel time."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent sampling

    def sample(self, *_signal) -> None:
        entered = time.perf_counter()
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - start)
        self.samples.append(best)
        self.spent += time.perf_counter() - entered

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


@dataclasses.dataclass
class Outcome:
    decide_s: float
    check_s: float = math.inf
    cert_bytes: float = math.inf
    proof_nodes: int = 0
    failure: str | None = None
    wrong: bool = False  # the verdict disagrees with a check made apart from the program


def call(cli, speed: Speed, argv: list[str], stdin_text: str | None = None):
    """Run one `isci` command in-process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            spent, start = speed.spent, time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - start - (speed.spent - spent)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue(), seconds


def count_proof_nodes(node: dict) -> int:
    total, stack = 0, [node]
    while stack:
        current = stack.pop()
        total += 1
        stack.extend(current.get("premises", ()))
    return total


def run_op(cli, speed: Speed, op: corpus.Op, workload: corpus.Workload, check_repeats: int) -> Outcome:
    argv = ["decide", op.formula, "--format", "structured",
            "--timeout", repr(workload.timeout), "--max-nodes", str(workload.max_nodes)]
    if op.oracle:
        argv.append("--oracle")
    code, out, err, seconds = call(cli, speed, argv)
    result = Outcome(seconds)
    if code not in (0, 1):
        result.failure = f"decide exited {code}: {err.strip()[:160]}"
        return result
    # `decide --oracle` prints its oracle line on stdout after the document,
    # so the document is the leading JSON value; the line is accepted on
    # either stream.
    try:
        doc, end = json.JSONDecoder().raw_decode(out)
    except ValueError as exc:
        result.failure = f"decide printed no JSON document: {exc}"
        return result
    text = out[:end] + "\n"
    result.cert_bytes = len(text.encode())
    command = "check-proof" if code == 0 else "check-model"
    times = []
    for _ in range(check_repeats):
        check_code, check_out, _check_err, seconds = call(cli, speed, [command, "-"], text)
        if check_code != 0:
            result.failure = f"{command} rejects the document: {check_out.strip()[:160]}"
            return result
        times.append(seconds)
    result.check_s = statistics.median(times)
    problems = independent_problems(op, code, doc, out[end:] + err)
    if "proof" in doc:
        result.proof_nodes = count_proof_nodes(doc["proof"])
    if problems:
        result.failure = "; ".join(problems)
        result.wrong = True
    return result


def independent_problems(op: corpus.Op, code: int, doc: dict, rest: str) -> list[str]:
    status = "proved" if code == 0 else "refuted"
    claimed = doc.get("status") if isinstance(doc, dict) else None
    if claimed != status:
        return [f"exit code says {status}, the document says {claimed!r}"]
    asked = verdicts.parse(op.formula)
    text = doc.get("formula")
    try:
        decided = verdicts.parse(text) if isinstance(text, str) else None
    except verdicts.FormulaSyntaxError:
        decided = None
    if decided != asked:
        return [f"the document decides {text!r}, not {op.formula!r}"]
    problems = []
    if op.expect is not None and op.expect != status:
        problems.append(f"{status}, but the formula is known to be {op.expect}")
    if status == "proved":
        if not verdicts.is_tautology(asked):
            problems.append("proved, but not a classical tautology")
    else:
        problems += verdicts.model_errors(asked, doc.get("model", {}))
    if op.oracle and "oracle: agreement" not in rest:
        problems.append(f"no oracle agreement: {rest.strip()[:160]!r}")
    return problems


def quantile_beyond(values: list[float], beyond: int, per_round: int) -> float | None:
    """Highest whole percentile of `values` with at least `beyond` values
    above it, fixed by the size of one round; None below 40 operations."""
    if per_round < 40:
        return None
    pct = math.floor(100 * (per_round - beyond) / per_round)
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(pct / 100 * len(ordered)) - 1)]


def run_round(args, workload: corpus.Workload) -> dict:
    """One round in this process, which runs nothing else."""
    cli = import_program()
    tracer = Tracer() if args.traced else None
    # repeated checks steady the check time; a traced round's layer figures
    # count each operation's work once
    check_repeats = 1 if args.traced else workload.check_repeats
    speed = Speed()
    outcomes = []
    if tracer is not None:
        tracer.install()
    try:
        with speed:
            for index, op in enumerate(workload.ops):
                if tracer is not None:
                    tracer.op = index
                outcomes.append(run_op(cli, speed, op, workload, check_repeats))
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"outcomes": [dataclasses.asdict(o) for o in outcomes], "samples": speed.samples}
    if tracer is not None:
        os.makedirs(SPANS_DIR, exist_ok=True)
        tracer.write(os.path.join(SPANS_DIR, f"spans-{args.workload}-{args.seed}-{args.round}.jsonl"))
        result["layers"] = {"self_time": tracer.self_time, "calls": tracer.calls, "counts": tracer.counts}
    return result


def worker(args, hash_seed: int, *flags: str) -> subprocess.CompletedProcess:
    """Run this script in a fresh interpreter.  The program iterates sets of
    formulas, whose order follows string hashes, so the hash seed is fixed
    per worker rather than drawn at random."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), *flags]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, env=env)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(flags)} worker exited {done.returncode}")
    return done


def measure_setup(args) -> float:
    """Median wall time of fresh interpreters that import isci and build
    the corpus, which is what precedes the first operation."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        worker(args, 0, "--setup-only")
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--round", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "isci", "cli.py")):
        raise SystemExit(f"no isci sources under {SRC}")
    workload = corpus.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        import_program()
        return 0
    if args.round is not None:
        print(json.dumps(run_round(args, workload)))
        return 0

    setup_s = measure_setup(args)
    rounds: list[tuple[bool, dict]] = []
    started = time.perf_counter()
    while True:
        # a traced run alternates traced and untraced rounds, a pair to a hash seed
        traced = args.trace == 1 and len(rounds) % 2 == 0
        hash_seed = len(rounds) // 2 if args.trace else len(rounds)
        flags = ["--round", str(len(rounds))] + (["--traced"] if traced else [])
        done = worker(args, hash_seed, *flags)
        rounds.append((traced, json.loads(done.stdout.splitlines()[-1])))
        elapsed = time.perf_counter() - started
        # stop at the round boundary nearest to the deadline
        if elapsed + elapsed / len(rounds) / 2 >= args.seconds and (args.trace == 0 or len(rounds) >= 2):
            break

    samples = [s for _, r in rounds for s in r["samples"]]
    scale = KERNEL_REF_S / statistics.median(samples)
    outcomes = {
        flag: [Outcome(**o) for traced, r in rounds if traced == flag for o in r["outcomes"]]
        for flag in (False, True)
    }
    every = outcomes[False] + outcomes[True]
    failures: dict[corpus.Op, list[str]] = {}
    for o, op in zip(every, workload.ops * len(rounds)):
        if o.failure:
            failures.setdefault(op, []).append(o.failure)
    for op, reasons in failures.items():
        fault = f" [known fault: {op.fault}]" if op.fault else ""
        print(f"FAILED {len(reasons)}x {op.formula}: {reasons[0]}{fault}")
    print(f"{args.workload}: seed {args.seed}, {len(rounds)} rounds of {len(workload.ops)} operations, "
          f"per call --timeout {workload.timeout:g} --max-nodes {workload.max_nodes}; "
          f"wall-clock times x {scale:.4f} "
          f"give reference-speed times")
    result = {
        "correct": not any(o.wrong for o in every),
        "attempted": len(every),
        "failed": sum(map(len, failures.values())),
    }
    if args.trace == 0:
        result["metrics"] = end_to_end(every, setup_s, len(workload.ops), scale)
    else:
        layers = [r["layers"] for traced, r in rounds if traced]
        result["metrics"] = per_layer(layers, outcomes[True], outcomes[False], scale)
    for name, metric in result["metrics"].items():
        print(f"  {name:28} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result, allow_nan=False))
    return 0


def end_to_end(outcomes: list[Outcome], setup_s: float, per_round: int, scale: float) -> dict:
    # a failed operation is slower and larger than any limit
    decide = [math.inf if o.failure else o.decide_s for o in outcomes]
    check = [math.inf if o.failure else o.check_s for o in outcomes]
    size = [math.inf if o.failure else o.cert_bytes for o in outcomes]
    decided = sum(1 for o in outcomes if not o.failure)
    wall = {
        "setup_s": setup_s,
        "decided_per_s": decided / sum(o.decide_s for o in outcomes),
        "decide_ms": statistics.median(decide) * 1e3,
        "check_ms": statistics.median(check) * 1e3,
    }
    tail = quantile_beyond(decide, 10, per_round)
    if tail is not None:
        wall["decide_tail_ms"] = tail * 1e3
        print(f"  decide_tail_ms (not gated)   {tail * scale * 1e3:.6g} ms")
    print("  wall clock (not gated): " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    return {
        "setup_s": {"value": setup_s * scale, "unit": "s"},
        "decided_per_s": {"value": wall["decided_per_s"] / scale, "unit": "1/s"},
        "decide_ms": {"value": wall["decide_ms"] * scale, "unit": "ms"},
        "check_ms": {"value": wall["check_ms"] * scale, "unit": "ms"},
        "cert_kb": {"value": statistics.median(size) / 1e3, "unit": "kB"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                        "unit": "MiB"},
    }


LAYER_TIMES = [
    ("prover.prove_s", "prover.prove"),
    ("prover.saturation_s", "prover.saturation"),
    ("countermodel.build_s", "countermodel.build"),
    ("countermodel.validate_s", "countermodel.validate"),
    ("semantics.check_s", "semantics.check"),
    ("semantics.oracle_s", "semantics.oracle"),
    ("formulas.exsub_s", "formulas.exsub"),
    ("calculus.check_proof_s", "calculus.check_proof"),
    ("invariants.restricted_s", "invariants.restricted"),
    ("serialize.dump_s", "serialize.dump"),
    ("serialize.load_s", "serialize.load"),
    ("parser.parse_s", "parser"),
    ("printer.format_s", "printer"),
    ("cli.self_s", "cli"),
]

LAYER_COUNTS = [
    "prover.nodes",
    "prover.backtracks",
    "countermodel.gate_nodes",
    "countermodel.worlds",
    "formulas.guided_ops",
]


def per_layer(layers: list[dict], traced: list[Outcome], untraced: list[Outcome], scale: float) -> dict:
    """Per-operation means over the traced rounds."""
    n = len(traced)

    def total(kind: str, key: str) -> float:
        return sum(layer[kind].get(key, 0) for layer in layers)

    metrics = {name: {"value": total("self_time", layer) * scale / n, "unit": "s"}
               for name, layer in LAYER_TIMES}
    for name in LAYER_COUNTS:
        metrics[name] = {"value": total("counts", name) / n, "unit": "count"}
    metrics["prover.saturation_calls"] = {"value": total("calls", "prover.saturation") / n, "unit": "count"}
    metrics["parser.calls"] = {"value": total("calls", "parser") / n, "unit": "count"}
    metrics["calculus.proof_nodes"] = {"value": sum(o.proof_nodes for o in traced) / n, "unit": "count"}
    sizes = [o.cert_bytes for o in traced if not o.failure]
    metrics["serialize.cert_bytes"] = {"value": sum(sizes) / max(1, len(sizes)), "unit": "bytes"}
    overhead = sum(o.decide_s for o in traced) / n - sum(o.decide_s for o in untraced) / len(untraced)
    metrics["tracing.overhead_ms"] = {"value": overhead * scale * 1e3, "unit": "ms"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
