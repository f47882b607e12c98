#!/usr/bin/env python3
"""Decide every formula over a small alphabet up to a complexity bound.

Each formula is decided once: refuted formulas get a validated
countermodel, proved ones are cross-checked against the brute-force model
search.  Any disagreement or validation failure aborts with a non-zero
exit code.

    python3 scripts/sweep.py --max-complexity 2 --atoms p,q --bottom
"""

import argparse
import sys
import time

from isci.countermodel import decide
from isci.formulas import BOT, Id, Imp, Var, sort_key
from isci.printer import format_formula
from isci.semantics import bounded_countermodel_search


def enumerate_formulas(atoms, max_complexity):
    by_c = [sorted(atoms, key=sort_key)]
    for c in range(1, max_complexity + 1):
        layer = []
        for cl in range(c):
            for left in by_c[cl]:
                for right in by_c[c - 1 - cl]:
                    layer.append(Imp(left, right))
                    layer.append(Id(left, right))
        by_c.append(sorted(layer, key=sort_key))
    return [f for layer in by_c for f in layer]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-complexity", type=int, default=2)
    parser.add_argument("--atoms", default="p,q", help="comma-separated variable names")
    parser.add_argument("--bottom", action="store_true", help="include falsum as an atom")
    parser.add_argument("--oracle-worlds", type=int, default=3)
    parser.add_argument("--verbose", action="store_true", help="one line per formula")
    args = parser.parse_args(argv)

    atoms = [Var(name.strip()) for name in args.atoms.split(",") if name.strip()]
    if args.bottom:
        atoms.append(BOT)
    formulas = enumerate_formulas(atoms, args.max_complexity)
    print(f"deciding {len(formulas)} formulas over "
          f"{', '.join(format_formula(a) for a in atoms)} up to complexity {args.max_complexity}")

    started = time.monotonic()
    proved = refuted = 0
    worlds_hist: dict[int, int] = {}
    for phi in formulas:
        verdict = decide(phi)
        if verdict.proved:
            proved += 1
            found = bounded_countermodel_search(phi, max_worlds=args.oracle_worlds)
            if found is not None:
                print(f"DISAGREEMENT: proved {format_formula(phi)} but the oracle "
                      f"refutes it at {found[1]}", file=sys.stderr)
                return 1
            if args.verbose:
                print(f"PROVED   {format_formula(phi)}  ({verdict.stats.nodes} nodes)")
        else:
            refuted += 1
            bundle = verdict.model
            worlds_hist[len(bundle.worlds)] = worlds_hist.get(len(bundle.worlds), 0) + 1
            if args.verbose:
                print(f"REFUTED  {format_formula(phi)}  ({len(bundle.worlds)} worlds)")
    elapsed = time.monotonic() - started
    print(f"proved {proved}, refuted {refuted}, {elapsed:.1f}s, no disagreements")
    sizes = ", ".join(f"{k} worlds: {v}" for k, v in sorted(worlds_hist.items()))
    print(f"countermodel sizes: {sizes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
