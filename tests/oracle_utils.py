"""Shared helpers: brute-force oracles and formula generators.

`naive_extended_subformulas` recomputes the extended-subformula closure by
scanning a complete universe of candidate formulas and justifying each one
directly against the defining clauses; it shares nothing with the
production worklist, so the two can cross-check each other.
"""

from __future__ import annotations

from isci.formulas import (
    BOT,
    Formula,
    Id,
    Imp,
    Var,
    complexity,
    sort_key,
    subformulas,
    variables,
)

try:
    import hypothesis.strategies as st
except ImportError:  # pragma: no cover
    st = None


def all_formulas(atoms: list[Formula], max_complexity: int) -> list[Formula]:
    """Every formula over `atoms` of complexity at most `max_complexity`,
    grouped by complexity, canonically ordered within each group."""
    by_c: list[list[Formula]] = [sorted(atoms, key=sort_key)]
    for c in range(1, max_complexity + 1):
        layer = []
        for cl in range(c):
            cr = c - 1 - cl
            for left in by_c[cl]:
                for right in by_c[cr]:
                    layer.append(Imp(left, right))
                    layer.append(Id(left, right))
        by_c.append(sorted(layer, key=sort_key))
    return [f for layer in by_c for f in layer]


def naive_extended_subformulas(phi: Formula) -> frozenset[Formula]:
    n = complexity(phi)
    atoms: list[Formula] = sorted(variables(phi), key=sort_key)
    if BOT in subformulas(phi):
        atoms.append(BOT)
    universe = all_formulas(atoms, n)
    current: set[Formula] = set(subformulas(phi))

    def justified(psi: Formula) -> bool:
        if isinstance(psi, Id):
            if psi.left == psi.right and psi.left in current and complexity(psi) <= n:
                return True
            l, r = psi.left, psi.right
            if type(l) is type(r) and isinstance(l, (Imp, Id)) and complexity(psi) <= n:
                if Id(l.left, r.left) in current and Id(l.right, r.right) in current:
                    return True
            return False
        if isinstance(psi, Imp):
            return Id(psi.left, psi.right) in current or Id(psi.right, psi.left) in current
        return False

    changed = True
    while changed:
        changed = False
        for psi in universe:
            if psi not in current and justified(psi):
                current.add(psi)
                changed = True
    return frozenset(current)


if st is not None:
    atoms_pq = st.sampled_from([Var("p"), Var("q"), BOT])
    formulas_pq = st.recursive(
        atoms_pq,
        lambda kids: st.builds(Imp, kids, kids) | st.builds(Id, kids, kids),
        max_leaves=8,
    )
    small_formulas_pq = st.recursive(
        atoms_pq,
        lambda kids: st.builds(Imp, kids, kids) | st.builds(Id, kids, kids),
        max_leaves=4,
    )
    atoms_pqr = st.sampled_from([Var("p"), Var("q"), Var("r"), BOT])
    small_formulas_pqr = st.recursive(
        atoms_pqr,
        lambda kids: st.builds(Imp, kids, kids) | st.builds(Id, kids, kids),
        max_leaves=5,
    )
