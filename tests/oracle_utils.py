"""Shared helpers: brute-force oracles and formula generators.

`naive_extended_subformulas` recomputes the extended-subformula closure by
scanning a complete universe of candidate formulas and justifying each one
directly against the defining clauses; it shares nothing with the
production worklist, so the two can cross-check each other.
`ref_bounded_countermodel_search` is the block search of the brute-force
oracle with one fresh evaluator per assignment vector.
"""

from __future__ import annotations

from isci.calculus import L_IMP, R_IMP, Derivation, RuleInstance, Sequent, is_axiom
from isci.formulas import (
    BOT,
    Formula,
    Id,
    Imp,
    Var,
    complexity,
    extended_subformulas,
    sort_key,
    subformulas,
    variables,
)
from isci.prover import Saturator
from isci.semantics import Evaluator, KripkeModel, _preorders, _refutes, model_failures

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


# --- reference semantics ----------------------------------------------------
# The per-world recursive evaluation and the pair scans that `isci.semantics`
# and `isci.countermodel` replaced with truth-set bitmasks and constructive
# equation sets; the differential tests compare the two.


def ref_successors(model, w: str) -> list[str]:
    return [v for v in model.worlds if (w, v) in model.order]


def ref_value(model, f: Formula, w: str) -> int:
    stored = model.valuation.get((f, w))
    if stored is not None:
        return stored
    if isinstance(f, Id):
        l, r = f.left, f.right
        if l == r:
            return 1
        if type(l) is type(r) and isinstance(l, (Imp, Id)):
            if ref_value(model, Id(l.left, r.left), w) and ref_value(model, Id(l.right, r.right), w):
                return 1
        return 0
    return 0


def ref_forces(model, w: str, f: Formula) -> bool:
    if isinstance(f, (Var, Id)):
        return ref_value(model, f, w) == 1
    if isinstance(f, Imp):
        return all(
            not ref_forces(model, v, f.left) or ref_forces(model, v, f.right)
            for v in ref_successors(model, w)
        )
    return False


def ref_check_frame(model) -> bool:
    order = model.order
    for w in model.worlds:
        if (w, w) not in order:
            return False
    for a, b in order:
        for b2, c in order:
            if b2 == b and (a, c) not in order:
                return False
    return True


def ref_check_admissible(model, base) -> bool:
    eqs = [e for e in sorted(base, key=sort_key) if isinstance(e, Id)]
    material = {s for e in eqs for s in (e.left, e.right)} | set(eqs)
    for chi in sorted(material, key=sort_key):
        for w in model.worlds:
            if ref_value(model, Id(chi, chi), w) != 1:
                return False
    true_at = {e: frozenset(w for w in model.worlds if ref_value(model, e, w)) for e in eqs}
    for e1 in eqs:
        if not true_at[e1]:
            continue
        for e2 in eqs:
            both = true_at[e1] & true_at[e2]
            if not both:
                continue
            for op in (Imp, Id):
                comp = Id(op(e1.left, e2.left), op(e1.right, e2.right))
                if not all(ref_value(model, comp, w) for w in both):
                    return False
    return True


def ref_check_monotonicity(model, formulas) -> bool:
    for a, b in model.order:
        if a == b:
            continue
        for f in sorted(formulas, key=sort_key):
            if ref_forces(model, a, f) and not ref_forces(model, b, f):
                return False
    return True


def ref_check_identity_entails_implications(model, base) -> bool:
    for e in sorted(base, key=sort_key):
        if not isinstance(e, Id):
            continue
        for w in model.worlds:
            if ref_value(model, e, w) == 1:
                if not ref_forces(model, w, Imp(e.left, e.right)):
                    return False
                if not ref_forces(model, w, Imp(e.right, e.left)):
                    return False
    return True


def ref_small_eqs(phi: Formula, material) -> list[Id]:
    """Every pair of distinct material formulas whose equation lies in the
    extended-subformula closure within complexity c(phi), canonically
    ordered."""
    from isci.formulas import in_extended_subformulas

    n = complexity(phi)
    msorted = sorted(material, key=sort_key)
    return [
        Id(a, b)
        for a in msorted
        for b in msorted
        if a != b and complexity(a) + complexity(b) + 1 <= n and in_extended_subformulas(Id(a, b), phi)
    ]


def ref_wide_eqs(n: int, material, model) -> set[Id]:
    """Every pair of material formulas whose equation may be true: listed
    true at some world, reflexive, or composed of pairs that may be."""
    listed = {
        (f.left, f.right) for (f, _w), v in model.valuation.items() if v and isinstance(f, Id)
    }

    def may_be_true(a: Formula, b: Formula) -> bool:
        if a is b or (a, b) in listed:
            return True
        return (
            type(a) is type(b)
            and isinstance(a, (Imp, Id))
            and may_be_true(a.left, b.left)
            and may_be_true(a.right, b.right)
        )

    return {
        Id(a, b)
        for a in material
        for b in material
        if complexity(a) + complexity(b) + 1 <= 2 * n + 1 and may_be_true(a, b)
    }


# --- reference countermodel builder -------------------------------------------
# The tree builder `isci.countermodel._Builder` walked before: it derives
# the whole tree above a sequent, closing every provable node with a proof
# the failed search finds for it, and reads the leftmost open branch off
# it.  The differential test compares its branches with the walked ones.


def ref_build(search, seq: Sequent) -> Derivation:
    """The whole derivation of `seq`, with the failed `_ProofSearch` as
    provability gate at every node; its node cap bounds the tree too."""
    return _ref_expand(search, seq, frozenset(), Saturator(search.goal))


def _ref_expand(search, seq: Sequent, history, sat) -> Derivation:
    search.tick()
    if is_axiom(seq):
        return Derivation(seq)
    proof = search.expand(seq, frozenset(), sat)
    if proof is not None:
        return proof
    hist = history | {seq.succedent}
    chain = []
    sat = sat.extend(seq)
    for conclusion, inst in sat.saturate():
        chain.append((conclusion, inst))
    if chain:
        hist = frozenset((seq.succedent,))
    result = _ref_tail(search, sat.sequent, hist, sat)
    for conclusion, inst in reversed(chain):
        result = Derivation(conclusion, inst, (result,))
    return result


def _ref_tail(search, seq: Sequent, hist, sat) -> Derivation:
    ante = seq.antecedent
    for f in search.implications(ante):
        if f.right in ante or f.left in hist:
            continue
        left = Sequent(ante, f.left)
        right = Sequent(search.grow(ante, f.right), seq.succedent)
        return Derivation(
            seq,
            RuleInstance(L_IMP, principal=f),
            (_ref_expand(search, left, hist, sat), _ref_expand(search, right, frozenset(), sat)),
        )
    if isinstance(seq.succedent, Imp):
        step = search.r_imp_premise(seq, hist)
        if step is not None:
            premise, history = step
            return Derivation(seq, RuleInstance(R_IMP), (_ref_expand(search, premise, history, sat),))
    return Derivation(seq)


def ref_leftmost_open_branch(d: Derivation) -> list[Derivation] | None:
    """Root-to-leaf path to the leftmost open leaf, left premises first;
    None when every leaf is an axiom."""
    path: list[Derivation] = []

    def walk(node: Derivation) -> bool:
        path.append(node)
        if node.rule is None:
            if not is_axiom(node.sequent):
                return True
        elif any(walk(child) for child in node.children):
            return True
        path.pop()
        return False

    return path if walk(d) else None


# --- reference oracle ---------------------------------------------------------
# The block search `isci.semantics.bounded_countermodel_search` ran before it
# built one evaluator per search node: a fresh evaluator for every block and
# every vector, and one recursion level per block, pinned blocks included.
# The differential test requires the same countermodel from both.


def ref_bounded_countermodel_search(phi: Formula, max_worlds: int = 3):
    base_vars = sorted(variables(phi), key=sort_key)
    eqs = [f for f in extended_subformulas(phi) if isinstance(f, Id)]
    reflexive = [e for e in eqs if e.left == e.right]
    nonreflexive = sorted(
        (e for e in eqs if e.left != e.right), key=lambda e: (complexity(e), sort_key(e))
    )
    sub = subformulas(phi)
    blocks = [(v, True) for v in base_vars] + [(e, e in sub) for e in nonreflexive]
    boundary = max((i for i, (_, rel) in enumerate(blocks) if rel), default=-1)
    base = list(base_vars) + eqs
    for k in range(1, max_worlds + 1):
        worlds = tuple(f"w{i}" for i in range(k))
        for rel in _preorders(k):
            order = frozenset((worlds[a], worlds[b]) for a, b in rel)
            rows = {(e, w): 1 for e in reflexive for w in worlds}
            model = KripkeModel(worlds, order, rows)
            vectors = []
            for mask in range(2**k):
                vec = tuple(mask >> (k - 1 - i) & 1 for i in range(k))
                if all(vec[a] <= vec[b] for a, b in rel if a != b):
                    vectors.append(vec)
            found = _ref_search_blocks(model, phi, base, blocks, boundary, 0, vectors)
            if found is not None:
                return found
    return None


def _ref_eq_vector_ok(model, f, vec) -> bool:
    ev = Evaluator(model)
    true = sum(v << i for i, v in enumerate(vec))
    if ev.floor(f) & ~true:
        return False
    if not true:
        return True
    implied = ev.forces(Imp(f.left, f.right)) & ev.forces(Imp(f.right, f.left))
    return not true & ~implied


def _ref_search_blocks(model, phi, base, blocks, boundary, idx, vectors):
    if idx == boundary + 1 and _refutes(Evaluator(model), phi) is None:
        return None
    if idx == len(blocks):
        ev = Evaluator(model)
        bad = _refutes(ev, phi)
        if bad is None:
            return None
        if next(model_failures(ev, base), None) is None:
            return model.copy(), bad
        return None
    f, enumerated = blocks[idx]
    if not enumerated:
        # invisible to the goal's forcing: pin to the least admissible value
        floor = Evaluator(model).floor(f)
        vec = tuple(floor >> i & 1 for i in range(len(model.worlds)))
        for i, w in enumerate(model.worlds):
            model.valuation[(f, w)] = vec[i]
        found = None
        if _ref_eq_vector_ok(model, f, vec):
            found = _ref_search_blocks(model, phi, base, blocks, boundary, idx + 1, vectors)
        if found is None:
            for w in model.worlds:
                del model.valuation[(f, w)]
        return found
    is_eq = isinstance(f, Id)
    for vec in vectors:
        for i, w in enumerate(model.worlds):
            model.valuation[(f, w)] = vec[i]
        if not is_eq or _ref_eq_vector_ok(model, f, vec):
            found = _ref_search_blocks(model, phi, base, blocks, boundary, idx + 1, vectors)
            if found is not None:
                return found
    for w in model.worlds:
        del model.valuation[(f, w)]
    return None
