"""Kripke semantics: frames, assignments, forcing, model checks and a
bounded brute-force countermodel search.

An assignment is a finite table of authoritative rows over (formula,
world) pairs; outside the table, equations evaluate by extension: a
syntactically reflexive equation is true, an equation whose sides share
their outer connective takes the conjunction of its component equations,
and everything else (including unlisted variables) is false.  This makes
every finite table a total assignment on variables and equations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations

from .formulas import (
    Bottom,
    Formula,
    Id,
    Imp,
    Var,
    complexity,
    extended_subformulas,
    sort_key,
    sorted_formulas,
    subformulas,
    variables,
)
from .prover import ResourceExhausted


@dataclass(eq=False)
class KripkeModel:
    worlds: tuple[str, ...]
    order: frozenset[tuple[str, str]]
    valuation: dict[tuple[Formula, str], int]
    _succ: dict[str, tuple[str, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        self._succ = {
            w: tuple(v for v in self.worlds if (w, v) in self.order) for w in self.worlds
        }

    def successors(self, w: str) -> tuple[str, ...]:
        return self._succ[w]

    def copy(self) -> "KripkeModel":
        return KripkeModel(self.worlds, self.order, dict(self.valuation))


def value(model: KripkeModel, f: Formula, w: str) -> int:
    """Assignment value of a variable or equation at a world."""
    stored = model.valuation.get((f, w))
    if stored is not None:
        return stored
    if isinstance(f, Id):
        l, r = f.left, f.right
        if l == r:
            return 1
        if type(l) is type(r) and isinstance(l, (Imp, Id)):
            if value(model, Id(l.left, r.left), w) and value(model, Id(l.right, r.right), w):
                return 1
        return 0
    return 0


def check_frame(model: KripkeModel) -> bool:
    """Reflexive and transitive over the world set."""
    order = model.order
    for w in model.worlds:
        if (w, w) not in order:
            return False
    for a, b in order:
        for b2, c in order:
            if b2 == b and (a, c) not in order:
                return False
    return True


def forces(model: KripkeModel, w: str, f: Formula, _memo: dict | None = None) -> bool:
    """Forcing: variables and equations through the assignment, falsum
    never, implications by quantifying over ordered successors."""
    if _memo is None:
        _memo = {}
    key = (f, w)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    if isinstance(f, (Var, Id)):
        out = value(model, f, w) == 1
    elif isinstance(f, Bottom):
        out = False
    elif isinstance(f, Imp):
        out = all(
            not forces(model, v, f.left, _memo) or forces(model, v, f.right, _memo)
            for v in model.successors(w)
        )
    else:
        raise TypeError(f"not a formula: {f!r}")
    _memo[key] = out
    return out


def check_admissible(model: KripkeModel, base) -> bool:
    """Reflexivity of identity over the base material and closure of true
    equations under composition by either connective."""
    eqs = [e for e in sorted_formulas(base) if isinstance(e, Id)]
    material = sorted_formulas({s for e in eqs for s in (e.left, e.right)} | set(eqs))
    for chi in material:
        for w in model.worlds:
            if value(model, Id(chi, chi), w) != 1:
                return False
    # a composition is built only where both of its equations are true
    true_at = {e: frozenset(w for w in model.worlds if value(model, e, w)) for e in eqs}
    for e1 in eqs:
        if not true_at[e1]:
            continue
        for e2 in eqs:
            both = true_at[e1] & true_at[e2]
            if not both:
                continue
            for op in (Imp, Id):
                comp = Id(op(e1.left, e2.left), op(e1.right, e2.right))
                if not all(value(model, comp, w) for w in both):
                    return False
    return True


def check_monotonicity(model: KripkeModel, formulas) -> bool:
    memo: dict = {}
    for a, b in model.order:
        if a == b:
            continue
        for f in sorted_formulas(formulas):
            if forces(model, a, f, memo) and not forces(model, b, f, memo):
                return False
    return True


def check_identity_entails_implications(model: KripkeModel, base) -> bool:
    """Every true equation must force both of its implications."""
    memo: dict = {}
    for e in sorted_formulas(base):
        if not isinstance(e, Id):
            continue
        for w in model.worlds:
            if value(model, e, w) == 1:
                if not forces(model, w, Imp(e.left, e.right), memo):
                    return False
                if not forces(model, w, Imp(e.right, e.left), memo):
                    return False
    return True


def valid_in_model(model: KripkeModel, f: Formula) -> bool:
    memo: dict = {}
    return all(forces(model, w, f, memo) for w in model.worlds)


# --- bounded countermodel search -------------------------------------------


@lru_cache(maxsize=None)
def _preorders(k: int) -> tuple[frozenset[tuple[int, int]], ...]:
    """Reflexive-transitive relations on 0..k-1, one representative per
    isomorphism class, ordered by their pair-set bitmaps."""
    pairs = [(i, j) for i in range(k) for j in range(k)]

    def bitmap(rel: frozenset) -> tuple[int, ...]:
        return tuple(1 if p in rel else 0 for p in pairs)

    off_diag = [p for p in pairs if p[0] != p[1]]
    diag = frozenset((i, i) for i in range(k))
    found: list[frozenset] = []
    for mask in range(2 ** len(off_diag)):
        rel = set(diag)
        for i, p in enumerate(off_diag):
            if mask >> (len(off_diag) - 1 - i) & 1:
                rel.add(p)
        ok = all((a, c) in rel for a, b in rel for b2, c in rel if b2 == b)
        if ok:
            found.append(frozenset(rel))
    found.sort(key=bitmap)
    reps: list[frozenset] = []
    seen: set[frozenset] = set()
    for rel in found:
        if rel in seen:
            continue
        reps.append(rel)
        for perm in permutations(range(k)):
            seen.add(frozenset((perm[a], perm[b]) for a, b in rel))
    return tuple(reps)


@lru_cache(maxsize=None)
def _monotone_vectors(k: int, rel: frozenset) -> tuple[tuple[int, ...], ...]:
    out = []
    for mask in range(2**k):
        vec = tuple(mask >> (k - 1 - i) & 1 for i in range(k))
        if all(vec[a] <= vec[b] for a, b in rel if a != b):
            out.append(vec)
    return tuple(out)


def _floor(model: KripkeModel, e: Id, w: str) -> int:
    """Least admissible value of `e` at `w`: what the extension clauses
    would derive from the rows already in place."""
    l, r = e.left, e.right
    if l == r:
        return 1
    if type(l) is type(r) and isinstance(l, (Imp, Id)):
        if value(model, Id(l.left, r.left), w) and value(model, Id(l.right, r.right), w):
            return 1
    return 0


def bounded_countermodel_search(phi: Formula, max_worlds: int = 3, deadline: float | None = None):
    """Search for a model over at most `max_worlds` worlds and the base
    {variables of phi} + {equations in extended_subformulas(phi)} in which
    phi fails at some world; every returned candidate has already passed
    check_frame, check_admissible, check_monotonicity and
    check_identity_entails_implications, so a hit is sound by
    construction.  None means the bounded space was exhausted, which is
    not a validity proof; past `deadline` it raises ResourceExhausted,
    checked before each frame and each assignment vector tried.

    Enumeration: world counts ascending; frames by pair-set bitmap, one
    representative per isomorphism class; assignments blockwise, blocks in
    (complexity, canonical) order so composed equations follow their
    components.  Reflexive equations are pinned to 1.  Only blocks the
    goal's forcing can see (its variables and its subformula equations)
    range over all monotone vectors; once they are set the refutation test
    runs, and each remaining equation is pinned to the least value
    admissibility allows.  Vectors that break a floor or make a true
    equation fail to force its implications are pruned.
    """
    base_vars = sorted(variables(phi), key=sort_key)
    eqs = [f for f in sorted_formulas(extended_subformulas(phi)) if isinstance(f, Id)]
    reflexive = [e for e in eqs if e.left == e.right]
    nonreflexive = sorted(
        (e for e in eqs if e.left != e.right), key=lambda e: (complexity(e), sort_key(e))
    )
    sub = subformulas(phi)
    blocks: list[tuple[Formula, bool]] = [(v, True) for v in base_vars] + [
        (e, e in sub) for e in nonreflexive
    ]
    boundary = max((i for i, (_, rel) in enumerate(blocks) if rel), default=-1)
    base = list(base_vars) + eqs
    for k in range(1, max_worlds + 1):
        worlds = tuple(f"w{i}" for i in range(k))
        for rel in _preorders(k):
            _check_deadline(deadline, k)
            order = frozenset((worlds[a], worlds[b]) for a, b in rel)
            rows: dict[tuple[Formula, str], int] = {}
            for e in reflexive:
                for w in worlds:
                    rows[(e, w)] = 1
            model = KripkeModel(worlds, order, rows)
            vectors = _monotone_vectors(k, rel)
            found = _search_blocks(model, phi, base, blocks, boundary, 0, vectors, deadline)
            if found is not None:
                return found
    return None


def _check_deadline(deadline: float | None, k: int) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise ResourceExhausted(f"timeout hit in the oracle, at frames of {k} worlds")


def _refutes(model, phi):
    memo: dict = {}
    return next((w for w in model.worlds if not forces(model, w, phi, memo)), None)


def _eq_vector_ok(model, f, vec) -> bool:
    for i, w in enumerate(model.worlds):
        if vec[i] < _floor(model, f, w):
            return False
        if vec[i] == 1 and not (
            forces(model, w, Imp(f.left, f.right)) and forces(model, w, Imp(f.right, f.left))
        ):
            return False
    return True


def _search_blocks(model, phi, base, blocks, boundary, idx, vectors, deadline):
    if idx == boundary + 1 and _refutes(model, phi) is None:
        return None
    if idx == len(blocks):
        bad = _refutes(model, phi)
        if bad is None:
            return None
        if (
            check_frame(model)
            and check_admissible(model, base)
            and check_monotonicity(model, base)
            and check_identity_entails_implications(model, base)
        ):
            return model.copy(), bad
        return None
    f, enumerated = blocks[idx]
    if not enumerated:
        # invisible to the goal's forcing: pin to the least admissible value
        vec = tuple(_floor(model, f, w) for w in model.worlds)
        for i, w in enumerate(model.worlds):
            model.valuation[(f, w)] = vec[i]
        found = None
        if _eq_vector_ok(model, f, vec):
            found = _search_blocks(model, phi, base, blocks, boundary, idx + 1, vectors, deadline)
        if found is None:
            for w in model.worlds:
                del model.valuation[(f, w)]
        return found
    is_eq = isinstance(f, Id)
    for vec in vectors:
        _check_deadline(deadline, len(model.worlds))
        for i, w in enumerate(model.worlds):
            model.valuation[(f, w)] = vec[i]
        if not is_eq or _eq_vector_ok(model, f, vec):
            found = _search_blocks(model, phi, base, blocks, boundary, idx + 1, vectors, deadline)
            if found is not None:
                return found
    for w in model.worlds:
        del model.valuation[(f, w)]
    return None
