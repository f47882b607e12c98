"""Kripke semantics: frames, assignments, forcing, model checks and a
bounded brute-force countermodel search.

An assignment is a finite table of authoritative rows over (formula,
world) pairs; outside the table, equations evaluate by extension: a
syntactically reflexive equation is true, an equation whose sides share
their outer connective takes the conjunction of its component equations,
and everything else (including unlisted variables) is false.  This makes
every finite table a total assignment on variables and equations.

An `Evaluator` computes truth sets: for each formula, one int whose bits
are the worlds where it is true (`value`) or forced (`forces`), computed
once for the whole model and memoized.  It reads a formula's rows only
when that formula is first asked for, so it costs nothing to build; the
oracle builds one per node of its block search, since listing a block at
the value it has while unlisted changes no truth set.  Every check below
goes through it.  The oracle searches rooted partial orders only: any
other frame holds a countermodel only if a smaller frame does.
"""

from __future__ import annotations

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
    subformulas,
    variables,
)
from .prover import Budget, Limits, SearchStats


@dataclass(eq=False)
class KripkeModel:
    worlds: tuple[str, ...]
    order: frozenset[tuple[str, str]]
    valuation: dict[tuple[Formula, str], int]
    # world -> its bit in a truth set; a repeated world name shares one bit
    bit: dict[str, int] = field(init=False, repr=False)
    # (bit, up-set mask) per distinct world, in world order
    up: tuple[tuple[int, int], ...] = field(init=False, repr=False)
    full: int = field(init=False, repr=False)

    def __post_init__(self):
        bit: dict[str, int] = {}
        for w in self.worlds:
            bit.setdefault(w, 1 << len(bit))
        up = dict.fromkeys(bit, 0)
        for a, b in self.order:
            if a in bit and b in bit:
                up[a] |= bit[b]
        self.bit = bit
        self.up = tuple((bit[w], up[w]) for w in bit)
        self.full = (1 << len(bit)) - 1

    def copy(self) -> "KripkeModel":
        return KripkeModel(self.worlds, self.order, dict(self.valuation))


class Evaluator:
    """Truth sets of one model under its valuation as it stands: each
    formula maps to an int whose bit `model.bit[w]` is set at the worlds
    where it is true (`value`) or forced (`forces`), memoized per formula.
    Rows are read per formula, lazily, so building an evaluator costs
    O(1); whoever changes the valuation builds a fresh one."""

    __slots__ = ("model", "_value", "_forces")

    def __init__(self, model: KripkeModel):
        self.model = model
        self._value: dict[Formula, int] = {}
        self._forces: dict[Formula, int] = {}

    def floor(self, f: Formula) -> int:
        """The extension clauses alone: where `f` is true if no row lists
        it, which is the least value admissibility allows."""
        if isinstance(f, Id):
            l, r = f.left, f.right
            if l == r:
                return self.model.full
            if type(l) is type(r) and isinstance(l, (Imp, Id)):
                return self.value(Id(l.left, r.left)) & self.value(Id(l.right, r.right))
        return 0

    def value(self, f: Formula) -> int:
        """Assignment value of a variable or equation: its rows where the
        valuation lists it, the extension clauses elsewhere."""
        mask = self._value.get(f)
        if mask is None:
            mask = self.floor(f)
            rows = self.model.valuation
            for w, b in self.model.bit.items():
                v = rows.get((f, w))
                if v is not None:
                    mask = mask | b if v else mask & ~b
            self._value[f] = mask
        return mask

    def forces(self, f: Formula) -> int:
        """Forcing: variables and equations through the assignment, falsum
        nowhere, `A -> B` at the worlds whose up-set avoids A & ~B."""
        if isinstance(f, Imp):
            mask = self._forces.get(f)
            if mask is None:
                mask = self.avoiding(self.forces(f.left) & ~self.forces(f.right))
                self._forces[f] = mask
            return mask
        if isinstance(f, (Var, Id)):
            return self.value(f)
        if isinstance(f, Bottom):
            return 0
        raise TypeError(f"not a formula: {f!r}")

    def avoiding(self, bad: int) -> int:
        """The worlds none of whose successors lies in `bad`."""
        out = 0
        for b, up in self.model.up:
            if not up & bad:
                out |= b
        return out


def _evaluator(model: KripkeModel | Evaluator) -> Evaluator:
    return model if isinstance(model, Evaluator) else Evaluator(model)


def value(model: KripkeModel, f: Formula, w: str) -> int:
    """Assignment value of a variable or equation at a world."""
    return 1 if Evaluator(model).value(f) & model.bit[w] else 0


def forces(model: KripkeModel, w: str, f: Formula) -> bool:
    """Whether world `w` forces `f`."""
    return bool(Evaluator(model).forces(f) & model.bit[w])


def check_frame(model: KripkeModel | Evaluator) -> bool:
    """Reflexive and transitive over the world set."""
    up = _evaluator(model).model.up
    for b, mask in up:
        if not mask & b:
            return False
        if any(mask & b2 and up2 & ~mask for b2, up2 in up):
            return False
    return True


def check_admissible(model: KripkeModel | Evaluator, base) -> bool:
    """Reflexivity of identity over the base material and closure of true
    equations under composition by either connective.

    By the extension clauses an equation no row lists is true wherever it
    is reflexive, and a composition no row lists is true wherever both of
    its component equations are; so only rows listed 0 can break either
    law, and those are the rows checked."""
    ev = _evaluator(model)
    m = ev.model
    eqs = {(e.left, e.right): e for e in base if isinstance(e, Id)}
    material = {s for l, r in eqs for s in (l, r)} | set(eqs.values())
    for (f, w), v in m.valuation.items():
        if v or w not in m.bit or not isinstance(f, Id):
            continue
        l, r = f.left, f.right
        if l == r and l in material:
            return False
        if type(l) is type(r) and isinstance(l, (Imp, Id)):
            e1 = eqs.get((l.left, r.left))
            e2 = eqs.get((l.right, r.right))
            if e1 is not None and e2 is not None and ev.value(e1) & ev.value(e2) & m.bit[w]:
                return False
    return True


def check_monotonicity(model: KripkeModel | Evaluator, formulas) -> bool:
    ev = _evaluator(model)
    if all(not up & ~b for b, up in ev.model.up):
        return True  # no world sees another
    for f in formulas:
        mask = ev.forces(f)
        if mask & ~ev.avoiding(~mask):
            return False
    return True


def check_identity_entails_implications(model: KripkeModel | Evaluator, base) -> bool:
    """Every true equation must force both of its implications."""
    ev = _evaluator(model)
    for e in base:
        if not isinstance(e, Id) or e.left == e.right:
            continue  # x -> x is forced at every world of every model
        true = ev.value(e)
        if true and true & ~(ev.forces(Imp(e.left, e.right)) & ev.forces(Imp(e.right, e.left))):
            return False
    return True


def model_failures(model, base, goal=None, designated=None, budget=None, phase=None):
    """The failures of `model` (or its `Evaluator`) on the formulas `base`,
    in `isci check-model`'s order and words: the frame check, whose failure
    stops the rest, admissibility, monotonicity, identity-to-implication
    and, given a goal, whether the designated world forces it.  Under
    `budget`, each check first checks the deadline of `phase`."""
    ev = _evaluator(model)

    def stage(name: str) -> None:
        if budget is not None:
            budget.check(phase, name)

    stage("the frame check")
    if not check_frame(ev):
        yield "order is not reflexive-transitive"
        return
    stage("the admissibility check")
    if not check_admissible(ev, base):
        yield "assignment not admissible"
    stage("the monotonicity check")
    if not check_monotonicity(ev, base):
        yield "forcing not monotone"
    stage("the identity-to-implication check")
    if not check_identity_entails_implications(ev, base):
        yield "a true equation fails to force its implications"
    if goal is not None:
        stage("the forcing of the formula")
        if ev.forces(goal) & ev.model.bit[designated]:
            yield "designated world forces the formula"


def valid_in_model(model: KripkeModel, f: Formula) -> bool:
    return Evaluator(model).forces(f) == model.full


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
def _rooted_orders(k: int) -> tuple[frozenset[tuple[int, int]], ...]:
    """The antisymmetric members of `_preorders(k)` with a root, a world
    that sees every world, in its order: the frames the oracle searches."""
    return tuple(
        rel
        for rel in _preorders(k)
        if not any((b, a) in rel for a, b in rel if a != b)
        and any(all((r, j) in rel for j in range(k)) for r in range(k))
    )


@lru_cache(maxsize=None)
def _monotone_vectors(k: int, rel: frozenset) -> tuple[int, ...]:
    """The upward-closed truth sets over 0..k-1 (bit i for world i), in
    the order of their vectors read with world 0 as the high bit."""
    out = []
    for mask in range(2**k):
        vec = tuple(mask >> (k - 1 - i) & 1 for i in range(k))
        if all(vec[a] <= vec[b] for a, b in rel if a != b):
            out.append(sum(v << i for i, v in enumerate(vec)))
    return tuple(out)


def bounded_countermodel_search(
    phi: Formula, max_worlds: int = 3, limits: Limits | Budget = Limits()
):
    """Search for a model over at most `max_worlds` worlds and the base
    {variables of phi} + {equations in extended_subformulas(phi)} in which
    phi fails at some world; every returned candidate has no
    `model_failures` on that base, so a hit is sound by construction.
    None means the bounded space was exhausted, which is not a validity
    proof.  The budget's deadline is checked in the closure, before each
    frame and before each assignment vector tried, and each vector counts
    one node of the oracle's own against the node cap.

    Enumeration: world counts ascending; frames by pair-set bitmap, one
    representative per isomorphism class, rooted partial orders only
    (`_rooted_orders`); assignments blockwise, blocks in
    (complexity, canonical) order so composed equations follow their
    components.  Reflexive equations are pinned to 1.  Only blocks the
    goal's forcing can see (its variables and its subformula equations)
    range over all monotone vectors; once they are set the refutation test
    runs, and each remaining equation is pinned to the least value
    admissibility allows.  Vectors that break a floor or make a true
    equation fail to force its implications are pruned.  The search
    recurses once per enumerated block.

    Why only those: once the search reaches k worlds, no smaller
    countermodel exists.  A k-world countermodel refuted at w on another
    frame, restricted to the worlds w sees and with each cluster collapsed
    to one world (monotone vectors agree across a cluster), would be a
    smaller one on a rooted partial order, since every check (floors,
    implied masks, admissibility, monotonicity, identity-to-implication)
    is pointwise or reads only what a world sees.
    """
    budget = limits.start()
    base_vars = sorted(variables(phi), key=sort_key)
    eqs = [f for f in extended_subformulas(phi, budget, "the oracle") if isinstance(f, Id)]
    reflexive = [e for e in eqs if e.left == e.right]
    nonreflexive = sorted(
        (e for e in eqs if e.left != e.right), key=lambda e: (complexity(e), sort_key(e))
    )
    sub = subformulas(phi)
    blocks: list[Formula] = base_vars + nonreflexive
    enumerated = [i for i, f in enumerate(blocks) if f in sub]
    base = list(base_vars) + eqs
    stats = SearchStats()
    for k in range(1, max_worlds + 1):
        worlds = tuple(f"w{i}" for i in range(k))
        at = f"frames of {k} worlds"
        tick = budget.counter(stats, "the oracle", at)
        for rel in _rooted_orders(k):
            budget.check("the oracle", at)
            order = frozenset((worlds[a], worlds[b]) for a, b in rel)
            rows: dict[tuple[Formula, str], int] = {}
            for e in reflexive:
                for w in worlds:
                    rows[(e, w)] = 1
            model = KripkeModel(worlds, order, rows)
            vectors = _monotone_vectors(k, rel)
            found = _search_blocks(model, phi, base, blocks, enumerated, 0, vectors, tick)
            if found is not None:
                return found
    return None


def _refutes(ev: Evaluator, phi: Formula) -> str | None:
    forced, bit = ev.forces(phi), ev.model.bit
    return next((w for w in ev.model.worlds if not forced & bit[w]), None)


def _search_blocks(model, phi, base, blocks, enumerated, done, vectors, tick):
    """Set the blocks past the first `done` enumerated ones, every earlier
    block set.  A pinned block lists the value it already has while
    unlisted, its floor, so pinning changes no truth set and one evaluator
    serves the node: the pinned blocks up to the next enumerated block and
    that block's floor and implied mask or, past the last, the refutation
    test and the whole pinned tail."""
    ev, worlds, tail = Evaluator(model), model.worlds, done == len(enumerated)
    stop = len(blocks) if tail else enumerated[done]
    pinned = blocks[enumerated[done - 1] + 1 if done else 0 : stop]
    bad = _refutes(ev, phi) if tail else None
    if (tail and bad is None) or not check_identity_entails_implications(ev, pinned):
        return None
    for f in pinned:
        model.valuation.update(((f, w), ev.value(f) >> i & 1) for i, w in enumerate(worlds))
    found = None
    if tail:
        if next(model_failures(Evaluator(model), base), None) is None:
            found = model.copy(), bad
    else:
        f, floor, implied = blocks[stop], 0, -1
        if isinstance(f, Id):
            floor = ev.floor(f)
            implied = ev.forces(Imp(f.left, f.right)) & ev.forces(Imp(f.right, f.left))
        pinned.append(f)
        for true in vectors:
            tick()
            model.valuation.update(((f, w), true >> i & 1) for i, w in enumerate(worlds))
            if not floor & ~true and not true & ~implied:
                found = _search_blocks(model, phi, base, blocks, enumerated, done + 1, vectors, tick)
                if found is not None:
                    break
    if found is None:
        for f in pinned:
            for w in worlds:
                del model.valuation[(f, w)]
    return found
