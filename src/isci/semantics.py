"""Kripke semantics: frames, assignments, forcing, model checks and a
bounded brute-force countermodel search.

An assignment is a finite table of authoritative rows over (formula,
world) pairs.  Identity is Suszko's (Bloom & Suszko, "Investigations into
the sentential calculus with identity", 1972): outside the table an
equation is true at a world exactly when its two sides are congruent
there, in the least congruence under both connectives that relates the
sides of every equation listed 1 at that world or at a world below it.
Every other unlisted formula (a variable) is false.  A row that lists as
0 an equation whose sides are congruent is inadmissible, so in an
admissible model every equation is true exactly where its sides are
congruent, and truth of equations persists upward.

An `Evaluator` computes truth sets, one int per formula whose bits are
the worlds where it is true or forced, and every check below goes through
it.  The oracle searches rooted partial orders only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, permutations

from .formulas import (
    Bottom,
    Formula,
    Id,
    Imp,
    Var,
    complexity,
    sort_key,
    sub_closure,
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


class Congruence:
    """The least congruence under both connectives that relates the sides
    of every equation merged into it, kept incrementally as in Downey,
    Sethi & Tarjan (JACM 1980) and Nelson & Oppen (JACM 1980): a union-find
    over the terms added so far, a signature table from (connective, root
    of the left part, root of the right part) to a compound term, and per
    root the compound terms with a part in its class.  A term is added on
    first use, with its parts, and joins the class of the term that has its
    signature, so a term added after a merge reads the merged class.  Use
    lists are tuples, so `copy` shares them."""

    __slots__ = ("_parent", "_size", "_table", "_uses")

    def __init__(self):
        self._parent: dict[Formula, Formula] = {}
        self._size: dict[Formula, int] = {}  # per root
        self._table: dict[tuple, Formula] = {}
        self._uses: dict[Formula, tuple[Formula, ...]] = {}  # per root

    def copy(self) -> "Congruence":
        c = Congruence.__new__(Congruence)
        c._parent, c._size = dict(self._parent), dict(self._size)
        c._table, c._uses = dict(self._table), dict(self._uses)
        return c

    def find(self, t: Formula) -> Formula:
        """The root of `t`'s class; `t` is added first if it is new, after
        its parts, so that no addition recurses."""
        parent = self._parent
        if t not in parent:
            stack = [t]
            while stack:
                u = stack[-1]
                if isinstance(u, (Imp, Id)):
                    if u.left not in parent:
                        stack.append(u.left)
                        continue
                    if u.right not in parent:
                        stack.append(u.right)
                        continue
                self._add(stack.pop())
        root = parent[t]
        while parent[root] is not root:
            root = parent[root]
        while parent[t] is not root:
            parent[t], t = root, parent[t]
        return root

    def _add(self, t: Formula) -> None:
        if isinstance(t, (Imp, Id)):
            left, right = self.find(t.left), self.find(t.right)
            sig = (type(t), left, right)
            other = self._table.get(sig)
            if other is not None:
                root = self.find(other)
                self._parent[t] = root
                self._size[root] += 1
                return
            self._table[sig] = t
            self._uses[left] = self._uses.get(left, ()) + (t,)
            if right is not left:
                self._uses[right] = self._uses.get(right, ()) + (t,)
        self._parent[t] = t
        self._size[t] = 1

    def _signature(self, u: Formula) -> tuple:
        return (type(u), self.find(u.left), self.find(u.right))

    def merge(self, a: Formula, b: Formula) -> None:
        """Relate `a` and `b`, and every pair of terms whose parts that
        makes congruent."""
        pending = [(a, b)]
        while pending:
            a, b = pending.pop()
            small, large = self.find(a), self.find(b)
            if small is large:
                continue
            if self._size[small] > self._size[large]:
                small, large = large, small
            moved = self._uses.pop(small, ())
            for u in moved:
                sig = self._signature(u)
                if self._table.get(sig) is u:
                    del self._table[sig]
            self._parent[small] = large
            self._size[large] += self._size.pop(small)
            kept = self._uses.get(large, ())
            for u in moved:
                sig = self._signature(u)
                other = self._table.get(sig)
                if other is None:
                    self._table[sig] = u
                    kept += (u,)
                elif other is not u:
                    pending.append((u, other))
            self._uses[large] = kept

    def classes(self, terms) -> list[list[Formula]]:
        """The classes with two or more of `terms`, members in `terms`' order."""
        by_root: dict[Formula, list[Formula]] = {}
        for t in terms:
            by_root.setdefault(self.find(t), []).append(t)
        return [c for c in by_root.values() if len(c) > 1]


def _congruences(model: KripkeModel) -> list[tuple[int, Congruence]]:
    """One congruence per distinct set of generating equations, with the
    worlds it serves: a world's generators are the non-reflexive equations
    listed 1 at it or at a world below it."""
    reach = {b: up | b for b, up in model.up}
    generators: dict[int, set[Id]] = {b: set() for b in reach}
    for (f, w), v in model.valuation.items():
        if v and isinstance(f, Id) and f.left is not f.right and w in model.bit:
            for b in generators:
                if b & reach[model.bit[w]]:
                    generators[b].add(f)
    masks: dict[frozenset, int] = {}
    for b, eqs in generators.items():
        masks[frozenset(eqs)] = masks.get(frozenset(eqs), 0) | b
    out = []
    for eqs, mask in masks.items():
        out.append((mask, Congruence()))
        for e in eqs:
            out[-1][1].merge(e.left, e.right)
    return out


class Evaluator:
    """Truth sets of one model under its valuation as it stands: each
    formula maps to an int whose bit `model.bit[w]` is set at the worlds
    where it is true (`value`) or forced (`forces`), memoized per formula.
    `congruences` pairs each world mask with the congruence its worlds read
    unlisted equations by, built from the rows unless given; rows are read
    per formula, lazily.  Whoever changes the valuation builds a fresh
    evaluator, or asks `listing` for one."""

    __slots__ = ("model", "congruences", "_value", "_forces")

    def __init__(self, model: KripkeModel, congruences=None):
        self.model = model
        self.congruences: list[tuple[int, Congruence]] = (
            _congruences(model) if congruences is None else congruences
        )
        self._value: dict[Formula, int] = {}
        self._forces: dict[Formula, int] = {}

    def listing(self, f: Formula, true: int) -> "Evaluator":
        """The evaluator of the model once `f`'s rows list it as 1 at the
        worlds of `true`, and nowhere else: this one's congruences, those of
        the worlds at or above a world of `true` copied and extended by the
        sides of an equation `f`, the others shared."""
        reach = 0
        if isinstance(f, Id) and f.left is not f.right:
            for b, up in self.model.up:
                if b & true:
                    reach |= up | b
        out = []
        for mask, cong in self.congruences:
            if mask & reach:
                extended = cong.copy()
                extended.merge(f.left, f.right)
                out.append((mask & reach, extended))
            if mask & ~reach:
                out.append((mask & ~reach, cong))
        return Evaluator(self.model, out)

    def floor(self, f: Formula) -> int:
        """Where `f` is true if no row lists it, which is the least value
        admissibility allows: an equation where its sides are congruent,
        anything else nowhere."""
        if not isinstance(f, Id):
            return 0
        left, right = f.left, f.right
        if left is right:
            return self.model.full
        mask = 0
        for worlds, cong in self.congruences:
            if cong.find(left) is cong.find(right):
                mask |= worlds
        return mask

    def value(self, f: Formula) -> int:
        """Assignment value of a variable or equation: its rows where the
        valuation lists it, its floor elsewhere."""
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
        nowhere, `A -> B` at the worlds whose up-set avoids A & ~B.  The
        implications inside an implication are evaluated first, on an
        explicit stack."""
        if isinstance(f, Imp):
            known = self._forces
            mask = known.get(f)
            if mask is None:
                stack = [f]
                while stack:
                    g = stack[-1]
                    left, right = g.left, g.right
                    if isinstance(left, Imp) and left not in known:
                        stack.append(left)
                    elif isinstance(right, Imp) and right not in known:
                        stack.append(right)
                    else:
                        mask = known[g] = self.avoiding(self.forces(left) & ~self.forces(right))
                        stack.pop()
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


def check_admissible(model: KripkeModel | Evaluator, base=()) -> bool:
    """No row lists as 0 an equation whose sides are congruent at its
    world.  An equation no row lists takes its congruence value, so only
    those rows can break reflexivity or composition, and the rows alone
    decide: `base`, the material a caller checks, adds nothing."""
    ev = _evaluator(model)
    m = ev.model
    for (f, w), v in m.valuation.items():
        if not v and isinstance(f, Id) and w in m.bit and ev.floor(f) & m.bit[w]:
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


def term_graph(model: KripkeModel | Evaluator, base) -> frozenset[Formula]:
    """The formulas of `base` and of the valuation's rows, with their
    subformulas: the terms the identity-to-implication check reads."""
    rows = _evaluator(model).model.valuation
    return sub_closure(chain(base, (f for f, _w in rows)))


def check_identity_entails_implications(model: KripkeModel | Evaluator, base) -> bool:
    """Every true equation forces both of its implications: every class of
    the term graph of `base` is forced uniformly at the worlds of its
    congruence.  That suffices for every formula, by induction: a term
    outside the graph is congruent to another only through its parts, and
    congruence grows along the order, so two congruent formulas are forced
    alike at every world above."""
    ev = _evaluator(model)
    terms = term_graph(ev, base)
    for mask, cong in ev.congruences:
        for members in cong.classes(terms):
            forced = ev.forces(members[0]) & mask
            if any(ev.forces(x) & mask != forced for x in members[1:]):
                return False
    return True


def model_failures(model, base, goal=None, designated=None, budget=None, phase=None):
    """The failures of `model` (or its `Evaluator`) on the term graph of
    `base`, in `isci check-model`'s order and words: the frame check, whose
    failure stops the rest, admissibility, monotonicity,
    identity-to-implication and, given a goal, whether the designated world
    forces it.  Under `budget`, each check first checks the deadline of
    `phase`."""
    ev = _evaluator(model)

    def stage(name: str) -> None:
        if budget is not None:
            budget.check(phase, name)

    stage("the frame check")
    if not check_frame(ev):
        yield "order is not reflexive-transitive"
        return
    stage("the admissibility check")
    if not check_admissible(ev):
        yield "assignment not admissible"
    terms = term_graph(ev, base)
    stage("the monotonicity check")
    if not check_monotonicity(ev, terms):
        yield "forcing not monotone"
    stage("the identity-to-implication check")
    if not check_identity_entails_implications(ev, terms):
        yield "a true equation fails to force its implications"
    if goal is not None:
        stage("the forcing of the formula")
        if ev.forces(goal) & ev.model.bit[designated]:
            yield "designated world forces the formula"


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
    """Search for a model over at most `max_worlds` worlds in which phi
    fails at some world; every returned candidate has no `model_failures`
    on sub(phi), so a hit is sound by construction.  None means the
    bounded space was exhausted, which is not a validity proof.  The
    deadline is checked before each frame and each assignment vector, and
    each vector counts one node of the oracle's own against the node cap.

    Enumeration: world counts ascending; frames by pair-set bitmap, one
    representative per isomorphism class, rooted partial orders only;
    then one block per variable of phi and per non-reflexive equation of
    sub(phi), in (complexity, canonical) order, each over the monotone
    vectors.  Every other equation reads its congruence value.  A vector
    listing 0 where the block's sides are congruent, or 1 where they fail
    to force each other, is pruned: a block's sides hold only earlier
    blocks, and congruence only grows as later ones are listed.

    Why only those: once the search reaches k worlds, no smaller
    countermodel exists.  A k-world countermodel refuted at w on another
    frame, restricted to the worlds w sees and with each cluster collapsed
    to one world, would be a smaller one on a rooted partial order.  And a
    countermodel's rows for the blocks alone are a countermodel too: its
    congruences lie within the original's true equations, each block is
    true where it was, and by induction on formulas congruent formulas
    are forced alike and sub(phi) as before.
    """
    budget = limits.start()
    sub = subformulas(phi)
    blocks: list[Formula] = sorted(variables(phi), key=sort_key) + sorted(
        (f for f in sub if isinstance(f, Id) and f.left is not f.right),
        key=lambda e: (complexity(e), sort_key(e)),
    )
    stats = SearchStats()
    for k in range(1, max_worlds + 1):
        worlds = tuple(f"w{i}" for i in range(k))
        at = f"frames of {k} worlds"
        tick = budget.counter(stats, "the oracle", at)
        for rel in _rooted_orders(k):
            budget.check("the oracle", at)
            order = frozenset((worlds[a], worlds[b]) for a, b in rel)
            ev = Evaluator(KripkeModel(worlds, order, {}))
            found = _search_blocks(ev, phi, sub, blocks, 0, _monotone_vectors(k, rel), tick)
            if found is not None:
                return found
    return None


def _refutes(ev: Evaluator, phi: Formula) -> str | None:
    forced, bit = ev.forces(phi), ev.model.bit
    return next((w for w in ev.model.worlds if not forced & bit[w]), None)


def _search_blocks(ev, phi, sub, blocks, done, vectors, tick):
    """Set the blocks past the first `done`, each of which `ev`'s model
    lists: past the last, the refutation test and the candidate's checks.  The
    floor and the implied mask of the next block are final, as its sides
    hold only earlier blocks; each vector's evaluator extends `ev`'s
    congruences by that block."""
    model = ev.model
    if done == len(blocks):
        bad = _refutes(ev, phi)
        if bad is not None and next(model_failures(ev, sub), None) is None:
            return model.copy(), bad
        return None
    f, floor, implied = blocks[done], 0, -1
    if isinstance(f, Id):
        floor = ev.floor(f)
        implied = ev.forces(Imp(f.left, f.right)) & ev.forces(Imp(f.right, f.left))
    rows = model.valuation
    for true in vectors:
        tick()
        if floor & ~true or true & ~implied:
            continue
        rows.update(((f, w), true >> i & 1) for i, w in enumerate(model.worlds))
        found = _search_blocks(ev.listing(f, true), phi, sub, blocks, done + 1, vectors, tick)
        if found is not None:
            return found
    for w in model.worlds:
        rows.pop((f, w), None)  # absent if every vector was pruned
    return None
