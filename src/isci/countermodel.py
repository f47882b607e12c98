"""Decision: a checked proof, or a validated countermodel.

`decide` asks the search's provability table about the goal once; a proof
is read off the table.  When the table refutes the goal, the construction
walks one open branch under a loop check, with the search (its table and
its budget) deciding which premise the branch follows, and reading each
node's identity saturation from the search's stored chains.  Before R->
may fire, every antecedent implication must be saturated (its consequent
present, or its antecedent the succedent) or treated by L->; at an L->
the branch takes the left premise unless the table proves it, and then
the right one.  The branch is cut into worlds at its R-> applications
that grow the antecedent.  An R-> whose premise keeps the antecedent
stays in its world, so that the world sees the witnesses of its own
implication succedents, as a loop-blocked node must see the witness of
the ancestor it repeats (Heuerding, Seyfried & Zimmermann, TABLEAUX
1996).  Branches are then closed under walking a fresh branch for every
sequent whose succedent is an implication, giving the extra worlds that
refute those implications.  The valuation lists a variable as true at a
world exactly when it occurs in the world's antecedent, and lists the
antecedent's equations as true; any other equation is read by the least
congruence, true where its sides are congruent modulo the equations
listed at the world or below it (`semantics`).

Self-implications (x -> x) in antecedents are exempt from the saturation
requirement: they are forced at every world of every model, and treating
them would spawn branches above provable sequents, which the construction
cannot use.

The resulting bundle is validated before it is returned, on its term
graph (the goal, the model's formulas and their subformulas) and without
the extended-subformula closure: frame laws, admissibility, monotonicity,
uniform forcing of congruence classes, the designated world's failure to
force the goal, plus the structural properties the construction promises
(succedents never occur in their world's antecedents, antecedent formulas
are forced, succedents are not, no identity rule applies to a world's
last sequent, antecedents grow along the order).  So Γ_w is closed under
the identity rules over its own material; an equation true by symmetry,
as (q == p) == (p == q) is above (p == q) == (q == p), may still be
missing from it.  A validation failure means a bug, not a property of
the input.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .calculus import L_IMP, R_IMP, Derivation, RuleInstance, Sequent, is_axiom
from .formulas import (
    Formula,
    Id,
    Imp,
    complexity,
    in_form0,
    sort_key,
    sorted_formulas,
    variables,
)
from .invariants import assert_restricted_derivation
from .printer import format_formula, format_sequent
from .prover import Budget, Limits, Saturator, SearchStats, Verdict, _ProofSearch
from .prover import conclusions, identity_instance
from .semantics import Evaluator, KripkeModel, model_failures


class CounterModelError(RuntimeError):
    """Internal bug detector: the construction violated one of its own
    guarantees (including a spawned sequent turning out provable)."""


class NoOpenBranchError(CounterModelError):
    """The derivation closed, so there is nothing to refute."""


@dataclass(slots=True)
class World:
    name: str
    occurrences: tuple[Derivation, ...]  # the walked nodes of its segment
    # the union of their antecedents: the last one, as antecedents grow along a branch
    gamma_max: frozenset[Formula]


@dataclass(slots=True)
class CounterModelBundle:
    formula: Formula
    worlds: list[World]
    segment_edges: frozenset[tuple[str, str]]  # between consecutive worlds of a branch
    spawn_edges: frozenset[tuple[str, str]]  # from an implication succedent to its witness
    designated: str
    model: KripkeModel
    branches: list[list[Derivation]]  # each walked branch's nodes, root first
    stats: SearchStats
    _by_name: dict[str, World] = field(init=False, repr=False)

    def __post_init__(self):
        self._by_name = {w.name: w for w in self.worlds}

    @property
    def derivations(self) -> list[Derivation]:
        """Each branch's derivation: its root node."""
        return [b[0] for b in self.branches]

    @property
    def base_edges(self) -> frozenset[tuple[str, str]]:
        return self.segment_edges | self.spawn_edges

    def world_named(self, name: str) -> World:
        return self._by_name[name]

    def to_dot(self) -> str:
        """Graph rendering with each world labeled by its accumulated
        antecedent and the atoms true there."""
        lines = [
            "digraph countermodel {",
            "  rankdir=BT;",
            '  node [shape=box, fontname="monospace"];',
        ]
        atoms = sorted(variables(self.formula), key=sort_key)
        for w in self.worlds:
            marker = "*" if w.name == self.designated else ""
            parts = [w.name + marker]
            true_atoms = [v.name for v in atoms if self.model.valuation[(v, w.name)]]
            if true_atoms:
                parts.append("atoms: " + " ".join(true_atoms))
            for f in sorted_formulas(w.gamma_max):
                parts.append(format_formula(f))
            label = "\\n".join(p.replace('"', '\\"') for p in parts)
            lines.append(f'  {w.name} [label="{label}"];')
        for a, b in sorted(self.base_edges):
            if a != b:
                lines.append(f"  {a} -> {b};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def model_document(self) -> dict:
        from .serialize import model_doc

        return model_doc(self.model, self.designated)


class _Builder:
    def __init__(self, search: _ProofSearch):
        self.goal = search.goal
        self.stats = SearchStats()
        # the search's budget, on the builder's own count
        self.tick = search.budget.counter(self.stats, "the countermodel walk")
        self.branches: list[list[Derivation]] = []
        self.worlds: list[World] = []
        self.segment_edges: set[tuple[str, str]] = set()
        self.spawn_edges: set[tuple[str, str]] = set()
        self.memo: dict[Sequent, str] = {}
        self.pending: deque[tuple[str, Sequent]] = deque()
        # the search, whose provability table picks each L-> premise
        # of a branch and proves no spawned root, and whose saturation
        # chains each walk reads
        self.prover = search

    # -- the open branch, under the saturation-before-R-> regime ------------

    def walk(self, seq: Sequent) -> list[Derivation]:
        """The open branch above the unprovable `seq`, root first.  Each
        node is saturated by the chain the search stored for it, a walk
        node per step, whose sequents `conclusions` builds; the branch then
        takes the first unblocked L->, on to its right premise exactly when
        the provability table proves the left one, else R->, else it ends
        at an open leaf.  It is recorded as a derivation whose one node off
        the branch per L-> is the other premise, as a leaf.  `history`
        holds the succedents of the ancestors with the current node's
        antecedent, the only ones a premise can repeat (see
        `_ProofSearch`)."""
        steps: list[tuple[Sequent, RuleInstance | None, tuple[Sequent | None, ...]]] = []
        history: frozenset[Formula] = frozenset()
        sat = self.prover.saturator
        while True:
            self.tick()
            if is_axiom(seq):
                raise CounterModelError(f"open branch reaches an axiom: {format_sequent(seq)}")
            hist = history | {seq.succedent}
            chain, sat = self.prover.saturated(seq, sat)
            for conclusion, inst in conclusions(seq, chain):
                steps.append((conclusion, inst, (None,)))
                hist = frozenset((seq.succedent,))  # each step grows the antecedent
                self.tick()
            # identity rules are invertible, so the chain of an unprovable
            # sequent stays unprovable and in particular never hits an axiom
            if is_axiom(sat.sequent):
                raise CounterModelError(f"saturation closed {format_sequent(seq)}")
            node = sat.sequent
            ante = node.antecedent
            for f in self.prover.implications(ante):
                if f.left in hist:
                    continue  # blocked by the loop check
                left = Sequent(ante, f.left)
                right = Sequent(self.prover.grow(ante, f.right), node.succedent)
                inst = RuleInstance(L_IMP, principal=f)
                # a provable sequent must never sit on the branch: a world
                # whose antecedents prove one of its succedents cannot model
                # it; R-> and the identity rules are invertible, so only
                # this choice needs the table
                if self.prover.provable(left, sat):
                    steps.append((node, inst, (left, None)))
                    seq, history = right, frozenset()
                else:
                    steps.append((node, inst, (None, right)))
                    seq, history = left, hist
                break
            else:
                step = None
                if isinstance(node.succedent, Imp):
                    step = self.prover.r_imp_premise(node, hist)
                if step is None:
                    steps.append((node, None, ()))  # open leaf
                    break
                steps.append((node, RuleInstance(R_IMP), (None,)))
                seq, history = step
        # None marks the premise on the branch
        branch: list[Derivation] = []
        above = None
        for sequent, rule, premises in reversed(steps):
            children = tuple(above if s is None else Derivation(s) for s in premises)
            above = Derivation(sequent, rule, children)
            branch.append(above)
        branch.reverse()
        assert_restricted_derivation(branch[0], self.goal)
        return branch

    # -- branches, worlds, closure ------------------------------------------

    def add_branch(self, nodes: list[Derivation]) -> str:
        self.branches.append(nodes)
        segments: list[list[Derivation]] = [[]]
        for node in nodes:
            segments[-1].append(node)
            seq = node.sequent
            if node.rule is not None and node.rule.rule == R_IMP and seq.succedent.left not in seq.antecedent:
                segments.append([])  # a new world, where R-> grows the antecedent
        first = len(self.worlds)
        for seg in segments:
            world = World(f"w{len(self.worlds)}", tuple(seg), seg[-1].sequent.antecedent)
            if len(self.worlds) > first:  # the world opens with an R-> premise
                self.segment_edges.add((self.worlds[-1].name, world.name))
                self.memo.setdefault(seg[0].sequent, world.name)
            self.worlds.append(world)
            for node in seg:
                succ = node.sequent.succedent
                if isinstance(succ, Imp):
                    key = Sequent(world.gamma_max | {succ.left}, succ.right)
                    self.pending.append((world.name, key))
        return self.worlds[first].name

    def run(self) -> CounterModelBundle:
        self.add_branch(self.walk(Sequent(frozenset(), self.goal)))
        while self.pending:
            src, key = self.pending.popleft()
            target = self.memo.get(key)
            if target is None:
                if self.prover.provable(key, self.prover.saturator):
                    raise CounterModelError(
                        f"spawned sequent is provable: {format_sequent(key)}"
                    )
                target = self.add_branch(self.walk(key))
                self.memo[key] = target
            self.spawn_edges.add((src, target))
        return self.assemble()

    def assemble(self) -> CounterModelBundle:
        """The worlds under the reflexive-transitive closure of the edges,
        with the one valuation that validation checks and every document
        prints.  At each world it lists every variable of the goal, 1 where
        the world's antecedent holds it and 0 elsewhere, and every
        non-reflexive equation of the antecedent as 1; a reflexive equation
        is true everywhere by extension."""
        names = [w.name for w in self.worlds]
        order = _reflexive_transitive_closure(names, self.segment_edges | self.spawn_edges)
        atoms = variables(self.goal)
        rows: dict[tuple[Formula, str], int] = {}
        n = complexity(self.goal)
        for w in self.worlds:
            for v in atoms:
                rows[(v, w.name)] = 1 if v in w.gamma_max else 0
            for f in w.gamma_max:
                if isinstance(f, Id):
                    if complexity(f) > n:
                        raise CounterModelError(
                            f"antecedent equation above the complexity bound: {format_formula(f)}"
                        )
                    if f.left != f.right:
                        rows[(f, w.name)] = 1
        model = KripkeModel(tuple(names), order, rows)
        return CounterModelBundle(
            formula=self.goal,
            worlds=self.worlds,
            segment_edges=frozenset(self.segment_edges),
            spawn_edges=frozenset(self.spawn_edges),
            designated=names[0],
            model=model,
            branches=self.branches,
            stats=self.stats,
        )


def _reflexive_transitive_closure(names: list[str], edges: set[tuple[str, str]]):
    reach = {a: {a} for a in names}
    for a, b in edges:
        reach[a].add(b)
    for k in names:  # Warshall
        for a in names:
            if k in reach[a]:
                reach[a] |= reach[k]
    return frozenset((a, b) for a in names for b in reach[a])


def decide(phi: Formula, limits: Limits | Budget | None = None) -> Verdict:
    """Prove `phi` or refute it.  The search's provability table decides;
    a proof read off the table is certified, and otherwise the table steers
    the branches of a countermodel, which is validated.  One budget,
    started here unless `limits` is one already running, bounds every
    phase with the same deadline.  The verdict's stats count the search's
    saturation steps and provability-table evaluations, those the branches
    ask for included; `max_nodes` bounds them, and the builder's own nodes
    apart."""
    search = _ProofSearch(phi, limits or Limits())
    proof = search.run()
    if proof is not None:
        return Verdict(True, proof, search.stats)
    bundle = _Builder(search).run()
    validate_bundle(bundle, search.budget)
    return Verdict(False, None, search.stats, bundle)


def countermodel(phi: Formula, limits: Limits | Budget | None = None) -> CounterModelBundle:
    """The validated countermodel `decide` builds; on a provable formula
    this raises NoOpenBranchError."""
    verdict = decide(phi, limits)
    if verdict.proved:
        raise NoOpenBranchError("derivation has no open leaf (the sequent is provable)")
    return verdict.model


def validate_bundle(bundle: CounterModelBundle, limits: Limits | Budget = Limits()) -> None:
    """Raise CounterModelError on the first of the model's `model_failures`
    on its term graph, the base `isci check-model` reads together with the
    model's formulas, then on a broken promise of the construction.  The
    budget's deadline is checked between the checks and inside their loops.

    The saturation promise asks a saturator, sharing no state with the
    search, for an identity instance at each world's last sequent: there
    is none, so Γ_w is closed under the identity rules over its own
    material.  Each world, in order, extends the saturator of the latest
    earlier world below it by a base edge if that world's last antecedent
    is in its own, else a fresh one."""
    phi = bundle.formula
    model = bundle.model
    ev = Evaluator(model)
    budget = limits.start()
    material = {phi}
    for w in bundle.worlds:
        material |= w.gamma_max
        material.update(occ.sequent.succedent for occ in w.occurrences)
    for failure in model_failures(ev, material, phi, bundle.designated, budget, "validation"):
        raise CounterModelError(failure)
    index = {w.name: i for i, w in enumerate(bundle.worlds)}
    below: dict[str, str] = {}  # each world's latest earlier world below it
    for src, dst in bundle.base_edges:
        if not bundle.world_named(src).gamma_max <= bundle.world_named(dst).gamma_max:
            raise CounterModelError(f"antecedents shrink along {src} <= {dst}")
        if index[src] < index[dst]:
            below[dst] = max(below.get(dst, src), src, key=index.get)
    saturators: dict[str, Saturator] = {}
    for w in bundle.worlds:
        budget.check("validation", "the forcing and saturation of the worlds")
        bit = model.bit[w.name]
        for occ in w.occurrences:
            succ = occ.sequent.succedent
            if in_form0(succ) and succ in w.gamma_max:
                raise CounterModelError(
                    f"succedent {format_formula(succ)} occurs in the antecedents of {w.name}"
                )
            if ev.forces(succ) & bit:
                raise CounterModelError(
                    f"{w.name} forces its succedent {format_formula(succ)}"
                )
        for f in sorted_formulas(w.gamma_max):
            if not ev.forces(f) & bit:
                raise CounterModelError(
                    f"{w.name} does not force its antecedent formula {format_formula(f)}"
                )
        last = w.occurrences[-1].sequent
        sat = saturators.get(below.get(w.name))
        if sat is None or not sat.sequent.antecedent <= last.antecedent:
            sat = Saturator(phi)
        sat = saturators[w.name] = sat.extend(last)
        inst = identity_instance(sat)
        if inst is not None:
            raise CounterModelError(f"{inst.rule} still applies to the last sequent of {w.name}")
