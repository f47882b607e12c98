"""Decision: a checked proof, or a validated countermodel.

`decide` runs the proof search once.  When the search fails, the
construction walks one open branch of the goal under a stricter regime
than proof search, with the failed search (its provability table and its
budget) deciding which premise the branch follows.  Before R-> may
fire, every antecedent implication must be saturated (its consequent
present, or its antecedent the succedent) or treated by L->; at an L->
the branch takes the left premise unless the table proves it, and then
the right one.  The branch is cut at its R-> applications into worlds;
branches are then closed under walking a fresh branch for every sequent
whose succedent is an implication, giving the extra worlds that refute
those implications.  The valuation reads a variable or equation as true
at a world exactly when it occurs in one of the world's antecedents
(reflexive equations are true everywhere, and truth of equations
propagates through componentwise composition).

Self-implications (x -> x) in antecedents are exempt from the saturation
requirement: they are forced at every world of every model, and treating
them would spawn branches above provable sequents, which the construction
cannot use.

The resulting bundle is validated before it is returned: frame laws,
admissibility, monotonicity, identity-to-implication forcing, the
designated world's failure to force the goal, plus the structural
properties the construction promises (succedents never occur in their
world's antecedents, antecedent formulas are forced, succedents are not,
true small equations occur in antecedents, antecedents grow along the
order).  A validation failure means a bug, not a property of the input.
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
    extended_subformulas_within,
    in_extended_subformulas,
    in_form0,
    sort_key,
    sorted_formulas,
    sub_closure,
    variables,
)
from .invariants import assert_restricted_derivation
from .printer import format_formula, format_sequent
from .prover import Budget, Limits, SearchStats, Verdict, _ProofSearch
from .semantics import Evaluator, KripkeModel, check_identity_entails_implications, model_failures

VALIDATION_CAP = 4096


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
    # validation checked only `_degraded_material`: the closure exceeds VALIDATION_CAP
    fallback_base: bool = False
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
        # the failed search, whose provability table picks each L-> premise
        # of a branch and proves no spawned root, and whose saturator each
        # walk extends
        self.prover = search

    # -- the open branch, under the saturation-before-R-> regime ------------

    def walk(self, seq: Sequent) -> list[Derivation]:
        """The open branch above the unprovable `seq`, root first.  Each
        node is saturated; the branch then takes the first unblocked L->,
        on to its right premise exactly when the provability table proves
        the left one, else R->, else it ends at an open leaf.  It is
        recorded as a derivation whose one node off the branch per L-> is
        the other premise, as a leaf.  `history` holds the succedents of
        the ancestors with the current node's antecedent, the only ones a
        premise can repeat (see `_ProofSearch`)."""
        steps: list[tuple[Sequent, RuleInstance | None, tuple[Sequent | None, ...]]] = []
        history: frozenset[Formula] = frozenset()
        sat = self.prover.saturator
        while True:
            self.tick()
            if is_axiom(seq):
                raise CounterModelError(f"open branch reaches an axiom: {format_sequent(seq)}")
            hist = history | {seq.succedent}
            sat = sat.extend(seq)
            for conclusion, inst in sat.saturate():
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
            if node.rule is not None and node.rule.rule == R_IMP:
                segments.append([])
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
    """Prove `phi` or refute it.  One proof search runs; a proof is
    certified, and otherwise its provability table steers the branches of
    a countermodel, which is validated.  One budget, started here unless
    `limits` is one already running, bounds every phase with the same
    deadline.  The verdict's stats count the search's expansions,
    saturation steps and provability-table evaluations, those the branches
    ask for included; `max_nodes` bounds them, and the builder's own nodes
    apart."""
    search = _ProofSearch(phi, limits or Limits())
    proof = search.run()
    if proof is not None:
        return Verdict(True, proof, search.stats)
    bundle = _Builder(search).run()
    bundle.fallback_base = validate_bundle(bundle, search.budget)
    return Verdict(False, None, search.stats, bundle)


def countermodel(phi: Formula, limits: Limits | Budget | None = None) -> CounterModelBundle:
    """The validated countermodel `decide` builds; on a provable formula
    this raises NoOpenBranchError."""
    verdict = decide(phi, limits)
    if verdict.proved:
        raise NoOpenBranchError("derivation has no open leaf (the sequent is provable)")
    return verdict.model


def _degraded_material(phi: Formula, bundle: CounterModelBundle) -> frozenset[Formula]:
    """Validation base for goals whose closure exceeds VALIDATION_CAP:
    everything the model mentions."""
    seen: set[Formula] = {phi}
    for w in bundle.worlds:
        seen |= w.gamma_max
        for occ in w.occurrences:
            seen.add(occ.sequent.succedent)
    return sub_closure(seen)


def wide_eqs(n: int, material: frozenset[Formula], model: KripkeModel) -> list[Id]:
    """The equations `a == b` over `material`, with c(a) + c(b) <= 2n,
    that may be true somewhere.  An equation is true only where the
    valuation lists it, where it is reflexive, or where its sides share a
    connective whose component equations are true; so each formula's
    partners (the sides it may be equal to) follow from its components'
    partners.  They are built bottom-up over the subformulas of
    `material`, since the components of its members need not lie in it,
    and no equation that cannot be true is built (and so interned)."""
    listed: dict[Formula, set[Formula]] = {}
    for (f, _w), v in model.valuation.items():
        if v and isinstance(f, Id):
            listed.setdefault(f.left, set()).add(f.right)
    closed = sorted(sub_closure(material), key=complexity)
    by_left: dict[tuple[type, Formula], list[Formula]] = {}
    for f in closed:
        if isinstance(f, (Imp, Id)):
            by_left.setdefault((type(f), f.left), []).append(f)
    partners: dict[Formula, set[Formula]] = {}
    for a in closed:  # components come first
        found = {a} | listed.get(a, set())
        if isinstance(a, (Imp, Id)):
            right = partners[a.right]
            for left in partners[a.left]:
                found.update(b for b in by_left.get((type(a), left), ()) if b.right in right)
        partners[a] = found
    return [
        Id(a, b)
        for a in material
        for b in partners[a]
        if b in material and complexity(a) + complexity(b) <= 2 * n
    ]


def validate_bundle(bundle: CounterModelBundle, limits: Limits | Budget = Limits()) -> bool:
    """Raise CounterModelError on the first of the model's `model_failures`
    on the base `isci check-model` reads (the valuation's formulas and the
    closure), then on a broken promise of the construction or a true
    equation that fails to force its implications.  The budget's deadline
    is checked between the checks and inside their loops.  Returns whether
    the closure exceeds VALIDATION_CAP, so that the checks read only the
    weaker base `_degraded_material` in its place."""
    phi = bundle.formula
    model = bundle.model
    ev = Evaluator(model)
    n = complexity(phi)
    budget = limits.start()
    budget.check("validation", "the closure")
    closure = extended_subformulas_within(phi, VALIDATION_CAP)
    material = closure if closure is not None else _degraded_material(phi, bundle)
    # Equations outside the closure can become true by decomposition when
    # splitting a composed equation injects one of its sides' components
    # into an antecedent, but the subformula bound forbids the rules from
    # ever placing them on the left.
    budget.check("validation", "the equations that may be true")
    eqs = wide_eqs(n, material, model)
    # the small equations, non-reflexive closure members (whose complexity
    # never exceeds c(phi)): the check reads only the true ones, all in `eqs`
    small = sorted_formulas(
        [
            e
            for e in eqs
            if e.left != e.right
            and (e in material if closure is not None else in_extended_subformulas(e, phi))
        ]
    )
    base = {f for (f, _w) in model.valuation} | material
    for failure in model_failures(ev, base, phi, bundle.designated, budget, "validation"):
        raise CounterModelError(failure)
    for src, dst in bundle.base_edges:
        if not bundle.world_named(src).gamma_max <= bundle.world_named(dst).gamma_max:
            raise CounterModelError(f"antecedents shrink along {src} <= {dst}")
    for w in bundle.worlds:
        budget.check("validation", "the forcing of antecedents and succedents")
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
    for e in small:
        budget.check("validation", "the small equations")
        true = ev.value(e)
        if not true:
            continue
        for w in bundle.worlds:
            if true & model.bit[w.name] and e not in w.gamma_max:
                raise CounterModelError(
                    f"true small equation {format_formula(e)} missing from {w.name}'s antecedents"
                )
    budget.check("validation", "the identity-to-implication check")
    if not check_identity_entails_implications(ev, eqs):
        raise CounterModelError("a true equation fails to force its implications")
    return closure is None
