"""Backward proof search.

Priorities at every node: close axioms, saturate with the identity rules,
then apply R-> when the succedent is an implication (R-> is invertible,
so it is never backtracked), and only then try the antecedent implications
with L->, backtracking across the choices.  A rule application is skipped
whenever one of its premises would repeat a sequent already on the branch;
together with the extended-subformula bound on identity rules this makes
the search space finite.

Identity saturation comes in two modes, chosen per goal:

* full: every reflexive equation in the extended-subformula set is
  introduced and every pair of antecedent equations is composed.  Used
  whenever the extended-subformula set materializes within EXSUB_CAP
  formulas; this is the exhaustive reading of saturation.
* guided: for goals whose extended-subformula set is too large to
  enumerate, reflexive equations are introduced only for formulas that
  occur inside the sequent, and compositions are kept only when both
  sides of the composed equation occur inside the sequent.  Saturation
  then touches just the identities that can interact with the goal, which
  keeps large instances tractable.

  Requiring the composed equation itself to occur inside the sequent is
  too strict: it still proves the congruence axioms
  (p == q) -> (r == s) -> ((p -> r) == (q -> s)) and its == twin, but
  leaves every depth-2 congruence instance p == q -> C[p] == C[q], such
  as p == q -> (p -> (p -> r)) == (p -> (q -> r)), unproved, although
  these are theorems by construction.  Keeping a composition when either
  side occurs is too loose: the antecedent snowballs, and the congruence
  axioms need 848 nodes instead of 418.

Both modes share one `Saturator` per branch, which composes each new
equation only against its partners instead of rescanning all pairs.
"""

from __future__ import annotations

import heapq
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .calculus import (
    L_ID1,
    L_ID2,
    L_ID3,
    L_IMP,
    OP_ID,
    OP_IMP,
    R_IMP,
    Derivation,
    RuleInstance,
    Sequent,
    apply_rule,
    check_proof,
    compose_equations,
    is_axiom,
)
from .formulas import (
    Formula,
    Id,
    Imp,
    complexity,
    extended_subformulas_within,
    in_extended_subformulas,
    sort_key,
    subformulas,
)
from .invariants import assert_restricted_derivation

if TYPE_CHECKING:
    from .countermodel import CounterModelBundle

EXSUB_CAP = 256


@dataclass(frozen=True, slots=True)
class Limits:
    max_nodes: int = 1_000_000
    timeout: float = 30.0

    def start(self) -> "Budget":
        return Budget(self)


@dataclass
class SearchStats:
    nodes: int = 0
    backtracks: int = 0


class ResourceExhausted(RuntimeError):
    """Raised when a resource cap is hit; distinct from a NotProved verdict."""


class Budget:
    """The caps of one call, started once from its `Limits`: the only code
    that computes the deadline, reads the clock, counts a node against
    `max_nodes` or raises ResourceExhausted.  Every phase of the call
    checks the same deadline, and names itself (and its stage) in the
    message, formatted only when raising.  `start` returns the budget
    itself, so a function handed `Limits` or a running budget calls
    `start()` either way."""

    __slots__ = ("limits", "deadline")

    def __init__(self, limits: Limits):
        self.limits = limits
        self.deadline = time.monotonic() + limits.timeout

    def start(self) -> "Budget":
        return self

    def check(self, phase: str, stage: str | None = None) -> None:
        """Raise once the deadline is reached."""
        if time.monotonic() >= self.deadline:
            raise self._timeout(phase, stage)

    def _timeout(self, phase: str, stage: str | None = None) -> ResourceExhausted:
        at = "" if stage is None else f", at {stage}"
        return ResourceExhausted(f"timeout {self.limits.timeout}s hit in {phase}{at}")

    def counter(self, stats: SearchStats, phase: str):
        """The `tick` of a phase: it counts one node in the phase's own
        `stats`, then checks the node cap and the deadline.  The hot loops
        call it directly, so it is one call per node."""
        cap, deadline = self.limits.max_nodes, self.deadline

        def tick() -> None:
            stats.nodes += 1
            if stats.nodes > cap:
                raise ResourceExhausted(f"node cap {cap} hit in {phase}")
            if time.monotonic() >= deadline:
                raise self._timeout(phase)

        return tick


@dataclass(frozen=True, slots=True)
class Verdict:
    """`proof` is set exactly when `proved`; `model` is set only by
    `countermodel.decide` on a refuted formula."""

    proved: bool
    proof: Derivation | None
    stats: SearchStats
    model: CounterModelBundle | None = None


class CertificationError(RuntimeError):
    """A proof found by the search fails the independent checker: a bug."""


class Saturator:
    """Identity-saturation state of one branch.

    Holds the branch's current sequent together with every identity
    instance that may still apply to it, keyed by the canonical instance
    order (L==1, then L==2, then L==3, then the principals, then the op).
    A newly added equation is composed only against partners whose
    complexity the bound can accept, as in `formulas._exsub_worklist`.  In
    guided mode a composition with a side outside the antecedent's
    subformula closure waits under that side until it appears; the ones the
    succedent's material admits are collected per succedent.  `extend`
    hands a copy to a premise, and the copy catches up with the premise's
    new antecedent formulas at its next step, so the instances chosen are
    exactly those a full rescan of each sequent would choose.
    """

    def __init__(self, goal: Formula):
        self.goal = goal
        self.plan = extended_subformulas_within(goal, EXSUB_CAP)  # None: guided
        self.bound = complexity(goal)
        self.sequent: Sequent | None = None
        self._ante: frozenset[Formula] = frozenset()  # formulas already taken in
        self._sub: set[Formula] = set()  # guided: sub_closure(self._ante)
        self._buckets: dict[int, tuple[Id, ...]] = {}  # c(left) + c(right) -> equations
        # heap entries are (order key, instance, formulas its premise adds);
        # an entry is stale once all of those formulas are in the antecedent
        self._heap: list = []
        self._waiting: dict[Formula, tuple] = {}  # missing side -> (entry, composition)
        self._succ: Formula | None = None  # succedent that _succ_heap serves
        self._succ_heap: list = []  # guided: applicable through the succedent only
        if self.plan is not None:
            for e in self.plan:
                if isinstance(e, Id) and e.left == e.right:
                    self._push(self._heap, RuleInstance(L_ID1, principal=e.left), (e,))

    def extend(self, seq: Sequent) -> "Saturator":
        """A copy positioned at `seq`, whose antecedent contains this one's.
        In full mode a premise with this saturator's antecedent at its
        fixpoint (an empty heap) shares the state, which it cannot change."""
        child = Saturator.__new__(Saturator)
        child.__dict__ = self.__dict__.copy()
        child.sequent = seq
        if self.plan is not None and seq.antecedent is self._ante and not self._heap:
            return child
        child._sub = set(self._sub)
        child._buckets = dict(self._buckets)
        child._heap = list(self._heap)
        child._waiting = dict(self._waiting)
        child._succ_heap = list(self._succ_heap)
        return child

    def saturate(self) -> Iterator[tuple[Sequent, RuleInstance]]:
        """Apply identity instances until the fixpoint or an axiom, yielding
        each conclusion with the instance applied to it."""
        if self.plan is not None and self.sequent.antecedent is self._ante and not self._heap:
            return  # shared by `extend` at its fixpoint
        while not is_axiom(self.sequent):
            inst = identity_instance(self)
            if inst is None:
                return
            conclusion = self.sequent
            self.sequent = apply_rule(conclusion, inst)[0]
            yield conclusion, inst

    @staticmethod
    def _push(heap: list, inst: RuleInstance, adds: tuple[Formula, ...]) -> None:
        heapq.heappush(heap, (inst.order_key(), inst, adds))

    def _sync(self) -> None:
        seq = self.sequent
        new = seq.antecedent - self._ante
        guided = self.plan is None
        if guided and seq.succedent is not self._succ:
            self._succ, self._succ_heap = None, []
        self._ante = seq.antecedent
        for f in new:
            self._take(f)
        if guided and self._succ is None:
            self._collect_succedent(seq.succedent)

    def _take(self, f: Formula) -> None:
        if self.plan is None:
            for g in subformulas(f):
                if g in self._sub:
                    continue
                self._sub.add(g)
                self._reflexive(self._heap, g)
                for entry, comp in self._waiting.pop(g, ()):
                    self._place(entry, comp)
        if not isinstance(f, Id):
            return
        splits = (Imp(f.left, f.right), Imp(f.right, f.left))
        self._push(self._heap, RuleInstance(L_ID2, principal=f), splits)
        cf = complexity(f.left) + complexity(f.right)
        room = self.bound - 3 - cf
        if room < 0:
            return
        for cg in range(room + 1):
            for g in self._buckets.get(cg, ()):
                for op in (OP_IMP, OP_ID):
                    self._compose(f, g, op)
                    self._compose(g, f, op)
        if cf <= room:
            for op in (OP_IMP, OP_ID):
                self._compose(f, f, op)
        self._buckets[cf] = self._buckets.get(cf, ()) + (f,)

    def _reflexive(self, heap: list, x: Formula) -> None:
        e = Id(x, x)
        if e not in self._ante and in_extended_subformulas(e, self.goal):
            self._push(heap, RuleInstance(L_ID1, principal=x), (e,))

    def _compose(self, e1: Id, e2: Id, op: str) -> None:
        comp = compose_equations(e1, e2, op)
        if comp in self._ante:
            return
        inst = RuleInstance(L_ID3, principal=e1, principal2=e2, op=op)
        if self.plan is not None:
            if comp in self.plan:
                self._push(self._heap, inst, (comp,))
        elif in_extended_subformulas(comp, self.goal):
            self._place((inst.order_key(), inst, (comp,)), comp)

    def _place(self, entry, comp: Id) -> None:
        """Guided mode: a composition applies once both of its sides occur
        in the sequent."""
        missing = [s for s in (comp.left, comp.right) if s not in self._sub]
        if not missing:
            heapq.heappush(self._heap, entry)
            return
        self._waiting[missing[0]] = self._waiting.get(missing[0], ()) + ((entry, comp),)
        if self._succ is not None and all(s in subformulas(self._succ) for s in missing):
            heapq.heappush(self._succ_heap, entry)

    def _collect_succedent(self, succ: Formula) -> None:
        material = subformulas(succ)
        for g in material:
            if g in self._sub:
                continue
            self._reflexive(self._succ_heap, g)
            for entry, comp in self._waiting.get(g, ()):
                if all(s in self._sub or s in material for s in (comp.left, comp.right)):
                    self._succ_heap.append(entry)
        heapq.heapify(self._succ_heap)
        self._succ = succ


def identity_instance(sat: Saturator) -> RuleInstance | None:
    """Canonically least identity-rule instance applicable to the
    saturator's sequent under the goal's saturation mode, or None at the
    saturation fixpoint.

    In guided mode a composition is kept when both of its sides occur
    inside the sequent: an identity between mentioned formulas can feed an
    axiom or an implication split, one reaching outside them only feeds
    further compositions."""
    sat._sync()
    ante = sat.sequent.antecedent
    best = None
    for heap in (sat._heap, sat._succ_heap):
        while heap and all(f in ante for f in heap[0][2]):
            heapq.heappop(heap)
        if heap and (best is None or heap[0] < best):
            best = heap[0]
    return None if best is None else best[1]


class _ProofSearch:
    """Depth-first backward search with a provability table.

    A rule application is blocked exactly when a premise would repeat a
    sequent on the branch.  R-> is tried first, so proofs keep the
    invertible-rule-first shape, and a failed R-> premise falls back to
    the L-> alternatives instead of committing.

    Antecedents only grow upward, so a premise can repeat only an ancestor
    with the same antecedent, and those ancestors end the branch (the
    loop check of Heuerding, Seyfried and Zimmermann, TABLEAUX 1996).  The
    history handed down is therefore just that segment; it restarts
    whenever the antecedent grows, after every identity-saturation step
    among others.  A segment's sequents share their antecedent, so the
    history is the set of their succedents.  For L-> on an implication
    a -> b, the right premise Γ, b ⊢ C repeats a sequent exactly when b is
    in Γ, and it is then the conclusion itself, so `implications` leaves
    a -> b out; else the premise is built once the left one, Γ ⊢ a, is proved.

    Whether a sequent fails depends on the branch, but whether it is
    provable does not.  The provable succedents of a saturated antecedent
    Γ form the least fixpoint of Γ's R-> and L-> clauses (Horn clauses,
    as in Dowling and Gallier, 1984), whose other premises have strictly
    larger antecedents.  `provable` computes it lazily, in a table keyed
    by antecedent and then succedent.  The search asks the table only
    about a sequent that has failed before: an unprovable one fails again
    at once, any other is searched again, so the proofs are those of a
    search with no table.  A success marks its sequent provable; a
    failure with an empty history marks it unprovable, since a search
    from the sequent alone is complete.  Every expansion, saturation step
    and table evaluation is a node, and the node cap bounds them all.

    The table, the budget and the goal's root saturator outlive `run`:
    after a failed search the countermodel builder asks the same object
    which premise of each L-> its branch follows, and whether a spawned
    sequent is provable, and extends the same root saturator.
    """

    def __init__(self, goal: Formula, limits: Limits | Budget):
        self.goal = goal
        self.budget = limits.start()
        self.stats = SearchStats()
        self.tick = self.budget.counter(self.stats, "the proof search")
        self.saturator = Saturator(goal)  # the goal's, which every branch extends
        self.failed: dict[frozenset[Formula], set[Formula]] = {}  # antecedent -> succedents
        # antecedent -> succedent -> provable; only decided sequents are in it
        self.table: dict[frozenset[Formula], dict[Formula, bool]] = {}
        # saturated antecedent -> (goals to evaluate, goal -> its waiters)
        self._open: dict[frozenset[Formula], tuple[list[Formula], dict]] = {}
        self._implications: dict[frozenset[Formula], tuple[Imp, ...]] = {}
        self._grown: dict[frozenset[Formula], dict[Formula, frozenset[Formula]]] = {}

    def implications(self, antecedent: frozenset[Formula]) -> tuple[Imp, ...]:
        """The L-> candidates of an antecedent in canonical order: its
        implications whose consequent it lacks (for any other, the right
        premise repeats the conclusion), other than self-implications, which
        are tautologies (applying L-> to one is a cut that only widens the
        search)."""
        imps = self._implications.get(antecedent)
        if imps is None:
            imps = [f for f in antecedent if isinstance(f, Imp) and f.left is not f.right]
            imps = tuple(sorted((f for f in imps if f.right not in antecedent), key=sort_key))
            self._implications[antecedent] = imps
        return imps

    def grow(self, antecedent: frozenset[Formula], f: Formula) -> frozenset[Formula]:
        """`antecedent | {f}`, built once per pair and shared by every
        premise that adds `f` to `antecedent`."""
        by_f = self._grown.setdefault(antecedent, {})
        grown = by_f.get(f)
        if grown is None:
            grown = by_f[f] = antecedent | {f}
        return grown

    def r_imp_premise(self, seq: Sequent, hist: frozenset[Formula]):
        """The R-> premise of `seq` with its history, or None when it
        repeats a sequent of `seq`'s segment, whose succedents are `hist`.
        The premise stays on that segment exactly when its antecedent does."""
        ante, succ = seq.antecedent, seq.succedent
        if succ.left not in ante:
            return Sequent(self.grow(ante, succ.left), succ.right), frozenset()
        if succ.right in hist:
            return None
        return Sequent(ante, succ.right), hist

    def run(self) -> Derivation | None:
        """Search the goal's root sequent; a proof found is certified."""
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))
        root = Sequent(frozenset(), self.goal)
        proof = self.expand(root, frozenset(), self.saturator)
        if proof is not None:
            certify(proof, self.goal)
        return proof

    def expand(self, seq: Sequent, history: frozenset[Formula], sat: Saturator):
        """A proof of `seq`, or None.  `history` holds the succedents of
        the ancestors with the antecedent of `seq`; `sat` holds the
        saturation state of the branch below `seq`."""
        self.tick()
        if is_axiom(seq):
            return Derivation(seq)
        ante, succ = seq.antecedent, seq.succedent
        if succ in self.failed.get(ante, ()) and not self.provable(seq, sat):
            return None
        result = self._expand_inner(seq, history | {succ}, sat.extend(seq))
        if result is None:
            self.failed.setdefault(ante, set()).add(succ)
            if not history:
                self.table.setdefault(ante, {})[succ] = False
        else:
            self.table.setdefault(ante, {})[succ] = True
        return result

    def _expand_inner(self, seq, hist, sat) -> Derivation | None:
        # identity saturation first, built iteratively (chains can be long)
        chain: list[tuple[Sequent, RuleInstance]] = []
        for conclusion, inst in sat.saturate():
            chain.append((conclusion, inst))
            self.tick()
        current = sat.sequent
        if chain:
            hist = frozenset((current.succedent,))  # each step grows the antecedent
        if is_axiom(current):
            result = Derivation(current)
        else:
            result = self._tail(current, hist, sat)
        if result is None:
            return None
        for conclusion, inst in reversed(chain):
            result = Derivation(conclusion, inst, (result,))
        return result

    def _tail(self, seq, hist, sat) -> Derivation | None:
        """R-> first, then the L-> alternatives; `seq` is saturated."""
        ante, succ = seq.antecedent, seq.succedent
        if isinstance(succ, Imp):
            step = self.r_imp_premise(seq, hist)
            if step is not None:
                child = self.expand(*step, sat)
                if child is not None:
                    return Derivation(seq, RuleInstance(R_IMP), (child,))
                self.stats.backtracks += 1
        for f in self.implications(ante):
            if f.left in hist:
                continue  # the left premise repeats a sequent of the segment
            lchild = self.expand(Sequent(ante, f.left), hist, sat)
            if lchild is None:
                self.stats.backtracks += 1
                continue
            rchild = self.expand(Sequent(self.grow(ante, f.right), succ), frozenset(), sat)
            if rchild is None:
                self.stats.backtracks += 1
                continue
            return Derivation(seq, RuleInstance(L_IMP, principal=f), (lchild, rchild))
        return None

    # -- provability table ----------------------------------------------------

    def provable(self, seq: Sequent, sat: Saturator) -> bool:
        """Whether `seq` is derivable, on any branch.  `sat` is a saturator
        positioned at a sequent whose antecedent `seq`'s contains."""
        answers = self.table.setdefault(seq.antecedent, {})
        answer = answers.get(seq.succedent)
        if answer is None:
            sat = sat.extend(seq)
            for _ in sat.saturate():
                self.tick()
            if is_axiom(sat.sequent):
                answer = True
            elif sat.sequent is not seq:  # saturation grew the antecedent
                answer = self.provable(sat.sequent, sat)
            else:
                answer = self._fixpoint(seq.antecedent, seq.succedent, sat)
            answers[seq.succedent] = answer
        return answer

    def _fixpoint(self, ante: frozenset[Formula], goal: Formula, sat: Saturator) -> bool:
        """Decide `ante ⊢ goal` for a saturated, non-axiomatic `ante`: run
        the least fixpoint over `ante`'s goals until `goal` is proved or
        none is left to evaluate, when every goal not proved is unprovable.
        A later query resumes it.  A goal is re-evaluated when a goal it
        waits on is proved.  In guided mode too, `ante` is saturated for
        every goal: each is a succedent `ante` was saturated for, or a
        subformula of one or of `ante`, which admits no new instance."""
        answers = self.table[ante]
        queue, waiting = self._open.setdefault(ante, ([], {}))
        if goal not in waiting:
            waiting[goal] = []
            queue.append(goal)
        while queue:
            d = queue.pop()
            if answers.get(d) is None and not self._clauses(ante, d, sat, queue, waiting):
                continue
            answers[d] = True
            queue.extend(waiting[d])
            waiting[d] = []
            if d == goal:
                return True
        del self._open[ante]
        for d in waiting:
            answers.setdefault(d, False)
        return False

    def _clauses(self, ante, goal, sat, queue, waiting) -> bool:
        """One evaluation of `goal`'s clauses in `ante`'s fixpoint.  A goal
        of `ante` still undecided is queued, and `goal` waits on it; every
        other premise has a larger antecedent and is asked of `provable`."""
        self.tick()
        if goal in ante:
            return True
        answers = self.table[ante]

        def proved(x: Formula) -> bool:
            answer = answers.get(x)
            if answer is None:
                if x not in waiting:
                    waiting[x] = []
                    queue.append(x)
                waiting[x].append(goal)
            return answer is True

        if isinstance(goal, Imp):
            if goal.left not in ante:
                if self.provable(Sequent(self.grow(ante, goal.left), goal.right), sat):
                    return True
            elif proved(goal.right):
                return True
        for f in self.implications(ante):
            if proved(f.left):
                if self.provable(Sequent(self.grow(ante, f.right), goal), sat):
                    return True
        return False


def certify(proof: Derivation, goal: Formula) -> None:
    """Raise unless `proof` passes the independent checker as a proof of
    `goal` and keeps the restricted-derivation invariants.  Explicit raises,
    not asserts, so `python -O` keeps the check."""
    result = check_proof(proof, Sequent(frozenset(), goal))
    if not result.ok:
        raise CertificationError(f"prover produced a tree the checker rejects: {result.error}")
    assert_restricted_derivation(proof, goal)


def prove(phi: Formula, limits: Limits | Budget | None = None) -> Verdict:
    """Decide provability of the sequent with empty antecedent and
    succedent `phi`.  Proved verdicts carry a derivation that passes the
    independent checker; NotProved means the whole restricted search space
    was exhausted.  `countermodel.decide` also builds the refuting model."""
    search = _ProofSearch(phi, limits or Limits())
    proof = search.run()
    return Verdict(proof is not None, proof, search.stats)
