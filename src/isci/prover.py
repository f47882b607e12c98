"""Backward proof search by a provability table.

The table decides each sequent by the rules' priorities: axioms close it,
the identity rules saturate it, then R-> applies when the succedent is an
implication and L-> to the antecedent implications.  For each sequent it
proves, the table keeps the clause that proved it, and the proof is read
off those clauses, with no second search and no backtracking.  The
table runs on one explicit stack, not by recursion, so it never changes
the interpreter's recursion limit.  The proof is pruned as it is read:
of the stored saturation chains, `write` keeps only the identity steps
something above reads (`calculus.prune`).  Together with the
extended-subformula bound on identity rules, antecedents that only grow
make the space finite.

Identity saturation is guided by the sequent: reflexive equations are
introduced only for formulas that occur inside the sequent, and a
composition of two antecedent equations is kept only when both sides of
the composed equation occur inside the sequent.  Saturation then touches
just the identities that can interact with the goal.  It does not take
in the whole extended-subformula set, so an unprovable root alone proves
nothing: `countermodel.decide` reads a countermodel off the provability
table and validates that model before it reports a refutation.

Requiring the composed equation itself to occur inside the sequent is
too strict: it still proves the congruence axioms
(p == q) -> (r == s) -> ((p -> r) == (q -> s)) and its == twin, but
leaves every depth-2 congruence instance p == q -> C[p] == C[q], such
as p == q -> (p -> (p -> r)) == (p -> (q -> r)), unproved, although
these are theorems by construction.  Keeping a composition when either
side occurs is too loose: the antecedent snowballs, and the congruence
axioms need 848 nodes instead of 418.

Each branch keeps one `Saturator`, which never rescans all pairs of
equations: it builds a composition only once its two equations and its
two sides all occur, and indexes find it when the last of the four
arrives.  It chooses what a rescan would, so the search saturates each
sequent once and stores the chain, as rule instances and the formulas
each added, for the provability table, the writer and the countermodel
walk to read; `conclusions` rebuilds a chain's sequents where a walk
needs them.
"""

from __future__ import annotations

import heapq
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
    RULE_PRIORITY,
    Derivation,
    RuleInstance,
    Sequent,
    added,
    check_proof,
    fresh,
    is_axiom,
    prune,
)
from .formulas import (
    BOT,
    Formula,
    Id,
    Imp,
    in_extended_subformulas,
    parts_first,
    solve,
    sort_key,
    subformulas,
)
from .invariants import assert_restricted_derivation

if TYPE_CHECKING:
    from .countermodel import CounterModelBundle


@dataclass(frozen=True, slots=True)
class Limits:
    max_nodes: int = 1_000_000
    timeout: float = 30.0

    def start(self) -> "Budget":
        return Budget(self)


@dataclass
class SearchStats:
    nodes: int = 0


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

    def counter(self, stats: SearchStats, phase: str, stage: str | None = None):
        """The `tick` of a phase: it counts one node in the phase's own
        `stats`, then checks the node cap and the deadline.  The hot loops
        call it directly, so it is one call per node."""
        cap, deadline = self.limits.max_nodes, self.deadline

        def tick() -> None:
            stats.nodes += 1
            if stats.nodes > cap:
                raise ResourceExhausted(f"node cap {cap} hit in {phase}")
            if time.monotonic() >= deadline:
                raise self._timeout(phase, stage)

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

    Holds the branch's antecedent, a set each step grows by the formulas
    its instance adds, and every identity instance that may still apply,
    on one heap keyed by the canonical instance order (L==1, then L==2,
    then L==3, then the principals, then the op): a key built from the
    formulas' `key` slots, equal to the instance's `order_key`.  `extend`
    hands a copy to a premise and takes the premise's new formulas and
    succedent in at once; a step takes in only what it adds, each new
    formula top-down to the parts already held, and the sequent is
    frozen when asked for, once per chain at its end.

    Entries wait on the heap unbuilt: an L==1 as its formula and the
    reflexive equation, queued within the bound and the closure; an L==2
    as its equation and splits, queued unless both are held; an L==3 as
    its equations, op and sides.  A composition (a op b) == (c op d) of
    a == c and b == d is queued once its four parts occur, the equations
    in the antecedent and the sides in the sequent: indexes of both find
    it when the last part arrives, and a side only the succedent's
    material supplies serves that succedent alone.  `identity_instance`
    admits the entry on top of the heap: only then is its rule instance
    built (for an L==3, its equation and closure test too), and the
    admitted entry replaces it on top.  The instances chosen are exactly
    those a full rescan of each sequent would choose.  One heap holds
    every instance, the succedent's sides' too: the succedent changes
    only at `extend`, and a saturator extended is fresh or at its
    fixpoint, where `identity_instance` has popped the heap empty, so
    only the indexes of the succedent's sides are reset.
    """

    def __init__(self, goal: Formula):
        self.goal = goal
        self.bound = goal.c
        self._sequent: Sequent | None = None  # the current sequent, once frozen
        self._ante: set[Formula] = set()  # its antecedent: the formulas taken in
        self._succ: Formula | None = None  # its succedent, which the _succ_ fields serve
        # heap entries are (order key, 0, instance, formulas its premise adds)
        # once admitted, stale once those are all held; before, (order key, 1,
        # principal, formulas it adds) for an L==1 or L==2, (order key, 1, e1,
        # e2, op, x, y) for an L==3; the 0 orders an instance before a duplicate
        self._heap: list = []
        self._sub: set[Formula] = set()  # sub_closure(self._ante)
        # sides: compound members of _sub by (connective, left or right part)
        self._left: dict[tuple, tuple[Formula, ...]] = {}
        self._right: dict[tuple, tuple[Formula, ...]] = {}
        # the antecedent's equations by (left, right), by left and by right
        self._eqs: dict[tuple[Formula, Formula], Id] = {}
        self._eq_left, self._eq_right = {}, {}
        self._succ_left, self._succ_right = {}, {}  # the succedent's sides outside _sub

    @property
    def sequent(self) -> Sequent:
        """The current sequent, frozen when first asked for after a step."""
        if self._sequent is None:
            self._sequent = Sequent(frozenset(self._ante), self._succ)
        return self._sequent

    def extend(self, seq: Sequent) -> "Saturator":
        """A copy positioned at `seq`, whose antecedent contains this one's,
        with `seq`'s new antecedent formulas and its succedent taken in."""
        child = Saturator.__new__(Saturator)
        child.__dict__ = self.__dict__.copy()
        child._sequent = seq
        child._ante = set(seq.antecedent)
        child._sub = set(self._sub)
        child._left, child._right = dict(self._left), dict(self._right)
        child._eqs = dict(self._eqs)
        child._eq_left, child._eq_right = dict(self._eq_left), dict(self._eq_right)
        child._heap = list(self._heap)
        moved = seq.succedent is not self._succ
        if moved:
            child._succ, child._succ_left, child._succ_right = seq.succedent, {}, {}
        for f in seq.antecedent - self._ante:
            child._take(f)
        if moved:
            for g in subformulas(child._succ):
                if g not in child._sub:
                    child._enter(g, child._succ_left, child._succ_right)
        return child

    def saturate(self) -> Iterator[tuple[RuleInstance, tuple[Formula, ...]]]:
        """Apply identity instances until the fixpoint or an axiom, yielding
        each instance applied with the formulas it added."""
        ante = self._ante
        while self._succ not in ante and BOT not in ante:
            inst = identity_instance(self)
            if inst is None:
                return
            # `identity_instance` leaves the instance's entry on top; a
            # chooser patched in for it, as tests do, may not
            top = self._heap[0] if self._heap else None
            adds = top[3] if top is not None and top[2] is inst else added(None, inst)
            new = tuple(f for f in adds if f not in ante)
            ante.update(new)
            self._sequent = None
            for f in new:
                self._take(f)
            yield inst, new

    def _take(self, f: Formula) -> None:
        """Take `f`, new to the antecedent, in: material, L==2, compositions."""
        if f not in self._sub:
            self._hold(f)
        if type(f) is Id:
            splits = (Imp(f.left, f.right), Imp(f.right, f.left))
            if splits[0] not in self._ante or splits[1] not in self._ante:
                heapq.heappush(self._heap, ((_L_ID2, f.key, (), ""), 1, f, splits))
            self._take_equation(f)

    def _hold(self, g: Formula) -> None:
        """Add `g` and its parts not yet in `_sub` to it and its indexes,
        parts first."""
        for h in parts_first(g, self._sub):
            self._enter(h, self._left, self._right)

    def _reflexive(self, x: Formula) -> None:
        if 2 * x.c + 1 > self.bound:
            return  # x == x is neither in sub(goal) nor in the closure
        e = Id(x, x)
        if e not in self._ante and in_extended_subformulas(e, self.goal):
            heapq.heappush(self._heap, ((_L_ID1, x.key, (), ""), 1, x, (e,)))

    # -- a composition is found once its four parts occur --------------------

    def _enter(self, g: Formula, left: dict, right: dict) -> None:
        """Queue what `g`, new to the sequent's material, admits:
        its reflexive equation and, if `g` can be a side within the bound
        (the other side is compound too), the compositions it completes.
        `left` and `right` index it by connective and part."""
        self._reflexive(g)
        if g.c + 2 > self.bound or not isinstance(g, (Imp, Id)):
            return
        kind, op = type(g), OP_IMP if isinstance(g, Imp) else OP_ID
        left[kind, g.left] = left.get((kind, g.left), ()) + (g,)
        right[kind, g.right] = right.get((kind, g.right), ()) + (g,)
        # g = a op b on the left: equations a == c and b == d, right side c op d
        for e1 in self._eq_left.get(g.left, ()):
            for y in self._by_left((kind, e1.right)):
                e2 = self._eqs.get((g.right, y.right))
                if e2 is not None:
                    self._queue(e1, e2, op, g, y)
        # g = c op d on the right: left side a op b
        for e1 in self._eq_right.get(g.left, ()):
            for x in self._by_left((kind, e1.left)):
                e2 = self._eqs.get((x.right, g.right))
                if e2 is not None and x is not g:
                    self._queue(e1, e2, op, x, g)

    def _take_equation(self, f: Id) -> None:
        """Index `f`, new to the antecedent; queue the compositions it completes."""
        self._eqs[f.left, f.right] = f
        self._eq_left[f.left] = self._eq_left.get(f.left, ()) + (f,)
        self._eq_right[f.right] = self._eq_right.get(f.right, ()) + (f,)
        for kind, op in ((Imp, OP_IMP), (Id, OP_ID)):
            # f = a == c first: sides a op b and c op d, partner b == d
            ys = self._by_left((kind, f.right))
            for x in self._by_left((kind, f.left)) if ys else ():
                for y in ys:
                    e2 = self._eqs.get((x.right, y.right))
                    if e2 is not None:
                        self._queue(f, e2, op, x, y)
            # f = b == d second: partner a == c
            ys = self._by_right((kind, f.right))
            for x in self._by_right((kind, f.left)) if ys else ():
                for y in ys:
                    e1 = self._eqs.get((x.left, y.left))
                    if e1 is not None and e1 is not f:
                        self._queue(e1, f, op, x, y)

    def _by_left(self, key: tuple) -> tuple[Formula, ...]:
        """The sides with connective and left part `key`, in `_sub` or the
        succedent's material; `_by_right` likewise by right part."""
        held, theirs = self._left.get(key, ()), self._succ_left.get(key)
        return held + theirs if theirs else held

    def _by_right(self, key: tuple) -> tuple[Formula, ...]:
        held, theirs = self._right.get(key, ()), self._succ_right.get(key)
        return held + theirs if theirs else held

    def _queue(self, e1: Id, e2: Id, op: str, x: Formula, y: Formula) -> None:
        """Queue the composition x == y of `e1` and `e2` if the bound admits
        it, under its instance's `order_key`; `identity_instance` admits it."""
        if x.c + y.c < self.bound:
            heapq.heappush(self._heap, ((_L_ID3, e1.key, e2.key, op), 1, e1, e2, op, x, y))


# the first entry of each identity rule's order key
_L_ID1, _L_ID2, _L_ID3 = (RULE_PRIORITY[r] for r in (L_ID1, L_ID2, L_ID3))


def identity_instance(sat: Saturator) -> RuleInstance | None:
    """Canonically least identity-rule instance applicable to the
    saturator's sequent, or None at the saturation fixpoint.  Stale
    entries are popped; the instance returned is built from the entry on
    top of the heap, which it replaces as an admitted entry.

    A composition is kept when both of its sides occur inside the
    sequent, its equation is new and in the goal's extended subformulas:
    an identity between mentioned formulas can feed an axiom or an
    implication split, one reaching outside them only feeds further
    compositions."""
    ante, heap = sat._ante, sat._heap
    while heap:
        entry = heap[0]
        key = entry[0]
        if entry[1] and key[0] == _L_ID3:
            _, _, e1, e2, op, x, y = entry
            comp = Id(x, y)
            if comp not in ante and in_extended_subformulas(comp, sat.goal):
                inst = RuleInstance(L_ID3, principal=e1, principal2=e2, op=op)
                heap[0] = (key, 0, inst, (comp,))  # it orders before the entry it replaces
                return inst
        elif not all(f in ante for f in entry[3]):
            if not entry[1]:
                return entry[2]
            inst = RuleInstance(L_ID1 if key[0] == _L_ID1 else L_ID2, principal=entry[2])
            heap[0] = (key, 0, inst, entry[3])
            return inst
        heapq.heappop(heap)
    return None


class _ProofSearch:
    """Backward proof search by a provability table, which decides every
    sequent and keeps the clause that proved each provable one.

    Provability does not depend on the branch.  The provable succedents of
    a saturated antecedent Γ form the least fixpoint of Γ's R-> and L->
    clauses (Horn clauses, as in Dowling and Gallier, 1984), whose other
    premises have larger antecedents.  `provable` computes it lazily, on
    one explicit stack, in a table keyed by antecedent and then succedent,
    so a refuted goal fails at its root.  A sequent the fixpoint proves
    keeps the clause that fired, rule instance and premises: R-> first,
    then the L-> alternatives in canonical order, the first whose premises
    were proved when it was last evaluated.  `write` reads the proof off
    these clauses and the stored saturation chains; a premise with its
    conclusion's antecedent was proved before it, so no branch repeats a
    sequent.  Every saturation step and clause evaluation is a node, and
    the node cap bounds them all.

    The tables and the budget outlive `run`: after a refuted root the
    countermodel builder asks the same object which premise of each L->
    its branch follows, whether a spawned sequent is provable, and each
    sequent's saturation chain, which `saturated` stored.

    The walk blocks a rule application exactly when a premise would repeat
    a sequent on its branch.  Antecedents only grow upward, so a premise
    can repeat only an ancestor with the same antecedent (the loop check of
    Heuerding, Seyfried and Zimmermann, TABLEAUX 1996): the walk's history
    is the succedents of that segment, which restarts whenever the
    antecedent grows.  For L-> on a -> b, the right premise Γ, b ⊢ C
    repeats a sequent exactly when b is in Γ, and then it is the conclusion
    itself, so `implications` leaves a -> b out.
    """

    def __init__(self, goal: Formula, limits: Limits | Budget):
        self.goal = goal
        self.budget = limits.start()
        self.stats = SearchStats()
        self.tick = self.budget.counter(self.stats, "the proof search")
        self.saturator = Saturator(goal)  # the goal's, which every branch extends
        # antecedent -> succedent -> False, or True at an axiom or a chain
        # that grew the antecedent, else the clause (rule instance,
        # premises) that proved it; only decided sequents are in it
        self.table: dict[frozenset[Formula], dict[Formula, bool | tuple]] = {}
        # saturated antecedent -> (goals to evaluate, goal -> its waiters)
        self._open: dict[frozenset[Formula], tuple[list[Formula], dict]] = {}
        self._implications: dict[frozenset[Formula], tuple[Imp, ...]] = {}
        self._grown: dict[frozenset[Formula], dict[Formula, frozenset[Formula]]] = {}
        # antecedent -> succedent -> (saturation chain, saturator at its end);
        # a chain holds (instance, formulas it added) pairs, not sequents
        self._saturated: dict[frozenset[Formula], dict[Formula, tuple[list, Saturator]]] = {}

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
        """Decide the goal's root sequent; the proof of a provable one is
        written from the table and certified."""
        root = Sequent(frozenset(), self.goal)
        if not self.provable(root, self.saturator):
            return None
        proof = self.write(root)
        certify(proof, self.goal)
        return proof

    def write(self, seq: Sequent) -> Derivation:
        """The proof of the provable `seq` the tables hold, pruned as it is
        read (`calculus.prune`): above each sequent an axiom leaf, the clause
        that proved it, or its stored saturation chain below the proof of
        the chain's end.  The identity steps nothing above reads are left
        out, so it is `calculus.relevant` of the whole proof the tables
        hold, without building that proof.  It evaluates no clause, counts
        no node and saturates nothing."""

        def shape(s: Sequent):
            if is_axiom(s):
                return s, (), ()
            reason = self.table[s.antecedent][s.succedent]
            if reason is not True:
                inst, premises = reason
                return s, ((inst, fresh(s, inst)),), premises
            chain, sat = self._saturated[s.antecedent][s.succedent]  # proved at its end
            return s, chain, (sat.sequent,)

        return prune(seq, shape)

    def saturated(self, seq: Sequent, sat: Saturator) -> tuple[list, Saturator]:
        """The saturation chain of `seq`, as (instance, formulas it added)
        pairs, and a saturator at its end; `sat` is at a sequent whose
        antecedent `seq`'s contains.  A chain depends on its sequent alone,
        so it is built once per call, a node per step, and stored for later
        calls; `conclusions` gives its sequents."""
        by_succ = self._saturated.setdefault(seq.antecedent, {})
        found = by_succ.get(seq.succedent)
        if found is None:
            sat = sat.extend(seq)
            chain = []
            for step in sat.saturate():
                chain.append(step)
                self.tick()
            found = by_succ[seq.succedent] = (chain, sat)
            if chain and not is_axiom(sat.sequent):  # the end is at its fixpoint
                end = sat.sequent
                self._saturated.setdefault(end.antecedent, {}).setdefault(end.succedent, ([], sat))
        return found

    # -- provability table ----------------------------------------------------

    def provable(self, seq: Sequent, sat: Saturator) -> bool:
        """Whether `seq` is derivable, on any branch.  `sat` is a saturator
        positioned at a sequent whose antecedent `seq`'s contains.  The
        table answers, or the `_decide` generators, `solve`d on one
        explicit stack, so no clause is evaluated by recursion."""
        return solve((seq, sat), self._answer, self._decide) is not False

    def _answer(self, question: tuple[Sequent, Saturator]) -> tuple | bool | None:
        """The table's answer for the question's sequent, which is True for
        an axiom, or None if it is undecided."""
        seq = question[0]
        answers = self.table.setdefault(seq.antecedent, {})
        answer = answers.get(seq.succedent)
        if answer is None and is_axiom(seq):
            answer = answers[seq.succedent] = True
        return answer

    def _decide(self, question: tuple[Sequent, Saturator]):
        """Decide `seq`, absent from the table and no axiom, store its
        answer and return it.  It yields each premise with a larger
        antecedent, with a saturator, and is sent the premise's answer."""
        seq, sat = question
        chain, sat = self.saturated(seq, sat)
        if is_axiom(sat.sequent):
            answer = True
        elif chain:  # saturation grew the antecedent
            answer = (yield sat.sequent, sat) is not False
        else:
            answer = yield from self._fixpoint(seq.antecedent, seq.succedent, sat)
        self.table[seq.antecedent][seq.succedent] = answer
        return answer

    def _fixpoint(self, ante: frozenset[Formula], goal: Formula, sat: Saturator):
        """Decide `ante ⊢ goal` for a saturated, non-axiomatic `ante`: run
        the least fixpoint over `ante`'s goals until `goal` is proved or
        none is left to evaluate, when every goal not proved is unprovable.
        Each goal proved gets the clause that proved it, and `goal`'s is
        returned; False means unprovable.  It yields what `_clauses`
        yields.  A later query resumes it.  A goal is re-evaluated when a
        goal it waits on is proved.  `ante` is saturated for every goal:
        each is a succedent `ante` was saturated for, or a subformula of one
        or of `ante`, which admits no new instance."""
        answers = self.table[ante]
        queue, waiting = self._open.setdefault(ante, ([], {}))
        if goal not in waiting:
            waiting[goal] = []
            queue.append(goal)
        while queue:
            d = queue.pop()
            reason = answers.get(d) or (yield from self._clauses(ante, d, sat, queue, waiting))
            if not reason:
                continue
            answers[d] = reason
            queue.extend(waiting[d])
            waiting[d] = []
            if d == goal:
                return reason
        del self._open[ante]
        for d in waiting:
            answers.setdefault(d, False)
        return False

    def _clauses(self, ante, goal, sat, queue, waiting):
        """One evaluation of `goal`'s clauses in `ante`'s fixpoint: the
        first that fires, as (rule instance, premises), True if `goal` is in
        `ante`, else None.  A goal of `ante` still undecided is queued, and
        `goal` waits on it; every other premise has a larger antecedent, and
        it is yielded with `sat` for `provable` to answer."""
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
            return bool(answer)

        if isinstance(goal, Imp):
            if goal.left not in ante:
                premise = Sequent(self.grow(ante, goal.left), goal.right)
                if (yield premise, sat) is not False:
                    return RuleInstance(R_IMP), (premise,)
            elif proved(goal.right):
                return RuleInstance(R_IMP), (Sequent(ante, goal.right),)
        for f in self.implications(ante):
            if proved(f.left):
                right = Sequent(self.grow(ante, f.right), goal)
                if (yield right, sat) is not False:
                    return RuleInstance(L_IMP, principal=f), (Sequent(ante, f.left), right)
        return None


def conclusions(start: Sequent, chain: list) -> Iterator[tuple[Sequent, RuleInstance]]:
    """The steps of a stored saturation chain from its sequent `start`, as
    (conclusion, instance) pairs: each conclusion is the last one with the
    formulas the last step added.  The last step's premise is the
    saturator's end sequent, which `saturated` returns."""
    seq, new = start, ()
    for inst, adds in chain:
        if new:
            seq = Sequent(seq.antecedent.union(new), seq.succedent)
        yield seq, inst
        new = adds


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
    succedent `phi`.  Proved verdicts carry the derivation the table's
    clauses give, pruned as it is written, which passes the independent
    checker; NotProved means the table found the root unprovable.
    `countermodel.decide` also builds the refuting model."""
    search = _ProofSearch(phi, limits or Limits())
    proof = search.run()
    return Verdict(proof is not None, proof, search.stats)
