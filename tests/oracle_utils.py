"""Shared helpers: brute-force oracles and formula generators.

`naive_extended_subformulas` recomputes the extended-subformula closure by
scanning a complete universe of candidate formulas and justifying each one
directly against the defining clauses; it shares nothing with the
production worklist, so the two can cross-check each other.
`ref_format_formula` prints a formula by recursion, the reference for the
program's cached formatter; `ref_parse_formula` and `ref_parse_sequent`
read text one character at a time, the reference for the program's
compiled scanner.  `ref_labels` computes a world's congruence
naively, relabelling classes until no pair of compound terms is left to
merge, for the reference forcing and checks.
`ref_bounded_countermodel_search` is the block search of the brute-force
oracle with one fresh evaluator per assignment vector.
`ref_expand` is the proof search with no provability table, the
reference for the verdicts and proofs the table gives; `ref_run` runs it
from the root.  `written_proof` is a proof as the table holds it, before
`relevant` drops the identity steps nothing reads, which
`_ProofSearch.write` leaves out as it reads the table.
`random_corpus` draws the random samples ROADMAP.md quotes.
`derivation_from_doc` rebuilds the `Derivation` a proof document
describes, and `two_pass_check_proof` checks a tree node by node, the last
child first; `reference_check_proof` runs the two as `isci check-proof`
once did, for comparison with its one replay.  `same_derivation` compares
two trees node by node.
"""

from __future__ import annotations

import contextlib
import random
import sys
from dataclasses import dataclass

from isci.calculus import (
    L_ID1,
    L_ID2,
    L_ID3,
    L_IMP,
    OP_ID,
    OP_IMP,
    R_IMP,
    Derivation,
    InapplicableRuleError,
    ProofCheckResult,
    RuleInstance,
    Sequent,
    apply_rule,
    compose_equations,
    is_axiom,
    relevant,
)
from isci.formulas import (
    BOT,
    Formula,
    Id,
    Imp,
    Var,
    complexity,
    in_extended_subformulas,
    sort_key,
    sub_closure,
    subformulas,
    variables,
)
from isci.parser import ParseError, parse_sequent
from isci.printer import format_sequent
from isci.prover import Limits, Saturator, _ProofSearch, certify, conclusions, identity_instance
from isci.serialize import DocumentError, _field, _FormulaTable, _read_step, formula_from_doc
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


RANDOM_ATOMS = [Var("p"), Var("q"), Var("r"), BOT]


def random_formula(rng: random.Random, c: int) -> Formula:
    """A random formula of complexity `c` over p, q, r and #."""
    if c == 0:
        return rng.choice(RANDOM_ATOMS)
    lc = rng.randint(0, c - 1)
    left, right = random_formula(rng, lc), random_formula(rng, c - 1 - lc)
    return Imp(left, right) if rng.random() < 0.5 else Id(left, right)


def random_corpus(seed: int, n: int, lo: int, hi: int) -> list[Formula]:
    """`Random(seed)`, `n` formulas of complexity `lo` to `hi`: the samples
    ROADMAP.md quotes."""
    rng = random.Random(seed)
    return [random_formula(rng, rng.randint(lo, hi)) for _ in range(n)]


def ref_format_formula(f: Formula, eq_side: bool = False, imp_left: bool = False) -> str:
    """The recursive printer, with the concrete syntax's minimal
    parentheses: the reference for `printer.formatter`."""
    if isinstance(f, Var):
        return f.name
    if f is BOT:
        return "#"
    if isinstance(f, Imp):
        body = f"{ref_format_formula(f.left, imp_left=True)} -> {ref_format_formula(f.right)}"
        return f"({body})" if eq_side or imp_left else body
    if isinstance(f, Id):
        body = f"{ref_format_formula(f.left, eq_side=True)} == {ref_format_formula(f.right, eq_side=True)}"
        return f"({body})" if eq_side else body
    raise TypeError(f"not a formula: {f!r}")


# --- reference reader -------------------------------------------------------
# The formula reader `isci.parser` once had: a tokenizer that walks the text
# one character at a time, keeping each token's line and column, and a
# descent through `peek` and `take`.  The differential tests compare its
# formulas, sequents and errors with the compiled scanner's.


@dataclass(frozen=True, slots=True)
class _RefToken:
    kind: str  # '->', '==', '|-', '(', ')', ',', '~', 'bot', 'ident', 'end'
    text: str
    line: int
    col: int


_REF_PUNCT = {
    "->": "->",
    "==": "==",
    "|-": "|-",
    "⊃": "->",
    "≡": "==",
    "⇒": "|-",
    "⊥": "bot",
    "#": "bot",
    "(": "(",
    ")": ")",
    ",": ",",
    "~": "~",
}


def _ref_tokenize(text: str) -> list[_RefToken]:
    tokens: list[_RefToken] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        two = text[i : i + 2]
        if two in ("->", "==", "|-"):
            tokens.append(_RefToken(_REF_PUNCT[two], two, line, col))
            i += 2
            col += 2
            continue
        if ch in _REF_PUNCT:
            tokens.append(_RefToken(_REF_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "bot" if word == "bot" else "ident"
            tokens.append(_RefToken(kind, word, line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_RefToken("end", "", line, col))
    return tokens


class _RefParser:
    def __init__(self, text: str):
        self.tokens = _ref_tokenize(text)
        self.pos = 0

    def peek(self) -> _RefToken:
        return self.tokens[self.pos]

    def take(self) -> _RefToken:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _RefToken:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.line, tok.col)
        return self.take()

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def formula(self) -> Formula:
        left = self.equality()
        if self.peek().kind == "->":
            self.take()
            return Imp(left, self.formula())
        return left

    def equality(self) -> Formula:
        left = self.unary()
        if self.peek().kind == "==":
            self.take()
            right = self.unary()
            if self.peek().kind == "==":
                self.fail("'==' is not associative; use parentheses")
            return Id(left, right)
        return left

    def unary(self) -> Formula:
        if self.peek().kind == "~":
            self.take()
            return Imp(self.unary(), BOT)
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "(":
            self.take()
            inner = self.formula()
            self.expect(")", "')'")
            return inner
        if tok.kind == "bot":
            self.take()
            return BOT
        if tok.kind == "ident":
            self.take()
            return Var(tok.text)
        self.fail("expected a formula")

    def sequent(self) -> Sequent:
        antecedent: list[Formula] = []
        if self.peek().kind != "|-":
            antecedent.append(self.formula())
            while self.peek().kind == ",":
                self.take()
                antecedent.append(self.formula())
        self.expect("|-", "'|-'")
        if self.peek().kind == "end":
            self.fail("succedent required")
        succedent = self.formula()
        return Sequent(frozenset(antecedent), succedent)

    def finish(self):
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r} after formula", tok.line, tok.col)


def _ref_parse(text: str, read):
    p = _RefParser(text)
    try:
        result = read(p)
    except RecursionError:
        tok = p.peek()
        raise ParseError("formula nested too deeply", tok.line, tok.col) from None
    p.finish()
    return result


def ref_parse_formula(text: str) -> Formula:
    return _ref_parse(text, _RefParser.formula)


def ref_parse_sequent(text: str) -> Sequent:
    return _ref_parse(text, _RefParser.sequent)


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
# Per-world recursive evaluation with a naive congruence rebuilt for every
# world and query, and pair scans, where `isci.semantics` and
# `isci.countermodel` keep truth-set bitmasks and incremental congruences;
# the differential tests compare the two.


def ref_successors(model, w: str) -> list[str]:
    return [v for v in model.worlds if (w, v) in model.order]


def ref_labels(model, w: str, extra) -> dict[Formula, int]:
    """A class label per term of the subformulas of `extra` and of the
    generators at `w` (the equations listed 1 at `w` or at a world below
    it), under the least congruence relating each generator's sides:
    merged pair by pair, relabelling every member, and re-scanned for
    congruent pairs of compound terms until nothing changes."""
    generators = [
        f
        for (f, u), v in model.valuation.items()
        if v and isinstance(f, Id) and (u == w or (u, w) in model.order)
    ]
    terms = sorted(sub_closure(generators + list(extra)), key=sort_key)
    label = {t: i for i, t in enumerate(terms)}

    def join(x, y) -> bool:
        old, new = label[x], label[y]
        if old == new:
            return False
        for t in terms:
            if label[t] == old:
                label[t] = new
        return True

    for e in generators:
        join(e.left, e.right)
    compounds = [t for t in terms if isinstance(t, (Imp, Id))]
    changed = True
    while changed:
        changed = False
        for x in compounds:
            for y in compounds:
                if (
                    type(x) is type(y)
                    and label[x.left] == label[y.left]
                    and label[x.right] == label[y.right]
                    and join(x, y)
                ):
                    changed = True
    return label


def ref_value(model, f: Formula, w: str) -> int:
    stored = model.valuation.get((f, w))
    if stored is not None:
        return stored
    if isinstance(f, Id):
        label = ref_labels(model, w, [f])
        return 1 if label[f.left] == label[f.right] else 0
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
    for (f, w), v in sorted(model.valuation.items(), key=lambda r: (sort_key(r[0][0]), r[0][1])):
        if not v and isinstance(f, Id) and w in model.worlds:
            label = ref_labels(model, w, [f])
            if label[f.left] == label[f.right]:
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
    """Congruent formulas of the term graph are forced alike, pair by pair."""
    terms = sorted(sub_closure(list(base) + [f for f, _w in model.valuation]), key=sort_key)
    for w in model.worlds:
        label = ref_labels(model, w, terms)
        for x in terms:
            for y in terms:
                if label[x] == label[y] and ref_forces(model, w, x) != ref_forces(model, w, y):
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


# --- reference saturation ----------------------------------------------------
# The identity-rule choice recomputed from the whole sequent at every step,
# where `isci.prover.Saturator` keeps incremental heaps and indexes.


def rescan_instance(goal, seq):
    """The canonically least identity instance for `seq`, computed from
    scratch by the documented rule: None at an axiom or the fixpoint.
    Reflexive equations are taken over sub(Γ) ∪ sub(C), and compositions
    of pairs of antecedent equations that stay within the bound and the
    closure and whose sides both lie in sub(Γ) ∪ sub(C)."""
    if is_axiom(seq):
        return None
    ante, bound = seq.antecedent, complexity(goal)
    material = sub_closure(ante | {seq.succedent})

    def admitted(e):
        return (
            e not in ante
            and complexity(e) <= bound
            and in_extended_subformulas(e, goal)
            and e.left in material
            and e.right in material
        )

    eqs = [f for f in ante if isinstance(f, Id)]
    found = [RuleInstance(L_ID1, principal=x) for x in material if admitted(Id(x, x))]
    found += [
        RuleInstance(L_ID2, principal=e)
        for e in eqs
        if not {Imp(e.left, e.right), Imp(e.right, e.left)} <= ante
    ]
    cost = {e: complexity(e.left) + complexity(e.right) for e in eqs}
    found += [
        RuleInstance(L_ID3, principal=e1, principal2=e2, op=op)
        for e1 in eqs
        for e2 in eqs
        if cost[e1] + cost[e2] + 3 <= bound  # the composition's complexity
        for op in (OP_IMP, OP_ID)
        if admitted(compose_equations(e1, e2, op))
    ]
    return min(found, key=RuleInstance.order_key, default=None)


def rescan_choice(sat) -> RuleInstance | None:
    """The saturation step `identity_instance` takes, chosen instead by
    `rescan_instance` from the saturator's whole sequent: patched in for
    `prover.identity_instance`, it runs a search with no incremental
    saturation state."""
    return rescan_instance(sat.goal, sat.sequent)


# the identity-instance choosers a search can saturate with: "full"
# rescans the whole sequent at every step, "guided" is the incremental
# guided `Saturator`
CHOOSERS = {"full": rescan_choice, "guided": identity_instance}


# --- reference proof search ---------------------------------------------------
# The depth-first search that wrote proofs before they were read off the
# provability table: R-> first, then the L-> alternatives in canonical
# order, backtracking, with the loop check of the countermodel walk, no
# table to cut an unprovable sequent and nothing written to one.


def ref_expand(search, seq: Sequent, history, sat) -> Derivation | None:
    """A proof of `seq` by the ungated search, or None; `search` supplies
    the node count, the saturation chains and the L-> candidates.
    `history` holds the succedents of the ancestors with `seq`'s
    antecedent, and `sat` the saturation state of the branch below it."""
    search.tick()
    if is_axiom(seq):
        return Derivation(seq)
    chain, sat = search.saturated(seq, sat)
    current = sat.sequent
    hist = frozenset((current.succedent,)) if chain else history | {seq.succedent}
    result = Derivation(current) if is_axiom(current) else _ref_search_tail(search, current, hist, sat)
    if result is None:
        return None
    for conclusion, inst in reversed(list(conclusions(seq, chain))):
        result = Derivation(conclusion, inst, (result,))
    return result


def ref_run(search) -> Derivation | None:
    """`_ProofSearch.run` by `ref_expand`: the goal's proof, pruned by
    `relevant` and certified, or None; a test may replace `run` by it."""
    proof = ref_expand(search, Sequent(frozenset(), search.goal), frozenset(), search.saturator)
    if proof is not None:
        proof = relevant(proof)
        certify(proof, search.goal)
    return proof


def written_proof(phi: Formula, limits: Limits = Limits()) -> Derivation | None:
    """The proof of `phi` that the provability table holds, every
    saturation step in it (`unpruned_proof`); None when `phi` is
    unprovable."""
    search = _ProofSearch(phi, limits)
    root = Sequent(frozenset(), phi)
    if not search.provable(root, search.saturator):
        return None
    with deep_recursion():
        return unpruned_proof(search, root)


@contextlib.contextmanager
def deep_recursion():
    """The recursion limit at least 100,000 while `unpruned_proof`
    recurses, and restored after."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(max(saved, 100_000))
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def unpruned_proof(search, seq: Sequent) -> Derivation:
    """The proof of the provable `seq` read off `search`'s tables by
    recursion, before `relevant` drops the identity steps nothing reads:
    an axiom leaf, the clause that proved `seq`, or its stored saturation
    chain, its sequents given by `conclusions`, above the proof of the
    chain's end.  `_ProofSearch.write` gives its pruned form."""
    if is_axiom(seq):
        return Derivation(seq)
    reason = search.table[seq.antecedent][seq.succedent]
    if reason is not True:
        inst, premises = reason
        return Derivation(seq, inst, tuple(unpruned_proof(search, p) for p in premises))
    chain, sat = search._saturated[seq.antecedent][seq.succedent]
    proof = unpruned_proof(search, sat.sequent)
    for conclusion, inst in reversed(list(conclusions(seq, chain))):
        proof = Derivation(conclusion, inst, (proof,))
    return proof


def _ref_search_tail(search, seq: Sequent, hist, sat) -> Derivation | None:
    ante, succ = seq.antecedent, seq.succedent
    if isinstance(succ, Imp):
        step = search.r_imp_premise(seq, hist)
        if step is not None:
            child = ref_expand(search, *step, sat)
            if child is not None:
                return Derivation(seq, RuleInstance(R_IMP), (child,))
    for f in search.implications(ante):
        if f.left in hist:
            continue
        lchild = ref_expand(search, Sequent(ante, f.left), hist, sat)
        if lchild is None:
            continue
        rchild = ref_expand(search, Sequent(search.grow(ante, f.right), succ), frozenset(), sat)
        if rchild is not None:
            return Derivation(seq, RuleInstance(L_IMP, principal=f), (lchild, rchild))
    return None


# --- reference countermodel builder -------------------------------------------
# The tree builder `isci.countermodel._Builder` walked before: it derives
# the whole tree above a sequent, closing every provable node with a proof
# `ref_expand` finds for it, and reads the leftmost open branch off
# it.  The differential test compares its branches with the walked ones.


def ref_build(search, seq: Sequent) -> Derivation:
    """The whole derivation of `seq`, with `ref_expand` as provability gate
    at every node; the node cap of `search`, the refuted goal's
    `_ProofSearch`, bounds the tree too."""
    return _ref_expand(search, seq, frozenset(), Saturator(search.goal))


def _ref_expand(search, seq: Sequent, history, sat) -> Derivation:
    search.tick()
    if is_axiom(seq):
        return Derivation(seq)
    proof = ref_expand(search, seq, frozenset(), sat)
    if proof is not None:
        return proof
    hist = history | {seq.succedent}
    sat = sat.extend(seq)
    chain = list(sat.saturate())
    if chain:
        hist = frozenset((seq.succedent,))
    result = _ref_tail(search, sat.sequent, hist, sat)
    for conclusion, inst in reversed(list(conclusions(seq, chain))):
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
# The block search of `isci.semantics.bounded_countermodel_search` with a
# fresh evaluator, its congruences rebuilt from the rows, for every vector,
# over every preorder.  The differential test requires the same
# countermodel from both.


def ref_bounded_countermodel_search(phi: Formula, max_worlds: int = 3):
    sub = subformulas(phi)
    blocks = sorted(variables(phi), key=sort_key) + sorted(
        (e for e in sub if isinstance(e, Id) and e.left != e.right),
        key=lambda e: (complexity(e), sort_key(e)),
    )
    for k in range(1, max_worlds + 1):
        worlds = tuple(f"w{i}" for i in range(k))
        for rel in _preorders(k):
            order = frozenset((worlds[a], worlds[b]) for a, b in rel)
            model = KripkeModel(worlds, order, {})
            vectors = []
            for mask in range(2**k):
                vec = tuple(mask >> (k - 1 - i) & 1 for i in range(k))
                if all(vec[a] <= vec[b] for a, b in rel if a != b):
                    vectors.append(vec)
            found = _ref_search_blocks(model, phi, sub, blocks, 0, vectors)
            if found is not None:
                return found
    return None


def _ref_vector_ok(model, f, vec) -> bool:
    if not isinstance(f, Id):
        return True
    ev = Evaluator(model)
    true = sum(v << i for i, v in enumerate(vec))
    if ev.floor(f) & ~true:
        return False
    implied = ev.forces(Imp(f.left, f.right)) & ev.forces(Imp(f.right, f.left))
    return not true & ~implied


def _ref_search_blocks(model, phi, sub, blocks, idx, vectors):
    if idx == len(blocks):
        ev = Evaluator(model)
        bad = _refutes(ev, phi)
        if bad is not None and next(model_failures(ev, sub), None) is None:
            return model.copy(), bad
        return None
    f = blocks[idx]
    for vec in vectors:
        if _ref_vector_ok(model, f, vec):
            for i, w in enumerate(model.worlds):
                model.valuation[(f, w)] = vec[i]
            found = _ref_search_blocks(model, phi, sub, blocks, idx + 1, vectors)
            if found is not None:
                return found
    for w in model.worlds:
        model.valuation.pop((f, w), None)
    return None


# --- reference proof reader and checker --------------------------------------


class ProofShapeError(ValueError):
    """Steps that prove more or fewer premises than their rules have."""


def derivation_from_doc(doc: dict) -> Derivation:
    """The derivation a proof document describes, read in preorder without
    recursion.  The root sequent is parsed, and each distinct principal
    text once.  A node's premises are those `apply_rule` gives, none for a
    step whose rule does not apply, which `two_pass_check_proof` reports."""
    text = _field(doc, "sequent")
    if not isinstance(text, str):
        raise DocumentError(f"sequent must be a string, got {text!r}")
    root = parse_sequent(text)
    steps = doc.get("steps")
    if not isinstance(steps, list):
        raise DocumentError(f"steps must be a list, got {steps!r}")
    table = _FormulaTable()
    read: list[tuple[Sequent | None, RuleInstance | None, int]] = []
    slots: list[Sequent | None] = [root]  # None below an inapplicable rule
    for node in steps:
        if not slots:
            raise ProofShapeError("steps after the proof's last leaf")
        seq = slots.pop()
        rule, arity, _ = _read_step(node, table)
        premises = []
        if rule is not None and seq is not None:
            with contextlib.suppress(InapplicableRuleError):
                premises = apply_rule(seq, rule)
        if seq is not None:
            read.append((seq, rule, len(premises)))
        slots.extend(reversed(premises or [None] * arity))
    if slots:
        raise ProofShapeError("the steps end before the proof does")
    built: list[Derivation] = []  # finished subtrees, a node's first premise on top
    for seq, rule, n in reversed(read):
        children = tuple(built.pop() for _ in range(n))
        built.append(Derivation(seq, rule, children))
    return built[0]


def two_pass_check_proof(d: Derivation, claim: Sequent) -> ProofCheckResult:
    """The root must be `claim`, every inner node's children must be
    exactly the premises `apply_rule` yields, and every leaf must be an
    axiom; the first failure found, visiting the last child first."""
    if d.sequent != claim:
        return ProofCheckResult(
            False, f"root is {format_sequent(d.sequent)}, claim is {format_sequent(claim)}"
        )
    stack = [d]
    while stack:
        node = stack.pop()
        if node.rule is None:
            if node.children:
                return ProofCheckResult(False, f"leaf with children at {format_sequent(node.sequent)}")
            if not is_axiom(node.sequent):
                return ProofCheckResult(False, f"open leaf {format_sequent(node.sequent)}")
            continue
        try:
            premises = apply_rule(node.sequent, node.rule)
        except InapplicableRuleError as exc:
            return ProofCheckResult(
                False, f"{node.rule.rule} not applicable at {format_sequent(node.sequent)}: {exc}"
            )
        if [c.sequent for c in node.children] != premises:
            return ProofCheckResult(False, f"premise mismatch at {format_sequent(node.sequent)} for {node.rule.rule}")
        stack.extend(node.children)
    return ProofCheckResult(True)


def reference_check_proof(doc: dict) -> tuple[int, str, str]:
    """The exit code, output and error output of `isci check-proof` on the
    document `doc`, by `derivation_from_doc` and `two_pass_check_proof`."""
    try:
        try:
            derivation = derivation_from_doc(doc.get("proof", doc))
        except ProofShapeError as exc:
            return 1, f"INVALID PROOF: {exc}\n", ""
        if "formula" in doc:
            claim = Sequent(frozenset(), formula_from_doc(doc["formula"]))
        else:
            claim = derivation.sequent
    except (ParseError, DocumentError) as exc:
        return 2, "", f"input error: {exc}\n"
    result = two_pass_check_proof(derivation, claim)
    if result.ok:
        return 0, "VALID PROOF\n", ""
    return 1, f"INVALID PROOF: {result.error}\n", ""


def same_derivation(a: Derivation, b: Derivation) -> bool:
    """Whether two trees have the same sequent, rule and number of premises
    at every node; without recursion, at any depth."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x.sequent != y.sequent or x.rule != y.rule or len(x.children) != len(y.children):
            return False
        stack.extend(zip(x.children, y.children))
    return True
