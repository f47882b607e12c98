import pytest

from isci.calculus import (
    L_ID1,
    L_ID3,
    R_IMP,
    Derivation,
    InapplicableRuleError,
    RuleInstance,
    apply_rule,
    check_proof,
    is_axiom,
    sequent,
)
from isci.formulas import Id, Imp, Var, sorted_formulas, subformulas
from isci.parser import parse_sequent

p, q, r, s, t = (Var(n) for n in "pqrst")


def test_axiom_arbitrary_formula_on_both_sides():
    assert is_axiom(parse_sequent("p == q, r |- p == q"))
    assert is_axiom(parse_sequent("#, p |- q"))
    assert not is_axiom(parse_sequent("p |- q"))


def test_apply_r_imp():
    [premise] = apply_rule(parse_sequent("|- p -> q"), RuleInstance("R->"))
    assert premise == parse_sequent("p |- q")


def test_apply_l_id1_fact5_shape():
    before = sequent({q}, Id(p, p))
    [premise] = apply_rule(before, RuleInstance("L==1", principal=p))
    assert premise == sequent({q, Id(p, p)}, Id(p, p))
    assert is_axiom(premise)


def test_apply_l_imp_keeps_principal():
    conclusion = parse_sequent("p -> q, p |- q")
    left, right = apply_rule(conclusion, RuleInstance("L->", principal=Imp(p, q)))
    assert left == parse_sequent("p -> q, p |- p")
    assert right == parse_sequent("p -> q, p, q |- q")
    assert is_axiom(left) and is_axiom(right)


def test_apply_l_id2():
    conclusion = parse_sequent("p == q |- r")
    [premise] = apply_rule(conclusion, RuleInstance("L==2", principal=Id(p, q)))
    assert premise == parse_sequent("p == q, p -> q, q -> p |- r")


def test_apply_l_id3_composes_sides():
    conclusion = parse_sequent("p == q, r == s |- t")
    inst = RuleInstance("L==3", principal=Id(p, q), principal2=Id(r, s), op="->")
    [premise] = apply_rule(conclusion, inst)
    assert premise == parse_sequent("(p -> r) == (q -> s), p == q, r == s |- t")


def test_apply_l_id3_same_equation_twice():
    conclusion = parse_sequent("p == q |- t")
    inst = RuleInstance("L==3", principal=Id(p, q), principal2=Id(p, q), op="->")
    [premise] = apply_rule(conclusion, inst)
    assert premise == parse_sequent("(p -> p) == (q -> q), p == q |- t")


def test_apply_rule_set_semantics_no_duplicates():
    conclusion = parse_sequent("p == q, p -> q, q -> p |- r")
    [premise] = apply_rule(conclusion, RuleInstance("L==2", principal=Id(p, q)))
    assert premise == conclusion  # everything already present


def test_apply_rule_rejects_inapplicable():
    with pytest.raises(InapplicableRuleError):
        apply_rule(parse_sequent("|- p"), RuleInstance("R->"))
    with pytest.raises(InapplicableRuleError):
        apply_rule(parse_sequent("|- p"), RuleInstance("L->", principal=Imp(p, q)))
    with pytest.raises(InapplicableRuleError):
        apply_rule(parse_sequent("p |- q"), RuleInstance("L==2", principal=Id(p, q)))


def rule_instances(seq):
    """Every rule instance `apply_rule` accepts on `seq`, with L==1 over
    the sequent's subformulas: a brute-force enumerator that shares
    nothing with the prover."""
    formulas = set()
    for f in seq.antecedent | {seq.succedent}:
        formulas |= subformulas(f)
    eqs = [f for f in sorted_formulas(seq.antecedent) if isinstance(f, Id)]
    out = [RuleInstance("L==1", principal=f) for f in sorted_formulas(formulas)]
    out += [RuleInstance("L==2", principal=e) for e in eqs]
    out += [
        RuleInstance("L==3", principal=e1, principal2=e2, op=op)
        for e1 in eqs
        for e2 in eqs
        for op in ("->", "==")
    ]
    if isinstance(seq.succedent, Imp):
        out.append(RuleInstance("R->"))
    out += [RuleInstance("L->", principal=f) for f in sorted_formulas(seq.antecedent) if isinstance(f, Imp)]
    return out


def fact5_proof():
    root = parse_sequent("|- p == p")
    leaf = parse_sequent("p == p |- p == p")
    return Derivation(root, RuleInstance("L==1", principal=p), (Derivation(leaf),))


def test_check_proof_accepts_fact5():
    proof = fact5_proof()
    assert check_proof(proof, parse_sequent("|- p == p")).ok


def test_check_proof_rejects_wrong_leaf():
    root = parse_sequent("|- p == p")
    bad = Derivation(root, RuleInstance("L==1", principal=p),
                     (Derivation(parse_sequent("p == p |- q == q")),))
    result = check_proof(bad, root)
    assert not result.ok
    assert "mismatch" in result.error


def test_check_proof_rejects_open_leaf():
    root = parse_sequent("|- p")
    result = check_proof(Derivation(root), root)
    assert not result.ok
    assert "open leaf" in result.error


def test_check_proof_rejects_wrong_claim():
    assert not check_proof(fact5_proof(), parse_sequent("|- q == q")).ok


def test_check_proof_rejects_a_leaf_with_children():
    leaf = Derivation(sequent([p], p))
    result = check_proof(Derivation(sequent([p], p), None, (leaf,)), sequent([p], p))
    assert result.error == "leaf with children at p |- p"


def test_check_proof_rejects_a_premise_mismatch():
    claim = sequent([], Imp(p, p))
    d = Derivation(claim, RuleInstance(R_IMP), (Derivation(sequent([q], p)),))
    assert check_proof(d, claim).error == "premise mismatch at |- p -> p for R->"


@pytest.mark.parametrize(
    "rule, message",
    [
        (RuleInstance(L_ID1), "L==1 needs the formula to reflect"),
        (
            RuleInstance(L_ID3, principal=Id(p, q), principal2=Id(p, q), op="&"),
            "L==3 needs two antecedent equations and a connective",
        ),
        (RuleInstance("cut"), "unknown rule 'cut'"),
    ],
    ids=["L==1 without principal", "L==3 with unknown op", "unknown rule"],
)
def test_apply_rule_rejects_a_malformed_instance(rule, message):
    with pytest.raises(InapplicableRuleError) as exc:
        apply_rule(sequent([Id(p, q)], p), rule)
    assert str(exc.value) == message


def test_assembled_trees_round_trip_through_checker():
    """Trees assembled from rule instances with axiom leaves check out."""

    def close(seq, depth):
        if is_axiom(seq):
            return Derivation(seq)
        if depth == 0:
            return None
        for inst in rule_instances(seq):
            premises = apply_rule(seq, inst)
            children = [close(prem, depth - 1) for prem in premises]
            if all(c is not None for c in children):
                return Derivation(seq, inst, tuple(children))
        return None

    root = parse_sequent("p == q, p -> q, p |- q")
    tree = close(root, 2)
    assert tree is not None
    assert check_proof(tree, root).ok


def test_premises_never_shrink_antecedent():
    seq = parse_sequent("p == q, p -> q |- q")
    for inst in rule_instances(seq):
        for premise in apply_rule(seq, inst):
            assert seq.antecedent <= premise.antecedent
