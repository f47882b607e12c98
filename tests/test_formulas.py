import sys
import threading

import hypothesis.strategies as st
from hypothesis import given, settings

from isci.formulas import (
    BOT,
    Id,
    Imp,
    Var,
    complexity,
    extended_subformulas,
    extended_subformulas_within,
    in_extended_subformulas,
    sort_key,
    subformulas,
)
from oracle_utils import all_formulas, naive_extended_subformulas, small_formulas_pq

p, q, r = Var("p"), Var("q"), Var("r")


def test_complexity_base_cases():
    assert complexity(BOT) == 0
    assert complexity(p) == 0
    assert complexity(Imp(p, q)) == 1
    assert complexity(Imp(Id(p, q), Imp(p, q))) == 3


def test_subformulas():
    assert subformulas(BOT) == {BOT}
    assert subformulas(Imp(p, q)) == {Imp(p, q), p, q}
    assert subformulas(Imp(Id(p, q), BOT)) == {Imp(Id(p, q), BOT), Id(p, q), BOT, p, q}


def test_extended_subformulas_variable_only():
    assert extended_subformulas(p) == {p}


def test_extended_subformulas_equation():
    expected = naive_extended_subformulas(Id(p, q))
    assert extended_subformulas(Id(p, q)) == expected
    assert expected == {
        Id(p, q), p, q,
        Id(p, p), Id(q, q),
        Imp(p, q), Imp(q, p), Imp(p, p), Imp(q, q),
    }


def test_extended_subformulas_bottom_implication():
    phi = Imp(BOT, p)
    expected = naive_extended_subformulas(phi)
    assert extended_subformulas(phi) == expected
    assert expected == {
        phi, BOT, p,
        Id(BOT, BOT), Id(p, p),
        Imp(BOT, BOT), Imp(p, p),
    }


def test_canonical_compare():
    assert sort_key(p) == sort_key(p)
    assert sort_key(BOT) < sort_key(p)
    assert sort_key(BOT) < sort_key(Id(p, q))
    assert sort_key(Imp(p, q)) < sort_key(Id(p, q))
    assert sort_key(Id(p, q)) > sort_key(Imp(p, q))


@given(small_formulas_pq)
@settings(deadline=None)
def test_subformulas_inside_extended(phi):
    assert subformulas(phi) <= extended_subformulas(phi)


@given(small_formulas_pq)
@settings(deadline=None)
def test_extended_subformula_complexity_bound(phi):
    n = complexity(phi)
    assert all(complexity(f) <= n for f in extended_subformulas(phi))


@given(small_formulas_pq)
@settings(deadline=None)
def test_extended_subformulas_total_order_consistent(phi):
    members = sorted(extended_subformulas(phi), key=sort_key)
    for a, b in zip(members, members[1:]):
        assert sort_key(a) < sort_key(b)
        assert a != b


def test_fixpoint_terminates_at_complexity_six():
    """The closure stays finite even for equation-heavy goals."""
    e = Id(p, q)
    phi = Id(Id(e, e), Id(p, Id(q, q)))  # complexity 6, identity everywhere
    assert complexity(phi) == 6
    members = extended_subformulas(phi)
    assert all(complexity(f) <= 6 for f in members)
    assert len(members) > 1000  # genuinely large, still finite


@given(small_formulas_pq)
@settings(max_examples=40, deadline=None)
def test_extended_subformulas_match_naive_oracle(phi):
    assert extended_subformulas(phi) == naive_extended_subformulas(phi)


@given(small_formulas_pq)
@settings(max_examples=40, deadline=None)
def test_membership_predicate_matches_set(phi):
    exs = extended_subformulas(phi)
    universe = all_formulas([p, q, BOT], min(complexity(phi), 2))
    for psi in universe:
        assert in_extended_subformulas(psi, phi) == (psi in exs)
    for psi in exs:
        assert in_extended_subformulas(psi, phi)


@given(small_formulas_pq)
@settings(max_examples=30, deadline=None)
def test_closure_is_idempotent(phi):
    """Re-running the defining clauses over the closure adds nothing."""
    n = complexity(phi)
    exs = extended_subformulas(phi)
    for f in exs:
        if 2 * complexity(f) + 1 <= n:
            assert Id(f, f) in exs
    for f in exs:
        if isinstance(f, Id):
            assert Imp(f.left, f.right) in exs
            assert Imp(f.right, f.left) in exs
    eqs = [f for f in exs if isinstance(f, Id)]
    for e1 in eqs:
        for e2 in eqs:
            for op in (Imp, Id):
                comp = Id(op(e1.left, e2.left), op(e1.right, e2.right))
                if complexity(comp) <= n:
                    assert comp in exs


def test_materialization_cap():
    # only `certbench/spans.py` still names `extended_subformulas_within`
    big = Imp(Id(p, q), Imp(Id(r, Var("s")), Id(Imp(p, r), Imp(q, Var("s")))))
    assert extended_subformulas_within(big, 64) is None
    assert extended_subformulas_within(Id(p, q), 64) == extended_subformulas(Id(p, q))


def test_classifier_partitions_formulas():
    from isci.formulas import in_form0

    assert in_form0(p) and in_form0(Id(p, q))
    assert not in_form0(BOT) and not in_form0(Imp(p, q))


@given(small_formulas_pq, small_formulas_pq)
def test_connectives_strictly_increase_complexity(a, b):
    for op in (Imp, Id):
        c = complexity(op(a, b))
        assert c > complexity(a) and c > complexity(b)


def reference_complexity(f):
    if isinstance(f, (Imp, Id)):
        return reference_complexity(f.left) + reference_complexity(f.right) + 1
    return 0


def reference_sort_key(f):
    if f is BOT:
        return (0,)
    if isinstance(f, Var):
        return (1, f.name)
    return (2 if isinstance(f, Imp) else 3, reference_sort_key(f.left), reference_sort_key(f.right))


formulas_with_bottom = st.recursive(
    st.sampled_from([p, q, r, BOT]),
    lambda kids: st.builds(Imp, kids, kids) | st.builds(Id, kids, kids),
    max_leaves=12,
)


@given(formulas_with_bottom)
def test_nodes_carry_their_complexity_and_order_key(phi):
    # the slots set at interning are the recursive definitions, and the
    # public functions return them
    assert phi.c == complexity(phi) == reference_complexity(phi)
    assert phi.key == sort_key(phi) == reference_sort_key(phi)


def test_threads_building_one_formula_get_one_node():
    # nodes compare by identity, so a node interned twice would make two
    # threads' formulas differ; a 1 µs switch interval interleaves them
    built = [[] for _ in range(4)]

    def build(out):
        for i in range(3000):
            out.append(Imp(Var(f"t{i}"), Id(Var(f"u{i}"), Imp(BOT, Var(f"t{i}")))))

    threads = [threading.Thread(target=build, args=(out,)) for out in built]
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(saved)
    assert not any(thread.is_alive() for thread in threads)
    assert [len(out) for out in built] == [3000] * 4
    assert all(a is b for out in built[1:] for a, b in zip(built[0], out))
