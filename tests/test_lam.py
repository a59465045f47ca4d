import copy
import dataclasses
import gc
import hashlib
import itertools
import pickle
import random
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given

import nomset.lam
from nomset.atoms import Name, fresh_for
from nomset.freshness import fresh_dec, minimize_support
from nomset.lam import (
    App,
    DbApp,
    DbFree,
    DbLam,
    DbVar,
    Lam,
    Var,
    all_terms,
    alpha_eq,
    alpha_rec,
    beta_step,
    fv,
    instance_term,
    normalize,
    subst,
    term_act,
    term_size,
    terms_of_size,
    to_debruijn,
)
from nomset.abstraction import Abstraction, abs_support, alpha_equiv_dec
from nomset.nominal import NominalInstance, check_laws, instance_name, instance_nameset, instance_pair
from nomset.perms import perm_apply, swap_perm
from nomset.samplers import name_gen, term_gen
from nomset.suppfn import SuppFn
from nomset.syntax import NameTable, print_term

from .helpers import (
    act_rec,
    binder_chain,
    count_constructions,
    fv_combinators,
    max_name_id,
    reference_alpha_rec,
    reference_beta_step,
    reference_fv,
    reference_subst,
    reference_term_act,
    reference_term_size,
    reference_to_debruijn,
    rename_binders,
    size_rec,
    subst_rec,
)
from .strategies import messy_perms, perms, terms

x, y, z = Name(0), Name(1), Name(2)
POOL3 = (x, y, z)

iterm = instance_term()


def db_eq(t, u):
    return to_debruijn(t) == to_debruijn(u)


def db_subst(d, a, r):
    """Substitution on de Bruijn images: free names are kept as names, so
    ``r`` goes in under binders without shifting."""
    match d:
        case DbFree(n):
            return r if n == a else d
        case DbApp(f, s):
            return DbApp(db_subst(f, a, r), db_subst(s, a, r))
        case DbLam(s):
            return DbLam(db_subst(s, a, r))
    return d


DEEP = 500
w = Name(7)


def shadowing_chain(binders, refs):
    """``\\b1. ... \\bn. r1 r2 ... w``: ``binders`` outermost first, the
    body applying the variables ``refs`` and the free name ``w``."""
    body = Var(w)
    for r in reversed(refs):
        body = App(Var(r), body)
    return binder_chain(binders, body)


# Binders cycle through x, y, z, so each one shadows the binder three
# levels out; the distinct-binder copy names level i Name(100 + i).
DEEP_SHADOWED = [POOL3[i % 3] for i in range(DEEP)]
DEEP_DISTINCT = [Name(100 + i) for i in range(DEEP)]
INNERMOST = {n: max(i for i in range(DEEP) if DEEP_SHADOWED[i] == n) for n in POOL3}


@pytest.mark.parametrize(
    "fn",
    [
        fv,
        term_size,
        to_debruijn,
        lambda t: term_act(swap_perm(x, y), t),
        lambda t: subst(t, x, Var(y)),
        lambda t: alpha_eq(t, t),
        lambda t: alpha_eq(t, copy.copy(t)),
    ],
)
def test_term_functions_reject_non_terms(fn):
    for bad in (lambda: "x", lambda: App(Var(x), 5), lambda: Lam(x, (x, y))):
        with pytest.raises(TypeError, match="not a term"):
            fn(bad())


@pytest.mark.parametrize(
    "bad",
    [
        lambda: App(Var(y), 5),
        lambda: Lam(y, (x, y)),
        lambda: "x",
        lambda: App(App(Var(y), 5), Var(Name(9))),
    ],
    ids=["bad0", "bad1", "x", "bad3"],
)
def test_subst_rejects_a_non_term_replacement(bad):
    with pytest.raises(TypeError, match="not a term"):
        subst(Var(x), x, bad())


# A name that is not a Name is rejected by the node that would hold it, so
# each bad term is built inside ``pytest.raises`` and no function is reached.
@pytest.mark.parametrize(
    "fn",
    [
        fv,
        to_debruijn,
        print_term,
        lambda t: term_act((), t),
        lambda t: term_act(swap_perm(x, y), t),
        lambda t: alpha_eq(t, t),
        lambda t: alpha_eq(t, copy.copy(t)),
    ],
)
@pytest.mark.parametrize(
    "bad",
    [lambda: Var(5), lambda: Lam(x, Var(5)), lambda: App(Var(x), Var(5))],
    ids=["bad0", "bad1", "bad2"],
)
def test_a_var_whose_name_is_not_a_name_is_not_a_term(fn, bad):
    with pytest.raises(TypeError, match="not a term"):
        fn(bad())


@pytest.mark.parametrize(
    "t,u",
    [(lambda: Var(5), lambda: Var(x)), (lambda: Var(x), lambda: Var(5))],
    ids=["t0-u0", "t1-u1"],
)
def test_alpha_eq_rejects_a_var_whose_name_is_not_a_name(t, u):
    with pytest.raises(TypeError, match="not a term"):
        alpha_eq(t(), u())


# Every public function that takes a term, each given a root that is not a
# node; ``subst`` and ``alpha_eq`` get it in each of their term positions.
TERM_FUNCTIONS = {
    "fv": fv,
    "term_size": term_size,
    "to_debruijn": to_debruijn,
    "term_act": lambda t: term_act(swap_perm(x, y), t),
    "subst_body": lambda t: subst(t, x, Var(y)),
    "subst_replacement": lambda t: subst(Var(x), x, t),
    "alpha_eq": lambda t: alpha_eq(t, t),
    "normalize": normalize,
    "beta_step": beta_step,
    "alpha_rec": lambda t: alpha_rec(instance_nameset(), *fv_combinators()).fn(t),
    "print_term": print_term,
    "fresh_dec": lambda t: fresh_dec(iterm, x, t),
}


@pytest.mark.parametrize("fn", TERM_FUNCTIONS.values(), ids=TERM_FUNCTIONS.keys())
@pytest.mark.parametrize("root", ["x", 5, (x, y)], ids=["str", "int", "tuple"])
def test_every_term_function_rejects_a_raw_root(fn, root):
    with pytest.raises(TypeError, match="not a term"):
        fn(root)


@pytest.mark.parametrize("fuel", [2.5, float("nan"), "3", None])
def test_normalize_rejects_a_fuel_that_is_not_an_integer(fuel):
    # At a non-integer fuel the step count would never equal it, so a
    # term without a normal form would be reduced for ever.
    with pytest.raises(TypeError):
        normalize(Var(x), fuel)


def test_normalize_takes_int_and_bool_fuel():
    redex = App(Lam(x, Var(x)), Var(y))
    assert normalize(redex, True) == nomset.lam.NormalizeResult(Var(y), 1, True)
    assert normalize(redex, False) == nomset.lam.NormalizeResult(redex, 0, False)


@pytest.mark.parametrize("a", [5, "x", None, Name("a"), Name(2.5)])
def test_subst_rejects_a_name_that_is_not_a_name(a):
    with pytest.raises(TypeError, match="subst: a must be a name"):
        subst(Var(x), a, Var(y))


@pytest.mark.parametrize("p", [((x, 5),), ((5, x),), ((y, x), (x, "z")),
                               ((x,),), (x,), 5, ((x, y, x),)])
def test_term_act_rejects_a_word_holding_a_non_name(p):
    with pytest.raises(TypeError, match="term_act: p must be a word of swaps of names"):
        term_act(p, Var(x))


@pytest.mark.parametrize("bad", [Name("a"), Name(2.5), Name(None), Name(True), object()],
                         ids=["str", "float", "none", "bool", "object"])
@pytest.mark.parametrize("t", [Var(x), Var(y), Lam(z, Var(z))], ids=["meets", "misses", "closed"])
def test_term_act_rejects_a_non_name_in_any_swap_whatever_the_term(bad, t):
    for p in (((x, bad),), ((bad, x),), ((y, z), (z, bad))):
        with pytest.raises(TypeError, match="term_act: p must be a word of swaps of names"):
            term_act(p, t)


def test_term_act_identity():
    t = Lam(x, App(Var(x), Var(z)))
    assert term_act((), t) == t


def test_term_act_renames_binders_too():
    t = Lam(x, App(Var(x), Var(z)))
    assert term_act(swap_perm(x, y), t) == Lam(y, App(Var(y), Var(z)))


@given(perms, perms, terms)
def test_term_act_compat(p, q, t):
    assert term_act(p, term_act(q, t)) == term_act(q + p, t)


# The identity, a degenerate swap, swaps inside the pool and reaching out
# of it, a 3-cycle, a word that cancels, and a word over names beyond it.
ACT_WORDS = (
    (),
    ((x, x),),
    ((x, y),),
    ((y, x), (z, y)),
    ((x, w),),
    ((w, x), (x, y), (y, w)),
    ((x, y), (y, x)),
    ((Name(9), Name(8)), (z, Name(9))),
)


def test_term_act_matches_reference_term_act_exhaustively():
    for t in all_terms(6, POOL3):
        for p in ACT_WORDS:
            got = term_act(p, t)
            assert got == reference_term_act(p, t), (p, t)


@given(messy_perms, terms)
def test_term_act_matches_reference_term_act(p, t):
    assert term_act(p, t) == reference_term_act(p, t)


def test_term_act_reads_a_one_shot_word_once():
    assert term_act(iter([(x, y)]), Var(x)) == Var(y)
    t = Lam(y, App(App(Var(x), Var(y)), Lam(w, App(Var(z), Var(w)))))
    for p in ACT_WORDS:
        expected = term_act(list(p), t)
        assert term_act(iter(p), t) == expected, p
        assert term_act((s for s in p), t) == expected, p
        for a in POOL3 + (w, Name(9)):
            assert term_act(iter(p), Var(a)) == Var(perm_apply(p, a)), (p, a)
            assert term_act((s for s in p), Var(a)) == Var(perm_apply(iter(p), a)), (p, a)


def test_fv_var():
    assert fv(Var(x)) == frozenset({x})


def test_fv_closed_identity():
    assert fv(Lam(x, Var(x))) == frozenset()


def test_fv_keeps_free_occurrence():
    assert fv(Lam(x, App(Var(x), Var(y)))) == frozenset({y})


def test_alpha_eq_canonical_pair():
    assert alpha_eq(Lam(x, Var(x)), Lam(y, Var(y)))


def test_alpha_eq_with_free_name():
    left = Lam(x, App(Var(x), Var(y)))
    assert alpha_eq(left, Lam(z, App(Var(z), Var(y))))
    assert not alpha_eq(left, Lam(y, App(Var(y), Var(x))))


SCOPE_CASES = [
    # \x.\x.x and \y.\z.z: the inner x shadows the outer one.
    (Lam(x, Lam(x, Var(x))), Lam(y, Lam(z, Var(z))), True),
    # \x.\x.x and \y.\z.y: the shadowed binder is out of reach.
    (Lam(x, Lam(x, Var(x))), Lam(y, Lam(z, Var(y))), False),
    # \x.y and \y.y: a free y against a bound one.
    (Lam(x, Var(y)), Lam(y, Var(y)), False),
    # A free x against a bound x, with the same index on both sides.
    (Lam(y, Var(x)), Lam(x, Var(x)), False),
    (App(Lam(y, Var(x)), Var(x)), App(Lam(x, Var(x)), Var(x)), False),
    # A binder's scope ends with its body.
    (App(Lam(x, Var(x)), Var(x)), App(Lam(y, Var(y)), Var(x)), True),
    (App(Lam(x, Var(x)), Var(x)), App(Lam(y, Var(y)), Var(y)), False),
    # Leaving an inner shadowing binder restores the outer one.
    (Lam(x, App(Lam(x, Var(x)), Var(x))), Lam(y, App(Lam(z, Var(z)), Var(y))), True),
    (Lam(x, App(Lam(x, Var(x)), Var(x))), Lam(y, App(Lam(y, Var(y)), Var(z))), False),
    # Same depths, binders referenced crosswise.
    (Lam(x, Lam(y, App(Var(x), Var(y)))), Lam(y, Lam(x, App(Var(y), Var(x)))), True),
    (Lam(x, Lam(y, Var(x))), Lam(x, Lam(y, Var(y))), False),
]


@pytest.mark.parametrize("t, u, expected", SCOPE_CASES)
def test_alpha_eq_shadowing_and_scope(t, u, expected):
    assert alpha_eq(t, u) == alpha_eq(u, t) == db_eq(t, u) == expected


def test_alpha_eq_on_deep_binder_chains():
    t = shadowing_chain(DEEP_SHADOWED, [x, y, z])

    def distinct(x_shift):
        # The distinct-binder copy, its x reference moved x_shift levels out.
        levels = [INNERMOST[x] - x_shift, INNERMOST[y], INNERMOST[z]]
        return shadowing_chain(DEEP_DISTINCT, [DEEP_DISTINCT[i] for i in levels])

    # The same level; one level out; the outer x that the inner x shadows.
    for shift, expected in ((0, True), (1, False), (3, False)):
        u = distinct(shift)
        assert alpha_eq(t, u) == alpha_eq(u, t) == db_eq(t, u) == expected


@given(terms)
def test_alpha_eq_reflexive(t):
    assert alpha_eq(t, t)


def test_to_debruijn_identity():
    assert to_debruijn(Lam(x, Var(x))) == DbLam(DbVar(0))


def test_to_debruijn_free_occurrence():
    assert to_debruijn(Lam(x, App(Var(x), Var(y)))) == DbLam(
        DbApp(DbVar(0), DbFree(y))
    )


def test_to_debruijn_counts_binder_depth():
    assert to_debruijn(Lam(x, Lam(y, Var(x)))) == DbLam(DbLam(DbVar(1)))


@pytest.mark.parametrize("fn,reference", [
    (fv, reference_fv), (to_debruijn, reference_to_debruijn), (term_size, reference_term_size),
], ids=["fv", "to_debruijn", "term_size"])
def test_fold_clients_match_plain_recursion_exhaustively(fn, reference):
    # Binders come from the variables' pool, so shadowing occurs.
    terms = list(all_terms(6, POOL3))
    assert len(terms) == 4962
    for t in terms:
        assert fn(t) == reference(t), t


def test_alpha_matches_oracle_exhaustively_small():
    universe = list(all_terms(4, POOL3))
    assert len(universe) == 210
    images = [to_debruijn(t) for t in universe]
    for (t, dt), (u, du) in itertools.product(zip(universe, images), repeat=2):
        assert alpha_eq(t, u) == (dt == du), (t, u)


def test_term_instance_satisfies_all_laws():
    report = check_laws(iterm, term_gen(), trials=300)
    assert report.ok, str(report)


def test_alpha_eq_agrees_with_abstraction_decision():
    rng = random.Random(0)
    gen = term_gen()
    for _ in range(300):
        a, b = name_gen()(rng), name_gen()(rng)
        s, r = gen(rng), gen(rng)
        assert alpha_eq(Lam(a, s), Lam(b, r)) == alpha_equiv_dec(
            iterm, Abstraction(a, s), Abstraction(b, r)
        )
    # Exhaustively on small bodies: the lazy-mediator comparison and the
    # one-shot canonical-witness procedure must decide the same relation.
    abstractions = [
        Abstraction(n, t) for n in POOL3 for t in all_terms(2, POOL3)
    ]
    for left, right in itertools.product(abstractions, repeat=2):
        assert alpha_eq(
            Lam(left.name, left.term), Lam(right.name, right.term)
        ) == alpha_equiv_dec(iterm, left, right)


def test_subst_matches_oracle_exhaustively_small():
    smalls = list(all_terms(2, POOL3))
    for t in all_terms(4, POOL3):
        dt = to_debruijn(t)
        for a in POOL3:
            for u in smalls:
                got = to_debruijn(subst(t, a, u))
                assert got == db_subst(dt, a, to_debruijn(u)), (t, a, u)


def test_subst_on_deep_binder_chains():
    # The replacement mentions x free, which every third binder would
    # capture if it were not renamed.
    u = App(Var(x), Lam(y, App(Var(y), Var(z))))
    du = to_debruijn(u)
    for binders in (DEEP_SHADOWED, DEEP_DISTINCT):
        t = shadowing_chain(binders, [binders[INNERMOST[n]] for n in POOL3])
        got = subst(t, w, u)
        expected = db_subst(to_debruijn(t), w, du)
        assert to_debruijn(got) == expected
        assert fv(got) == fv(u)


def test_subst_hits_free_variable():
    u = Lam(y, Var(y))
    assert subst(Var(x), x, u) == u


def test_subst_ignores_bound_occurrence():
    t = Lam(x, Var(x))
    assert alpha_eq(subst(t, x, Var(y)), t)


def test_subst_avoids_capture():
    # (\y. x)[x := y] must not capture the substituted y.
    got = subst(Lam(y, Var(x)), x, Var(y))
    assert to_debruijn(got) == DbLam(DbFree(y))
    assert alpha_eq(got, Lam(z, Var(y)))


@given(terms, perms)
def test_subst_equivariant(t, p):
    u = App(Var(y), Lam(z, Var(x)))
    lhs = term_act(p, subst(t, x, u))
    rhs = subst(term_act(p, t), perm_apply(p, x), term_act(p, u))
    assert alpha_eq(lhs, rhs)


def test_subst_composition_on_enumerated_terms():
    smalls = list(all_terms(2, POOL3))
    for t in all_terms(3, POOL3):
        for a, b in ((x, y), (y, x), (x, z)):
            for u in smalls:
                for v in smalls:
                    if a in fv(v):
                        continue
                    lhs = subst(subst(t, a, u), b, v)
                    rhs = subst(subst(t, b, v), a, subst(u, b, v))
                    assert alpha_eq(lhs, rhs), (t, a, u, b, v)


def test_subst_respects_alpha_classes():
    rng = random.Random(1)
    gen = term_gen()
    for _ in range(300):
        t, u = gen(rng), gen(rng)
        a = name_gen()(rng)
        t2, u2 = rename_binders(t, rng), rename_binders(u, rng)
        assert alpha_eq(subst(t, a, u), subst(t2, a, u2))


# Replacements whose largest name index is below, at and above the pool's.
REPLACEMENTS = (
    Var(x), Lam(y, Var(y)), Var(z), Var(w), Lam(Name(9), App(Var(x), Var(Name(8))))
)


def test_subst_matches_reference_subst_exhaustively():
    for t in all_terms(6, POOL3):
        assert t._top == max_name_id(t), t
        for a in (*POOL3, w):
            for u in REPLACEMENTS:
                got = subst(t, a, u)
                assert got == reference_subst(t, a, u), (t, a, u)


def test_subst_matches_reference_subst_on_church_redexes(monkeypatch):
    seen = []

    def checked(t, a, u):
        got = subst(t, a, u)
        assert (t._top, u._top) == (max_name_id(t), max_name_id(u))
        assert got._top == max_name_id(got)
        assert got == reference_subst(t, a, u)
        seen.append(a)
        return got

    monkeypatch.setattr(nomset.lam, "subst", checked)
    for k in range(1, 7):
        result = normalize(App(church(k), church(2)), 2 ** (k + 1))
        assert result.normal_form and result.term._top == max_name_id(result.term)
    # c_k c_2 takes 2^(k+1) - 2 steps.
    assert len(seen) == sum(2 ** (k + 1) - 2 for k in range(1, 7))


def subst_cases(monkeypatch):
    """Church redexes, as ``normalize`` contracts them, and random terms of
    at most eight constructors under each replacement."""
    cases = []

    def record(t, a, u):
        cases.append((t, a, u))
        return subst(t, a, u)

    with monkeypatch.context() as patch:
        patch.setattr(nomset.lam, "subst", record)
        for k in range(1, 5):
            normalize(App(church(k), church(2)))
    rng = random.Random(8)
    gen = term_gen(max_size=8)
    for _ in range(200):
        cases += [(gen(rng), rng.choice(POOL3), u) for u in REPLACEMENTS]
    return cases


def subterm_ids(t) -> set:
    """The ids of every node of ``t``."""
    out, todo = set(), [t]
    while todo:
        t = todo.pop()
        out.add(id(t))
        if type(t) is App:
            todo += (t.fn, t.arg)
        elif type(t) is Lam:
            todo.append(t.body)
    return out


def rule_counts(t, a, u) -> Counter:
    """What the renaming rule builds for ``subst(t, a, u)``, read off
    ``reference_subst``'s result: a node that is neither one of ``t``'s
    nor ``u`` itself is new.  A new abstraction whose binder lies at or
    above the mark is a renamed binder, one ``Name``, ``Var`` and ``Lam``;
    every other new node is one rebuilt ``App`` or ``Lam``."""
    mark = max(a.id, max_name_id(t), max_name_id(u)) + 1
    old = subterm_ids(t) | {id(u)}
    counts, todo = Counter(), [reference_subst(t, a, u)]
    while todo:
        node = todo.pop()
        if id(node) in old:
            continue
        old.add(id(node))
        if type(node) is App:
            counts[App] += 1
            todo += (node.fn, node.arg)
        elif type(node) is Lam:
            counts[Lam] += 1
            if node.binder.id >= mark:
                counts[Name] += 1
                counts[Var] += 1
            todo.append(node.body)
    return counts


def test_subst_builds_per_renamed_binder_and_rebuilt_node(monkeypatch):
    cases = [(t, a, u, rule_counts(t, a, u)) for t, a, u in subst_cases(monkeypatch)]
    # The cases rename binders, rebuild nodes and keep whole terms alike.
    assert any(expected[Name] for *_, expected in cases)
    assert any(expected[Lam] > expected[Name] for *_, expected in cases)
    assert any(not expected for *_, expected in cases)
    counts = count_constructions(monkeypatch)
    for t, a, u, expected in cases:
        counts.clear()
        subst(t, a, u)
        assert counts == expected, (t, a, u)


def test_subst_returns_a_term_without_the_target_as_it_is():
    rng = random.Random(11)
    gen = term_gen(max_size=10)
    for t in [*all_terms(4, POOL3), *(gen(rng) for _ in range(300))]:
        for a in (Name(t._top + 1), Name(t._top + 50)):
            for u in REPLACEMENTS:
                assert subst(t, a, u) is t


def test_subst_shares_a_function_below_the_target():
    for s in all_terms(4, POOL3):
        for a in (z, w):
            if s._top < a.id:
                for u in REPLACEMENTS:
                    got = subst(App(s, Var(a)), a, u)
                    assert got.fn is s and got.arg is u


def unwalkable(top):
    """An ``App`` whose ``_top`` reads ``top`` but whose children are not
    terms, so any walk into it raises: it can only come back as it is."""
    node = object.__new__(App)
    for attr, value in (("fn", "fn"), ("arg", "arg"), ("_top", top)):
        object.__setattr__(node, attr, value)
    return node


def test_subst_never_walks_a_subterm_below_every_name_it_changes():
    # s lies below z, the target, and below y, the one binder that could
    # capture u's name; w and Name(9) lie above both and keep their names.
    s, u = unwalkable(x.id), Var(y)
    got = subst(App(s, Var(z)), z, u)
    assert got.fn is s and got.arg is u
    got = subst(Lam(y, App(Var(z), s)), z, u)
    assert got.binder == Name(3) and got.body.fn is u and got.body.arg is s
    kept = Lam(Name(9), s)
    got = subst(Lam(w, App(App(s, Var(z)), kept)), z, u)
    assert got.binder is w and got.body.arg is kept
    assert got.body.fn.fn is s and got.body.fn.arg is u
    got = subst(App(Lam(z, s), s), z, u)
    assert got.fn.binder == Name(3) and got.fn.body is s and got.arg is s


def test_normalize_builds_at_most_five_nodes_per_step_on_church_powers(monkeypatch):
    # c_k c_2 only carries its arguments along; copying them, or renaming
    # binders that cannot capture, costs more per step as k grows.
    counts = count_constructions(monkeypatch)
    for k in range(1, 10):
        t = App(church(k), church(2))
        counts.clear()
        result = normalize(t, 2 ** (k + 1))
        assert result.normal_form and result.steps == 2 ** (k + 1) - 2
        assert sum(counts.values()) <= 5 * result.steps, (k, counts)


def test_normalize_builds_no_redex_outside_subst_unless_fuel_stops_there(monkeypatch):
    # A contractum landing in its parent's function slot is contracted
    # against the parent's argument at once; only a cut-off at that very
    # point builds the application, so that it can be returned.
    t = App(church(4), church(2))
    steps = normalize(t).steps
    inside, built = [False], []
    real_subst, real_init = nomset.lam.subst, App.__init__

    def flagged(*args):
        inside[0] = True
        try:
            return real_subst(*args)
        finally:
            inside[0] = False

    def counted(self, fn, arg):
        if type(fn) is Lam and not inside[0]:
            built.append(fn)
        real_init(self, fn, arg)

    monkeypatch.setattr(nomset.lam, "subst", flagged)
    monkeypatch.setattr(App, "__init__", counted)
    cut_at_a_landing = 0
    for fuel in range(steps):
        built.clear()
        assert not normalize(t, fuel).normal_form
        assert len(built) <= 1, fuel
        cut_at_a_landing += len(built)
    assert cut_at_a_landing > 0
    built.clear()
    got = normalize(t, steps)
    assert built == []
    assert got.normal_form and got.steps == 30 and alpha_eq(got.term, church(16))


def test_cached_top_stays_out_of_eq_hash_repr_and_patterns():
    assert Var.__match_args__ == ("name",)
    assert App.__match_args__ == ("fn", "arg")
    assert Lam.__match_args__ == ("binder", "body")
    t = Lam(x, App(Var(y), Var(x)))
    assert repr(t) == (
        "Lam(binder=Name(0), body=App(fn=Var(name=Name(1)), arg=Var(name=Name(0))))"
    )
    assert hash(t) == hash((x, App(Var(y), Var(x))))
    odd = Var(y)
    object.__setattr__(odd, "_top", 99)
    assert odd == Var(y) and hash(odd) == hash((y,)) and repr(odd) == "Var(name=Name(1))"
    match t:
        case Lam(b, App(Var(f), Var(a))):
            assert (b, f, a) == (x, y, x)
        case _:
            pytest.fail("class patterns no longer match")
    assert dataclasses.replace(t, binder=Name(50))._top == 50


# Each shape has a child that is not a name (no ``id``, or an ``id`` that
# is not an int) or not a node, at the top or under another node.
UNBUILDABLE = [
    lambda: Var(5),
    lambda: Var("x"),
    lambda: Var(Name("a")),
    lambda: Var(Name(2.5)),
    lambda: Var(Var(x)),
    lambda: App(Var(x), 5),
    lambda: App("x", Var(x)),
    lambda: App(Var(x), (x, y)),
    lambda: App(Var(x), x),
    lambda: App(DbVar(0), Var(x)),
    lambda: App(Var(Name("a")), Var(x)),
    lambda: App(App(Var(x), 5), Var(Name(9))),
    lambda: App(Var(Name(9)), Lam(y, App(Var(x), 5))),
    lambda: Lam(5, Var(x)),
    lambda: Lam(Name("a"), Var(x)),
    lambda: Lam(Name(2.5), Var(x)),
    lambda: Lam(Var(x), Var(x)),
    lambda: Lam(x, Var(5)),
    lambda: Lam(x, (x, y)),
    lambda: Lam(x, " ("),
    lambda: Lam(x, App(Var(x), 5)),
]


NODES = {
    "Var": lambda: Var(x),
    "App": lambda: App(Var(x), Var(y)),
    "Lam": lambda: Lam(x, Var(x)),
    "DbVar": lambda: DbVar(0),
    "DbFree": lambda: DbFree(x),
    "DbApp": lambda: DbApp(DbVar(0), DbFree(x)),
    "DbLam": lambda: DbLam(DbVar(0)),
}


@pytest.mark.parametrize("build", NODES.values(), ids=NODES.keys())
def test_nodes_refuse_every_assignment_and_deletion(build):
    node = build()
    before = repr(node)
    for attr in (*(f.name for f in dataclasses.fields(node)), "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, attr, Var(z))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, attr)
    assert repr(node) == before and not hasattr(node, "other")


@pytest.mark.parametrize("build", UNBUILDABLE)
def test_a_node_with_a_non_term_child_cannot_be_built(build):
    with pytest.raises(TypeError, match="not a term"):
        build()


CLONES = [copy.copy, copy.deepcopy] + [
    lambda t, p=p: pickle.loads(pickle.dumps(t, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)
]


@pytest.mark.parametrize("clone", CLONES)
def test_copies_keep_cached_top(clone):
    # A copy that lost _top would draw subst's new binders too low and
    # capture Name(500).
    big = Name(500)
    for t in (Var(big), Lam(x, App(Var(big), Lam(big, Var(x)))), Lam(big, Lam(y, Var(y)))):
        c = clone(t)
        assert c == t and c._top == max_name_id(t) == 500
        for body in (Lam(y, App(Var(x), Var(y))), Lam(Name(600), Var(x))):
            assert subst(body, x, c) == reference_subst(body, x, t)
        got = subst(c, x, Var(big))
        assert got == reference_subst(t, x, Var(big))


def test_minimize_support_equals_fv_on_alpha_instance():
    for t in all_terms(4, POOL3):
        assert minimize_support(iterm, t) == fv(t)
    assert minimize_support(iterm, Lam(x, App(Var(x), Var(y)))) == frozenset({y})


def occurring(t):
    match t:
        case Var(a):
            return frozenset({a})
        case App(f, s):
            return occurring(f) | occurring(s)
        case Lam(b, s):
            return occurring(s) | {b}


def test_syntactic_instance_contrast():
    # With syntactic equality the support cannot shed the binder.
    syntactic = NominalInstance(
        equiv=lambda t, u: t == u, act=term_act, support=occurring
    )
    assert check_laws(syntactic, term_gen(), trials=300).ok
    t = Lam(x, App(Var(x), Var(y)))
    assert minimize_support(syntactic, t) == frozenset({x, y})
    assert minimize_support(iterm, t) == frozenset({y})


def test_abs_support_matches_fv_difference():
    for t in all_terms(3, POOL3):
        for n in POOL3:
            assert abs_support(iterm, Abstraction(n, t)) == fv(t) - {n}


def test_renaming_law_against_oracle():
    rng = random.Random(2)
    gen = term_gen()
    for _ in range(300):
        t = gen(rng)
        a = name_gen()(rng)
        fresh = fresh_for(fv(t) | {a})
        candidates = [fresh] + [n for n in POOL3 if fresh_dec(iterm, n, t)]
        for b in candidates:
            renamed = Lam(b, term_act(swap_perm(a, b), t))
            assert alpha_eq(Lam(a, t), renamed)
            assert db_eq(Lam(a, t), renamed)


def test_alpha_rec_reproduces_fv_on_small_terms():
    rec = alpha_rec(instance_nameset(), *fv_combinators())
    for t in all_terms(4, POOL3):
        assert rec(t) == fv(t)
    assert rec.supp == frozenset()


def test_alpha_rec_constant_combinators_give_constant():
    iname = instance_name()
    inset = instance_nameset()
    k = frozenset({z})
    rec = alpha_rec(
        inset,
        SuppFn(lambda n: k, frozenset({z}), dom=iname, cod=inset),
        SuppFn(lambda st: k, frozenset({z}), dom=instance_pair(inset, inset), cod=inset),
        SuppFn(lambda ns: k, frozenset({z}), dom=instance_pair(iname, inset), cod=inset),
    )
    for t in all_terms(3, POOL3):
        assert rec(t) == k
    assert rec.supp == frozenset({z})


def test_alpha_rec_is_alpha_invariant():
    rec = alpha_rec(instance_nameset(), *fv_combinators())
    assert rec(Lam(x, Var(x))) == rec(Lam(y, Var(y)))
    rng = random.Random(3)
    gen = term_gen()
    for _ in range(200):
        t = gen(rng)
        assert rec(t) == rec(rename_binders(t, rng))


# Replacements for substitution by recursion: a name in the pool, one
# outside it, and two that hold several names of the pool.
SUBST_REPLACEMENTS = (Var(y), Var(w), App(Var(x), Var(z)), Lam(x, App(Var(x), Var(y))))


def test_alpha_rec_substitution_renames_the_input_binder():
    # Pitts's example, where the clauses' support {x, y} meets the binders.
    # A recursor that renames the output instead of the input sends \x. x
    # to \a. y, lets \y. x capture y, and parts the alpha-equal \x. x and
    # \w. w.
    rec = subst_rec(x, Var(y))
    assert alpha_eq(rec(Lam(x, Var(x))), Lam(x, Var(x)))
    assert alpha_eq(rec(Lam(y, Var(x))), Lam(z, Var(y)))
    assert alpha_eq(rec(Lam(x, Var(x))), rec(Lam(w, Var(w))))


def test_alpha_rec_substitution_matches_subst_exhaustively():
    terms = list(all_terms(6, POOL3))
    assert len(terms) * len(POOL3) * len(SUBST_REPLACEMENTS) == 59_544
    for a in POOL3:
        for u in SUBST_REPLACEMENTS:
            rec = subst_rec(a, u)
            for t in terms:
                assert alpha_eq(rec(t), subst(t, a, u)), (t, a, u)


def test_alpha_rec_is_alpha_invariant_when_binders_meet_the_supports():
    # The renaming pool holds every target and replacement name, so
    # binders are renamed into the clauses' supports.
    rng = random.Random(5)
    gen = term_gen()
    for i in range(300):
        t = gen(rng)
        rec = subst_rec(POOL3[i % 3], SUBST_REPLACEMENTS[i % 4])
        assert alpha_eq(rec(t), rec(rename_binders(t, rng, POOL3 + (w,))))


def test_alpha_rec_agrees_with_the_binder_rule_through_fcb_lift():
    terms = list(all_terms(5, POOL3))
    inset = instance_nameset()
    rec, ref = alpha_rec(inset, *fv_combinators()), reference_alpha_rec(inset, *fv_combinators())
    assert all(rec(t) == ref(t) for t in terms)
    for a in POOL3:
        for u in SUBST_REPLACEMENTS:
            rec, ref = subst_rec(a, u), subst_rec(a, u, reference_alpha_rec)
            for t in terms:
                assert alpha_eq(rec(t), ref(t)), (t, a, u)


@pytest.mark.parametrize(
    "p", [(), swap_perm(x, y), ((x, y), (y, z)), ((x, w), (z, w))], ids=["id", "xy", "xyz", "xzw"]
)
def test_act_rec_matches_term_act_exhaustively(p):
    rec = act_rec(p)
    for t in all_terms(6, POOL3):
        assert alpha_eq(rec(t), term_act(p, t)), t


def test_size_rec_matches_term_size_exhaustively():
    rec = size_rec()
    assert all(rec(t) == term_size(t) for t in all_terms(6, POOL3))


def test_beta_step_contracts_head_redex():
    assert beta_step(App(Lam(x, Var(x)), Var(y))) == Var(y)


def test_beta_step_on_normal_form():
    assert beta_step(Var(x)) is None
    assert beta_step(Lam(x, Var(x))) is None


def test_beta_step_avoids_capture():
    # (\x. \y. x) y -> \z. y, not \y. y.
    t = App(Lam(x, Lam(y, Var(x))), Var(y))
    got = beta_step(t)
    assert got is not None
    assert to_debruijn(got) == DbLam(DbFree(y))


def test_normalize_normal_form_takes_no_steps():
    result = normalize(Lam(x, Var(x)), 10)
    assert result.normal_form
    assert result.steps == 0
    assert result.term == Lam(x, Var(x))


def test_normalize_single_step():
    result = normalize(App(Lam(x, Var(x)), Lam(y, Var(y))), 10)
    assert result.normal_form
    assert result.steps == 1
    assert alpha_eq(result.term, Lam(y, Var(y)))


def test_normalize_omega_exhausts_fuel():
    dup = Lam(x, App(Var(x), Var(x)))
    result = normalize(App(dup, dup), 5)
    assert not result.normal_form
    assert result.steps == 5


def church(k):
    f, v = Name(10), Name(11)
    body = Var(v)
    for _ in range(k):
        body = App(Var(f), body)
    return Lam(f, Lam(v, body))


def assert_normalize_matches_reference(t, fuel):
    steps, term = 0, t
    while steps < fuel and (nxt := reference_beta_step(term)) is not None:
        steps, term = steps + 1, nxt
    got = normalize(t, fuel)
    assert got.steps == steps, t
    assert got.normal_form == (reference_beta_step(term) is None), t
    assert got.term == term, t


def test_normalize_matches_reference_step_exhaustively():
    # Every fuel up to 4, so each intermediate term is compared too.
    for t in all_terms(6, POOL3):
        for fuel in range(5):
            assert_normalize_matches_reference(t, fuel)


def test_normalize_matches_reference_step_on_random_terms():
    # Two sibling redexes, the smallest case where the search order shows,
    # need nine constructors.
    rng = random.Random(4)
    gen = term_gen(max_size=12)
    for _ in range(2000):
        t = gen(rng)
        for fuel in range(5):
            assert_normalize_matches_reference(t, fuel)


def test_normalize_matches_reference_step_on_church_powers():
    # c_k c_2 is c_(2^k), reached in 2^(k+1) - 2 steps.
    for k in range(1, 10):
        assert_normalize_matches_reference(App(church(k), church(2)), 2 ** (k + 1))


def test_beta_step_matches_reference_step_exhaustively():
    for t in all_terms(6, POOL3):
        assert beta_step(t) == reference_beta_step(t), t


def mult(m, n):
    a, b, g = Name(12), Name(13), Name(14)
    times = Lam(a, Lam(b, Lam(g, App(Var(a), App(Var(b), Var(g))))))
    return App(App(times, church(m)), church(n))


IDENTITY_REDEX = App(Lam(z, Var(z)), Var(y))


# A contraction can turn its parent into a redex: (\x. \y. y) a lands an
# abstraction in the function slot of the application to b.
FUEL_CUT_TERMS = [
    *(App(church(k), church(2)) for k in range(1, 6)),
    *(mult(m, n) for m, n in itertools.product(range(5), repeat=2)),
    App(App(Lam(x, Lam(y, Var(y))), Var(z)), Var(x)),
    App(App(App(Lam(x, Lam(y, Lam(z, Var(z)))), Var(x)), Var(y)), Var(z)),
    App(Var(x), App(App(Lam(x, Lam(y, Var(y))), Var(z)), Var(x))),
    App(App(Var(x), Var(z)), IDENTITY_REDEX),
    App(App(Var(x), IDENTITY_REDEX), App(Lam(x, IDENTITY_REDEX), Var(z))),
]


@pytest.mark.parametrize("t", FUEL_CUT_TERMS)
def test_normalize_cut_off_at_every_fuel_matches_reference(t):
    trace = [t]  # the reference term after each step
    term = t
    while (term := reference_beta_step(term)) is not None:
        trace.append(term)
    for fuel, expected in enumerate(trace):
        got = normalize(t, fuel)
        assert (got.steps, got.normal_form) == (fuel, fuel == len(trace) - 1)
        assert got.term == expected


def test_normalize_keeps_only_siblings_above_each_contraction(monkeypatch):
    # Every frame holds only the sibling on its path: a binder, an
    # unsearched argument or a 1-tuple of a normal function.  The original
    # nodes of the frames pushed since the last contraction sit in orig,
    # which the contraction clears, so by the time subst runs nothing
    # keeps the subterms it rewrites alive.
    contractions = []

    def checked(t, a, u):
        caller = sys._getframe(1)
        assert caller.f_code.co_name == "_reduce"
        assert caller.f_locals["orig"] == []
        for frame in caller.f_locals["ctx"]:
            assert type(frame) in (Name, Var, App, Lam) or (
                type(frame) is tuple and len(frame) == 1
                and type(frame[0]) in (Var, App, Lam)), frame
        contractions.append(a)
        return subst(t, a, u)

    monkeypatch.setattr(nomset.lam, "subst", checked)
    rng = random.Random(5)
    gen = term_gen(max_size=12)
    # The climb after the first contraction drops below the frames pushed
    # before it, and the abstraction is entered before the second one.
    lowered = App(App(Var(x), IDENTITY_REDEX), Lam(y, IDENTITY_REDEX))
    for t in [lowered, *FUEL_CUT_TERMS, *(gen(rng) for _ in range(2000))]:
        normalize(t, 50)
    assert len(contractions) > 500


@pytest.mark.parametrize("t", [*(App(church(k), church(2)) for k in (8, 9, 10)), mult(30, 21)],
                         ids=["c8_c2", "c9_c2", "c10_c2", "mult_30_21"])
def test_normalize_peak_memory_is_its_result(t):
    # Whatever the zipper keeps, the rewritten subterms must be let go as
    # the walk goes, so the peak traced while normalizing stays near what
    # the result itself holds.  gc is off so no collection moves the peak.
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        result = normalize(t, 10 ** 6)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert result.normal_form
    assert peak <= 1.25 * kept, (peak, kept)


def test_normalize_corpus_digest():
    # Every term of size <= 6 over x, y, z at four fuels: the printed
    # input, fuel, step count, normal-form flag and printed result.  The
    # digest is the same on CPython 3.10-3.13.
    table = NameTable.from_labels({"x": x, "y": y, "z": z})
    records = []
    for t in all_terms(6, POOL3):
        shown = print_term(t, table)
        for fuel in (0, 1, 2, 1000):
            r = normalize(t, fuel)
            records.append(repr((shown, fuel, r.steps, r.normal_form, print_term(r.term, table))))
    assert len(records) == 19848
    assert sha256_of_lines(records) == (
        "17df4b90a51e6f16c416f0881eb1f17dac29e00fe575fa157e9f18ad6475d989")


def test_normalize_with_no_fuel_gives_back_the_term():
    for t in all_terms(5, POOL3):
        assert normalize(t, 0).term is t


def test_normalize_plugs_an_unsearched_sibling_back_unbuilt():
    r, s = App(Lam(y, Var(y)), Var(z)), App(Lam(z, Var(z)), Var(x))
    got = normalize(App(App(Var(x), r), s), 1)
    assert got.term == App(App(Var(x), Var(z)), s)
    assert got.term.arg is s


def test_term_size_and_enumeration_counts():
    assert term_size(Lam(x, App(Var(x), Var(y)))) == 4
    assert [len(terms_of_size(s, POOL3)) for s in range(1, 6)] == [
        3,
        9,
        36,
        162,
        783,
    ]
    assert all(term_size(t) <= 4 for t in all_terms(4, POOL3))


@pytest.mark.parametrize("size", [1, 2, 90, 1500])
def test_terms_of_size_over_an_empty_pool_is_empty(size):
    # Every term has a variable, so no pool means no terms; the answer
    # must come at once, without building a row per size.
    assert terms_of_size(size, (), (x,)) == ()
    assert terms_of_size(size, ()) == ()


def sha256_of_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_enumeration_order_digest():
    # Sweeps and the oracle-small benchmark read terms in this order.
    terms = itertools.chain(all_terms(7, POOL3), all_terms(6, POOL3, (x, Name(7))),
                            terms_of_size(5, (x,), ()))
    assert sha256_of_lines(map(repr, terms)) == (
        "68e9138d5e539ed5f0a6125b1805f48785e9aea9aecdbb46450236f60c69799e")


def test_enumeration_keeps_nothing_after_a_sweep():
    pool = (Name(100), Name(101), Name(102))  # no other test enumerates it
    gc.collect()
    tracemalloc.start()
    try:
        assert sum(1 for _ in all_terms(7, pool)) == 25779
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 64 * 1024, kept


def test_enumeration_edges():
    assert terms_of_size(0, POOL3) == terms_of_size(-3, POOL3) == ()
    assert list(all_terms(0, POOL3)) == list(all_terms(-1, POOL3)) == []
    assert terms_of_size(4, list(POOL3), [x]) == terms_of_size(4, POOL3, (x,))
    assert all(type(t) is not Lam for t in all_terms(5, POOL3, ()))
    assert len(terms_of_size(5, POOL3, ())) == 2 * 3**3  # two shapes, three leaves
    with pytest.raises(TypeError):
        terms_of_size(2.5, POOL3)
    with pytest.raises(TypeError):
        next(all_terms(2.0, POOL3))


def test_enumeration_is_lazy_and_shares_subterms(monkeypatch):
    counts = count_constructions(monkeypatch)
    first = next(all_terms(9, tuple(Name(i) for i in range(6))))
    assert first == Var(Name(0)) and counts[App] == counts[Lam] == 0
    terms = list(all_terms(4, POOL3))
    seen = set()
    for t in terms:  # every child is a term given out before, not a copy
        kids = (t.body,) if type(t) is Lam else () if type(t) is Var else (t.fn, t.arg)
        assert all(id(k) in seen for k in kids)
        seen.add(id(t))
