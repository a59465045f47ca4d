import random

import pytest

from nomset.abstraction import Abstraction, alpha_equiv_dec, instance_abstraction
from nomset.atoms import Name, fresh_for
from nomset.lam import Lam, Var, alpha_eq, instance_term
from nomset.nominal import instance_name, instance_nameset, instance_pair
from nomset.perms import perm_apply, swap_perm
from nomset.samplers import name_gen, nameset_gen, perm_gen, term_gen
from nomset.suppfn import (
    SuppFn,
    check_fcb,
    check_fresh_hyp,
    check_supp_spec,
    compose,
    fcb_lift,
    fn_act,
    fn_equiv_probe,
    fresh_f,
)

from .helpers import alpha_variant_abs

a, b, c = Name(0), Name(1), Name(2)

iname = instance_name()
inset = instance_nameset()
iterm = instance_term()
iabs_name = instance_abstraction(iname)

name_identity = SuppFn(lambda x: x, frozenset(), dom=iname, cod=iname)
const_a = SuppFn(lambda x: a, frozenset({a}), dom=iname, cod=iname)


def singleton_fn():
    return SuppFn(
        lambda n: frozenset({n}), frozenset(), dom=iname, cod=inset
    )


def test_apply_identity():
    assert name_identity(b) == b


def test_apply_constant():
    assert const_a(b) == a
    assert const_a(a) == a


def test_compose_applies_outer_after_inner():
    into_set = singleton_fn()
    add_b = SuppFn(
        lambda s: s | {b}, frozenset({b}), dom=inset, cod=inset
    )
    composite = compose(into_set, add_b)
    assert composite(c) == frozenset({b, c})


def test_fn_act_identity_permutation_is_pointwise_identity():
    moved = fn_act((), const_a)
    assert fn_equiv_probe(moved, const_a, [a, b, c])
    assert moved.supp == const_a.supp


def test_fn_act_conjugated_identity_is_identity():
    rng = random.Random(0)
    pgen = perm_gen()
    for _ in range(100):
        moved = fn_act(pgen(rng), name_identity)
        assert fn_equiv_probe(moved, name_identity, [Name(i) for i in range(8)])


def test_fn_act_swap_turns_constant_a_into_constant_b():
    moved = fn_act(swap_perm(a, b), const_a)
    assert moved.supp == frozenset({b})
    for x in (a, b, c):
        assert moved(x) == b


def test_fn_act_reads_its_word_once_and_checks_it_first():
    # A one-shot iterator is read once, into the support's image and the
    # conjugated function alike; a non-word meets _image's own message.
    moved = fn_act(iter(((a, b), (b, c))), const_a)
    assert moved.supp == frozenset({c})
    assert [moved(x) for x in (a, b, c)] == [c, c, c]
    for p in (5, None, [a]):
        with pytest.raises(TypeError, match="a permutation must be a word of swaps of names"):
            fn_act(p, const_a)


def test_fn_act_supp_is_the_image():
    rng = random.Random(1)
    pgen = perm_gen()
    for _ in range(100):
        p = pgen(rng)
        moved = fn_act(p, const_a)
        assert moved.supp == frozenset(perm_apply(p, n) for n in const_a.supp)


def test_fn_equiv_probe_reflexive_and_vacuous():
    assert fn_equiv_probe(const_a, const_a, [a, b, c])
    assert fn_equiv_probe(const_a, name_identity, [])


def test_fn_equiv_probe_detects_difference():
    assert not fn_equiv_probe(name_identity, const_a, [a, b])


def test_compose_with_identity_is_pointwise_same():
    composite = compose(name_identity, const_a)
    assert fn_equiv_probe(composite, const_a, [a, b, c])


def test_compose_support_is_the_union():
    into_set = singleton_fn()
    add_b = SuppFn(lambda s: s | {b}, frozenset({b}), dom=inset, cod=inset)
    drop_c = SuppFn(lambda s: s - {c}, frozenset({c}), dom=inset, cod=inset)
    assert compose(into_set, add_b).supp == frozenset({b})
    assert compose(add_b, drop_c).supp == frozenset({b, c})


def test_compose_preserves_supp_spec_sampling():
    into_set = singleton_fn()
    add_b = SuppFn(lambda s: s | {b}, frozenset({b}), dom=inset, cod=inset)
    assert check_supp_spec(into_set, name_gen(), 200).ok
    assert check_supp_spec(add_b, nameset_gen(), 200).ok
    assert check_supp_spec(compose(into_set, add_b), name_gen(), 200).ok


def test_fresh_f_of_constant_returns_the_constant():
    assert fresh_f(const_a) == a


def test_fresh_f_of_self_abstraction_is_alpha_constant():
    h = SuppFn(
        lambda n: Abstraction(n, n), frozenset(), dom=iname, cod=iabs_name
    )
    got = fresh_f(h)
    for n in (a, b, c, Name(9)):
        assert alpha_equiv_dec(iname, got, Abstraction(n, n))


def test_check_fresh_hyp_accepts_self_abstraction():
    h = SuppFn(
        lambda n: Abstraction(n, n), frozenset(), dom=iname, cod=iabs_name
    )
    assert check_fresh_hyp(h)


def test_check_fresh_hyp_rejects_identity_with_empty_support():
    assert not check_fresh_hyp(name_identity)


def test_check_fresh_hyp_accepts_constant():
    assert check_fresh_hyp(const_a)


def test_freshness_theorem_invariance_for_passing_family():
    family = [
        const_a,
        SuppFn(lambda n: Abstraction(n, n), frozenset(), dom=iname, cod=iabs_name),
        SuppFn(lambda n: Lam(n, Var(n)), frozenset(), dom=iname, cod=iterm),
        SuppFn(lambda n: frozenset({b}), frozenset({b}), dom=iname, cod=inset),
    ]
    pool = [Name(i) for i in range(6)]
    for h in family:
        assert check_fresh_hyp(h)
        outside = [n for n in pool if n not in h.supp]
        canonical = fresh_f(h)
        for x in outside:
            assert h.cod.equiv(h(x), canonical)
            for y in outside:
                assert h.cod.equiv(h(x), h(y))


def lam_constructor():
    return SuppFn(
        lambda ax: Lam(ax[0], ax[1]),
        frozenset(),
        dom=instance_pair(iname, iterm),
        cod=iterm,
    )


def test_check_fcb_accepts_binder_constructor():
    assert check_fcb(lam_constructor(), term_gen(), 100)


def test_check_fcb_rejects_projection_to_var():
    projection = SuppFn(
        lambda ax: Var(ax[0]),
        frozenset(),
        dom=instance_pair(iname, iterm),
        cod=iterm,
    )
    assert not check_fcb(projection, term_gen(), 100)


def test_check_fcb_accepts_constant():
    constant = SuppFn(
        lambda ax: Var(b),
        frozenset({b}),
        dom=instance_pair(iname, iterm),
        cod=iterm,
    )
    assert check_fcb(constant, term_gen(), 100)


def test_fcb_lift_agrees_with_binder_constructor():
    lifted = fcb_lift(iterm, lam_constructor())
    rng = random.Random(2)
    gen = term_gen()
    for n in (a, b, c):
        for _ in range(100):
            body = gen(rng)
            assert alpha_eq(lifted(Abstraction(n, body)), Lam(n, body))


def test_fcb_lift_of_constant_is_constant():
    constant = SuppFn(
        lambda ax: Var(b),
        frozenset({b}),
        dom=instance_pair(iname, iterm),
        cod=iterm,
    )
    lifted = fcb_lift(iterm, constant)
    assert alpha_eq(lifted(Abstraction(a, Var(c))), Var(b))


def test_fcb_lift_support_equals_functions_support():
    constant = SuppFn(
        lambda ax: Var(b),
        frozenset({b}),
        dom=instance_pair(iname, iterm),
        cod=iterm,
    )
    assert fcb_lift(iterm, constant).supp == frozenset({b})
    assert fcb_lift(iterm, lam_constructor()).supp == frozenset()


def test_fcb_lift_well_defined_on_alpha_classes():
    lifted = fcb_lift(iterm, lam_constructor())
    rng = random.Random(3)
    gen = term_gen()
    for _ in range(300):
        ab = Abstraction(name_gen()(rng), gen(rng))
        variant = alpha_variant_abs(iterm, ab, rng)
        assert alpha_equiv_dec(iterm, ab, variant)
        assert alpha_eq(lifted(ab), lifted(variant))


def test_check_supp_spec_accepts_identity():
    assert check_supp_spec(name_identity, name_gen(), 200).ok


def test_check_supp_spec_catches_undeclared_dependency():
    lying = SuppFn(lambda x: a, frozenset(), dom=iname, cod=iname)
    report = check_supp_spec(lying, name_gen(), 200)
    assert not report.ok
    bad_a, bad_b, _ = report.failures[0]
    assert a in (bad_a, bad_b)


def test_check_supp_spec_accepts_declared_constant():
    assert check_supp_spec(const_a, name_gen(), 200).ok


def test_suppfn_carrier_satisfies_action_laws_pointwise():
    rng = random.Random(4)
    pgen = perm_gen()
    probe = [Name(i) for i in range(8)]
    fns = [name_identity, const_a, fn_act(swap_perm(a, c), const_a)]
    for f in fns:
        assert fn_equiv_probe(fn_act((), f), f, probe)
        for _ in range(100):
            p, q = pgen(rng), pgen(rng)
            lhs = fn_act(p, fn_act(q, f))
            rhs = fn_act(q + p, f)
            assert fn_equiv_probe(lhs, rhs, probe)
            assert lhs.supp == rhs.supp


def test_suppfn_conjugation_by_fresh_swap_fixes_function():
    for f in (const_a, name_identity):
        fresh1 = fresh_for(f.supp)
        fresh2 = fresh_for(f.supp | {fresh1})
        moved = fn_act(swap_perm(fresh1, fresh2), f)
        assert fn_equiv_probe(moved, f, [Name(i) for i in range(8)])
        assert moved.supp == f.supp
