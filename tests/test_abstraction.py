import dataclasses
import itertools
import random

import pytest

from nomset.abstraction import (
    Abstraction,
    abs_act,
    abs_support,
    alpha_equiv_dec,
    alpha_universal_probe,
    instance_abstraction,
)
from nomset.atoms import Name, fresh_for, fresh_many
from nomset.freshness import WitnessError, fresh_dec
from nomset.lam import Var
from nomset.nominal import check_laws, instance_name, instance_pair
from nomset.perms import swap_perm
from nomset.samplers import abstraction_gen, name_gen, pair_gen, perm_gen

a, b, z = Name(0), Name(1), Name(2)

iname = instance_name()
iabs = instance_abstraction(iname)


def test_alpha_binding_the_whole_body():
    assert alpha_equiv_dec(iname, Abstraction(a, a), Abstraction(b, b))


def test_alpha_with_shared_free_name():
    assert alpha_equiv_dec(iname, Abstraction(a, z), Abstraction(b, z))


def test_alpha_distinguishes_bound_from_free():
    assert not alpha_equiv_dec(iname, Abstraction(a, a), Abstraction(a, z))


def test_probe_empty_witness_set_is_vacuous():
    assert alpha_universal_probe(
        iname, Abstraction(a, a), Abstraction(a, z), frozenset()
    )


def test_probe_rejects_unfresh_witness():
    with pytest.raises(WitnessError):
        alpha_universal_probe(
            iname, Abstraction(a, z), Abstraction(b, z), frozenset({z})
        )


def test_probe_with_canonical_witness_matches_decision():
    rng = random.Random(2)
    gen = abstraction_gen(name_gen(), name_gen())
    for _ in range(300):
        left, right = gen(rng), gen(rng)
        c = fresh_for(
            frozenset({left.name, right.name})
            | iname.support(left.term)
            | iname.support(right.term)
        )
        probe = alpha_universal_probe(iname, left, right, frozenset({c}))
        assert probe == alpha_equiv_dec(iname, left, right)


def test_probe_agrees_on_many_fresh_witnesses():
    rng = random.Random(4)
    gen = abstraction_gen(name_gen(), name_gen())
    for _ in range(300):
        left, right = gen(rng), gen(rng)
        avoid = (
            frozenset({left.name, right.name})
            | iname.support(left.term)
            | iname.support(right.term)
        )
        witnesses = frozenset(fresh_many(avoid, 5))
        assert alpha_universal_probe(
            iname, left, right, witnesses
        ) == alpha_equiv_dec(iname, left, right)


def test_abstraction_refuses_every_assignment_and_deletion():
    ab = Abstraction(a, b)
    for attr in ("name", "term", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ab, attr, z)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(ab, attr)
    assert ab == Abstraction(a, b)


def test_abstraction_binds_only_a_name():
    # A bound name without an int id, such as a term, would be read as a
    # free value: it would leave the support, be missed by the action and
    # break alpha_equiv_dec.  Every way of building one refuses it, after
    # the field errors of a bad call.
    ab = Abstraction(a, b)
    for bad in (Var(a), 0, "a", None, Name("a")):
        for build in (lambda: Abstraction(bad, b), lambda: Abstraction(term=b, name=bad),
                      lambda: dataclasses.replace(ab, name=bad)):
            with pytest.raises(TypeError, match="name must be a name"):
                build()
    with pytest.raises(TypeError, match="takes the fields"):
        Abstraction(Var(a))


def test_abs_act_identity():
    ab = Abstraction(a, z)
    assert abs_act(iname, (), ab) == ab


def test_abs_act_renames_binder_and_body():
    ab = Abstraction(a, a)
    assert abs_act(iname, swap_perm(a, b), ab) == Abstraction(b, b)


def test_action_respects_alpha():
    rng = random.Random(6)
    gen = abstraction_gen(name_gen(), name_gen())
    pgen = perm_gen()
    for _ in range(300):
        left, right = gen(rng), gen(rng)
        p = pgen(rng)
        if alpha_equiv_dec(iname, left, right):
            assert alpha_equiv_dec(
                iname, abs_act(iname, p, left), abs_act(iname, p, right)
            )


def test_abs_support_binding_occurrence():
    assert abs_support(iname, Abstraction(a, a)) == frozenset()


def test_abs_support_keeps_free_name():
    assert abs_support(iname, Abstraction(a, z)) == frozenset({z})


def test_abs_support_over_pairs():
    ip = instance_pair(iname, iname)
    assert abs_support(ip, Abstraction(a, (a, z))) == frozenset({z})


def test_abstraction_instance_satisfies_all_laws():
    report = check_laws(iabs, abstraction_gen(name_gen(), name_gen()), trials=300)
    assert report.ok, str(report)


def test_abstraction_instance_over_pairs_satisfies_all_laws():
    ip = instance_pair(iname, iname)
    report = check_laws(
        instance_abstraction(ip),
        abstraction_gen(name_gen(), pair_gen(name_gen(), name_gen())),
        trials=300,
    )
    assert report.ok, str(report)


def test_alpha_is_an_equivalence_exhaustively():
    pool = [Name(i) for i in range(4)]
    abstractions = [
        Abstraction(n, x) for n in pool for x in pool
    ]
    for ab in abstractions:
        assert alpha_equiv_dec(iname, ab, ab)
    for left, right in itertools.product(abstractions, repeat=2):
        assert alpha_equiv_dec(iname, left, right) == alpha_equiv_dec(
            iname, right, left
        )
    for x, y, w in itertools.product(abstractions, repeat=3):
        if alpha_equiv_dec(iname, x, y) and alpha_equiv_dec(iname, y, w):
            assert alpha_equiv_dec(iname, x, w)


def test_renaming_law_over_names():
    rng = random.Random(8)
    gen = abstraction_gen(name_gen(), name_gen())
    for _ in range(300):
        ab = gen(rng)
        fresh = fresh_for(iname.support(ab.term) | {ab.name})
        candidates = [fresh] + [
            n for n in (a, b, z) if fresh_dec(iname, n, ab.term)
        ]
        for new in candidates:
            renamed = Abstraction(
                new, iname.act(swap_perm(ab.name, new), ab.term)
            )
            assert alpha_equiv_dec(iname, ab, renamed)
