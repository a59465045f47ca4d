import dataclasses
import random

import pytest

from nomset.atoms import Name
from nomset.nominal import (
    LawReport,
    LawResult,
    Left,
    NominalInstance,
    Right,
    check_laws,
    instance_list,
    instance_name,
    instance_nameset,
    instance_option,
    instance_pair,
    instance_sum,
    instance_trivial,
)
from nomset.perms import perm_apply, swap_perm
from nomset.samplers import (
    bool_gen,
    name_gen,
    nameset_gen,
    option_gen,
    pair_gen,
    perm_gen,
    sum_gen,
    tuple_gen,
)

a, b, c = Name(0), Name(1), Name(2)

SHIPPED = [
    ("name", instance_name(), name_gen()),
    ("bool", instance_trivial(), bool_gen()),
    ("pair", instance_pair(instance_name(), instance_name()), pair_gen(name_gen(), name_gen())),
    ("sum", instance_sum(instance_name(), instance_trivial()), sum_gen(name_gen(), bool_gen())),
    ("option", instance_option(instance_name()), option_gen(name_gen())),
    ("list", instance_list(instance_name()), tuple_gen(name_gen())),
    ("nameset", instance_nameset(), nameset_gen()),
]


def test_name_instance_acts_by_application():
    i = instance_name()
    assert i.act(swap_perm(a, b), a) == b
    assert i.act((), a) == a


def test_name_supported_by_its_singleton():
    assert instance_name().support(a) == frozenset({a})


def test_trivial_instance_is_fixed_by_every_permutation():
    i = instance_trivial()
    assert i.act(swap_perm(a, b), True) is True
    assert i.support(False) == frozenset()
    assert i.act(swap_perm(a, b), None) is None


def test_pair_acts_componentwise():
    i = instance_pair(instance_name(), instance_name())
    assert i.act(swap_perm(a, b), (a, b)) == (b, a)
    assert i.equiv((a, b), (a, b))


def test_pair_support_is_union():
    i = instance_pair(instance_name(), instance_trivial())
    assert i.support((a, True)) == frozenset({a})
    both = instance_pair(instance_name(), instance_name())
    assert both.support((a, b)) == frozenset({a, b})


def test_sum_tags_are_never_equivalent():
    i = instance_sum(instance_name(), instance_name())
    assert not i.equiv(Left(a), Right(a))
    assert i.equiv(Left(a), Left(a))
    assert i.act(swap_perm(a, b), Left(a)) == Left(b)
    assert i.support(Right(c)) == frozenset({c})


@pytest.mark.parametrize("tag", [Left, Right])
def test_sum_tags_refuse_every_assignment_and_deletion(tag):
    v = tag(Name(0))
    for attr in ("value", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, attr, Name(1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(v, attr)
    assert v == tag(Name(0))


def test_option_none_is_trivially_supported():
    i = instance_option(instance_name())
    assert i.act(swap_perm(a, b), None) is None
    assert i.support(None) == frozenset()
    assert not i.equiv(None, a)
    assert i.equiv(i.act(swap_perm(a, b), a), b)


def test_list_acts_pointwise():
    i = instance_list(instance_name())
    assert i.act(swap_perm(a, b), ()) == ()
    assert i.support((a, b)) == frozenset({a, b})
    assert i.act(swap_perm(a, b), (a, c)) == (b, c)


def test_nameset_action_is_elementwise_image():
    i = instance_nameset()
    assert i.act(swap_perm(a, b), frozenset({a, c})) == frozenset({b, c})
    assert i.support(frozenset({a, c})) == frozenset({a, c})


@pytest.mark.parametrize("label,inst,gen", SHIPPED, ids=[s[0] for s in SHIPPED])
def test_shipped_instances_satisfy_all_laws(label, inst, gen):
    report = check_laws(inst, gen, trials=300)
    assert report.ok, f"{label}: {report}"


def test_broken_support_fails_support_spec_with_witness():
    broken = NominalInstance(
        equiv=lambda x, y: x == y,
        act=perm_apply,
        support=lambda x: frozenset(),
    )
    report = check_laws(broken, name_gen(), trials=300)
    failed = {r.law for r in report.failures()}
    assert "support_spec" in failed
    witness = next(r for r in report.results if r.law == "support_spec")
    assert witness.counterexample is not None


def test_broken_instance_report_is_pinned():
    # An equivalence that is not symmetric and a support that misses the
    # name: three laws fail, two of them on values from the equivalent-value
    # draw.  The counterexamples are fixed by the seed's random stream.
    broken = NominalInstance(
        equiv=lambda m, n: m.id <= n.id,
        act=perm_apply,
        support=lambda m: frozenset(),
    )
    n0, n1, n2, n4 = Name(0), Name(1), Name(2), Name(4)
    assert check_laws(broken, name_gen(), trials=20, seed=1) == LawReport((
        LawResult("equiv_reflexive", 20, True),
        LawResult("equiv_symmetric", 20, False, (n2, n1)),
        LawResult("equiv_transitive", 20, True),
        LawResult("gact_id", 20, True),
        LawResult("gact_compat", 20, True),
        LawResult("gact_proper", 20, False, (
            ((n0, n4), (n4, n1), (n4, n0)),
            ((n2, n0), (n2, n0), (n2, n4), (n2, n4), (n0, n4), (n4, n1), (n4, n0)),
            n0,
            n1,
        )),
        LawResult("support_spec", 20, False, (n0, n1, n0)),
    ))


@pytest.mark.parametrize("label,inst,gen", SHIPPED, ids=[s[0] for s in SHIPPED])
def test_support_image_is_equivariant(label, inst, gen):
    rng = random.Random(7)
    pgen = perm_gen()
    for _ in range(300):
        x = gen(rng)
        p = pgen(rng)
        image = frozenset(perm_apply(p, n) for n in inst.support(x))
        assert inst.support(inst.act(p, x)) == image


def test_nested_combinators_compose():
    inner = instance_pair(instance_name(), instance_option(instance_name()))
    i = instance_list(inner)
    xs = ((a, None), (b, c))
    assert i.support(xs) == frozenset({a, b, c})
    assert i.act(swap_perm(a, c), xs) == ((c, None), (b, a))


def small_carriers():
    import itertools

    pool4 = [Name(i) for i in range(4)]
    pool6 = [Name(i) for i in range(6)]
    lists = [
        tuple(v)
        for k in range(4)
        for v in itertools.product(pool4[:3], repeat=k)
    ]
    namesets = [
        frozenset(s)
        for k in range(5)
        for s in itertools.combinations(pool4, k)
    ]
    return [
        ("name", instance_name(), pool6),
        ("bool", instance_trivial(), [True, False]),
        (
            "pair",
            instance_pair(instance_name(), instance_name()),
            [(p, q) for p in pool4 for q in pool4],
        ),
        (
            "sum",
            instance_sum(instance_name(), instance_trivial()),
            [Left(n) for n in pool4] + [Right(v) for v in (True, False)],
        ),
        ("option", instance_option(instance_name()), [None] + pool4),
        ("list", instance_list(instance_name()), lists),
        ("nameset", instance_nameset(), namesets),
    ]


@pytest.mark.parametrize(
    "label,inst,values", small_carriers(), ids=[s[0] for s in small_carriers()]
)
def test_laws_exhaustively_on_enumerated_values(label, inst, values):
    # Every value of the small carrier, against every short swap word.
    pool4 = [Name(i) for i in range(4)]
    perms = [()] + [((p, q),) for p in pool4 for q in pool4]
    for v in values:
        assert inst.equiv(v, v)
        assert inst.equiv(inst.act((), v), v)
        support = inst.support(v)
        outside = [n for n in pool4 if n not in support]
        outside.append(Name(6))
        for na in outside:
            for nb in outside:
                assert inst.equiv(inst.act(swap_perm(na, nb), v), v)
        for p in perms:
            padded = p + ((Name(5), Name(5)),)
            assert inst.equiv(inst.act(p, v), inst.act(padded, v))
            for q in perms:
                lhs = inst.act(p, inst.act(q, v))
                rhs = inst.act(q + p, v)
                assert inst.equiv(lhs, rhs)
