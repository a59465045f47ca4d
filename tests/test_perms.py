import pytest
from hypothesis import given
from hypothesis import strategies as st

from nomset.atoms import Name, fresh_for
from nomset.lam import Var, term_act
from nomset.abstraction import Abstraction, instance_abstraction
from nomset.nominal import (
    Left,
    _equivalent_perm,
    instance_list,
    instance_name,
    instance_nameset,
    instance_option,
    instance_pair,
    instance_sum,
)
from nomset.perms import (
    _image,
    perm_apply,
    perm_compose,
    perm_domain,
    perm_equiv,
    perm_inverse,
    swap_apply,
)
from nomset.suppfn import SuppFn, fn_act

from .helpers import reference_perm_apply, reference_perm_equiv
from .strategies import POOL, messy_perms, names, perms, wide_names

a, b, c, d = Name(0), Name(1), Name(2), Name(3)

# Every word of at most two swaps over three names: 1 + 9 + 81.
SWAPS3 = [(m, n) for m in (a, b, c) for n in (a, b, c)]
WORDS2 = [()] + [(s,) for s in SWAPS3] + [(s, t) for s in SWAPS3 for t in SWAPS3]


def reference_image(p):
    """Each moved name's index mapped to its image, by the reference."""
    moved = {}
    for n in perm_domain(p):
        m = reference_perm_apply(p, n)
        if m != n:
            moved[n.id] = m
    return moved


def test_swap_apply_first():
    assert swap_apply((a, b), a) == b


def test_swap_apply_second():
    assert swap_apply((a, b), b) == a


def test_swap_apply_fixpoint():
    assert swap_apply((a, b), c) == c


def test_swap_apply_degenerate():
    assert swap_apply((a, a), a) == a


def test_perm_apply_identity():
    assert perm_apply((), a) == a


def test_perm_apply_chains_left_to_right():
    # n1 -> n2 by the first swap, then n2 -> n3 by the second.
    p = ((Name(1), Name(2)), (Name(2), Name(3)))
    assert perm_apply(p, Name(1)) == Name(3)


@given(perms, names)
def test_perm_then_reverse_is_identity(p, x):
    assert perm_apply(p + perm_inverse(p), x) == x


@given(perms)
def test_compose_left_identity(p):
    assert perm_equiv(perm_compose((), p), p)
    assert perm_equiv(perm_compose(p, ()), p)


@given(perms)
def test_compose_with_reverse_is_identity(p):
    assert perm_equiv(perm_compose(p, perm_inverse(p)), ())
    assert perm_equiv(perm_compose(perm_inverse(p), p), ())


@given(perms, perms, names)
def test_compose_applies_first_operand_first(p, q, x):
    assert perm_apply(perm_compose(p, q), x) == perm_apply(q, perm_apply(p, x))


@given(perms, perms, perms)
def test_compose_associative(p, q, r):
    assert perm_equiv(
        perm_compose(perm_compose(p, q), r), perm_compose(p, perm_compose(q, r))
    )


def test_inverse_empty():
    assert perm_inverse(()) == ()


def test_inverse_single_swap_is_itself():
    assert perm_inverse(((a, b),)) == ((a, b),)


def test_inverse_reverses_swap_order():
    p = ((a, b), (c, d))
    assert perm_inverse(p) == ((c, d), (a, b))
    for x in (a, b, c, d):
        assert perm_apply(perm_inverse(p), perm_apply(p, x)) == x


def test_perm_domain_empty():
    assert perm_domain(()) == frozenset()


def test_perm_domain_lists_swap_names():
    assert perm_domain(((a, b),)) == frozenset({a, b})


def test_perm_domain_keeps_degenerate_swap():
    # Upper bound on the moved set, which here is empty.
    assert perm_domain(((a, a),)) == frozenset({a})


def test_perm_equiv_degenerate_swap_is_identity():
    assert perm_equiv(((a, a),), ())


def test_perm_equiv_swap_is_symmetric():
    assert perm_equiv(((a, b),), ((b, a),))


def test_perm_equiv_detects_difference():
    assert not perm_equiv(((a, b),), ((a, c),))


def test_swap_twice_is_identity():
    assert perm_equiv(perm_compose(((a, b),), ((a, b),)), ())


@given(perms, perms)
def test_perm_equiv_sound_outside_domains(p, q):
    if perm_equiv(p, q):
        far = fresh_for(perm_domain(p) | perm_domain(q))
        probes = [far, Name(far.id + 7), Name(far.id + 23)]
        for x in probes:
            assert perm_apply(p, x) == perm_apply(q, x)


@given(perms)
def test_injective_on_probe_set(p):
    probe = [Name(i) for i in range(10)]
    images = [perm_apply(p, x) for x in probe]
    assert len(set(images)) == len(probe)


def test_perm_apply_fixes_what_is_not_a_name():
    for v in (5, "x", None, (a, b)):
        assert perm_apply(((a, b), (b, c)), v) is v


def test_image_drops_fixed_points():
    assert _image(((a, a),)) == {}
    assert _image(((a, b), (b, a))) == {}
    assert _image(((a, b), (b, c))) == {a.id: c, b.id: a, c.id: b}


def test_perm_equiv_matches_reference_on_every_pair_of_short_words():
    assert len(WORDS2) == 91
    for p in WORDS2:
        for q in WORDS2:
            assert perm_equiv(p, q) == reference_perm_equiv(p, q), (p, q)


def test_perm_apply_and_image_match_reference_on_every_short_word():
    for p in WORDS2:
        for n in (a, b, c, d):
            assert perm_apply(p, n) == reference_perm_apply(p, n), (p, n)
        assert _image(p) == reference_image(p), p


@given(messy_perms, messy_perms)
def test_perm_equiv_matches_reference(p, q):
    assert perm_equiv(p, q) == reference_perm_equiv(p, q)


@given(messy_perms, st.randoms(use_true_random=False))
def test_perm_equiv_accepts_rewritten_words(p, rng):
    # Degenerate swaps, doubled swaps and flipped pairs keep the bijection.
    q = _equivalent_perm(rng, p, POOL)
    assert perm_equiv(p, q) and reference_perm_equiv(p, q)


@given(messy_perms, wide_names)
def test_perm_apply_and_image_match_reference(p, n):
    assert perm_apply(p, n) == reference_perm_apply(p, n)
    assert _image(p) == reference_image(p)


# Words that are not words of swaps of names: a swap holding a non-name,
# first, second, later in the word or both, degenerate or not; a swap that
# is not a pair; and a ``p`` that is not a word at all.
NON_NAMES = (Name("a"), Name(2.5), Name(None), Name(True), object())
BAD_WORDS = (
    ((a, 5),), ((5, a),), ((b, a), (a, "z")), ((a,),), (a,), 5, ((a, b, a),),
    *(w for bad in NON_NAMES for w in (((a, bad),), ((bad, a),), ((b, c), (c, bad)), ((bad, bad),))),
)


def test_every_image_building_action_rejects_a_word_that_is_not_of_names():
    iname = instance_name()
    const_a = SuppFn(lambda n: a, frozenset({a}), dom=iname, cod=iname)
    actions = (
        lambda p: perm_equiv(p, ()),
        lambda p: perm_equiv((), p),
        lambda p: instance_nameset().act(p, frozenset({a, b})),
        lambda p: fn_act(p, const_a),
        lambda p: term_act(p, Var(a)),
    )
    assert len(BAD_WORDS) == 27
    for p in BAD_WORDS:
        with pytest.raises(TypeError, match="a permutation must be a word of swaps of names"):
            _image(p)
        for act in actions:
            with pytest.raises(TypeError):
                act(p)


def test_every_word_reading_action_rejects_a_word_that_is_not_of_names():
    iname = instance_name()
    actions = (
        lambda p: perm_apply(p, a),
        lambda p: perm_apply(p, 5),  # the word is read even for a non-name
        lambda p: iname.act(p, a),
        lambda p: instance_pair(iname, iname).act(p, (a, b)),
        lambda p: instance_sum(iname, iname).act(p, Left(a)),
        lambda p: instance_option(iname).act(p, a),
        lambda p: instance_list(iname).act(p, (a, b)),
        lambda p: instance_abstraction(iname).act(p, Abstraction(a, b)),
    )
    for p in BAD_WORDS:
        for act in actions:
            with pytest.raises(TypeError, match="a permutation must be a word of swaps of names"):
                act(p)
