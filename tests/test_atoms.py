import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nomset.abstraction import Abstraction
from nomset.atoms import Name, fresh_for, fresh_many
from nomset.lam import Var, all_terms, term_act, to_debruijn
from nomset.nominal import Left, Right

from .helpers import MIRRORS, mirrored
from .strategies import wide_names

name_sets = st.frozensets(wide_names, max_size=12)


def test_fresh_for_empty_set():
    assert fresh_for(frozenset()) == Name(0)


def test_fresh_for_dense_prefix():
    avoid = frozenset({Name(0), Name(1), Name(2)})
    assert fresh_for(avoid) == Name(3)


def test_fresh_for_gap():
    avoid = frozenset({Name(5)})
    got = fresh_for(avoid)
    assert got not in avoid
    assert got == Name(6)


@given(name_sets)
def test_fresh_for_avoids_and_is_deterministic(avoid):
    assert fresh_for(avoid) not in avoid
    assert fresh_for(avoid) == fresh_for(avoid)


def test_fresh_many_zero():
    assert fresh_many(frozenset({Name(2)}), 0) == ()


def test_fresh_many_empty_set_policy():
    assert fresh_many(frozenset(), 2) == (Name(0), Name(1))


def test_fresh_many_avoids_given_name():
    got = fresh_many(frozenset({Name(0)}), 2)
    assert len(got) == 2
    assert len(set(got)) == 2
    assert Name(0) not in got


@given(name_sets, st.integers(0, 6))
def test_fresh_many_distinct_and_disjoint(avoid, k):
    got = fresh_many(avoid, k)
    assert len(got) == k
    assert len(set(got)) == k
    assert not (set(got) & avoid)


@given(name_sets, st.integers(0, 6))
def test_fresh_many_matches_repeated_fresh_for(avoid, k):
    taken, expected = set(avoid), []
    for _ in range(k):
        n = fresh_for(frozenset(taken))
        expected.append(n)
        taken.add(n)
    assert fresh_many(avoid, k) == tuple(expected)


def test_name_keeps_its_dataclass_behaviour():
    a = Name(3)
    assert a == Name(3) and a != Name(4) and a != 3
    assert hash(a) == hash(Name(3)) == hash((3,))
    assert Name(2) < a <= Name(3) < Name(10)
    assert sorted([Name(5), Name(1), Name(3)]) == [Name(1), Name(3), Name(5)]
    assert repr(a) == "Name(3)"
    assert Name.__match_args__ == ("id",)
    assert Name(id=7) == Name(7)
    match a:
        case Name(i):
            assert i == 3
    # An attribute the class does not declare is refused alike, not met
    # by a TypeError from the generated __setattr__'s super() call.
    for attr in ("id", "other", "__dict__"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, attr, 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(a, attr)
    assert a.id == 3 and not hasattr(a, "other")
    b = dataclasses.replace(a, id=9)
    assert type(b) is Name and b.id == 9 and a.id == 3


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy]
    + [lambda a, p=p: pickle.loads(pickle.dumps(a, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)],
)
def test_name_copies_and_pickles(clone):
    for a in (Name(0), Name(12345)):
        c = clone(a)
        assert type(c) is Name and c == a and c.id == a.id and hash(c) == hash(a)


def test_value_types_share_one_walker_per_method():
    methods = ("__eq__", "__hash__", "__repr__", "__copy__", "__reduce__")
    for cls in MIRRORS:
        assert all(getattr(cls, m) is getattr(Var, m) for m in methods), cls
        params = cls.__dataclass_params__
        assert params.frozen and not (params.eq or params.order or params.repr), cls
        assert not {"__getstate__", "__setstate__", "__lt__"} & cls.__dict__.keys(), cls
        assert {f.name for f in dataclasses.fields(cls)} >= set(cls.__match_args__)
    assert dataclasses.replace(Left(Var(Name(0))), value=3) == Left(3)
    assert dataclasses.replace(Abstraction(Name(0), 5), name=Name(1)).name == Name(1)


def test_walkers_match_generated_dataclasses():
    # hash and repr on every term of size <= 6 over three names, its de
    # Bruijn image and three wrappers; == on the pairs of each value with
    # the same form of the next term in the enumeration, on random pairs,
    # and on equal pairs of distinct objects: each term and its image
    # against a second build of either.
    x = Name(0)
    rng = random.Random(21)
    terms = list(all_terms(6, (x, Name(1), Name(2))))
    assert len(terms) == 4962
    forms = [lambda t: t, to_debruijn, lambda t: Abstraction(x, t), Left,
             lambda t: Right(to_debruijn(t))]
    values = [form(t) for form in forms for t in terms]
    mirrors = [mirrored(v) for v in values]
    for v, m in zip(values, mirrors):
        assert hash(v) == hash(m) and repr(v) == repr(m), v
    pairs = [(i, i + 1) for i in range(len(values) - 1) if (i + 1) % len(terms)]
    pairs += [(rng.randrange(len(values)), rng.randrange(len(values))) for _ in range(10_000)]
    pairs = [(values[i], values[j], mirrors[i], mirrors[j]) for i, j in pairs]
    for t in terms:
        for u, v in ((t, term_act((), t)), (to_debruijn(t), to_debruijn(t))):
            pairs.append((u, v, mirrored(u), mirrored(v)))
    equal = 0
    for u, v, mu, mv in pairs:
        assert (u == v) == (mu == mv), (u, v)
        equal += u == v
    assert 2 * 4962 < equal < len(pairs) - 10_000
