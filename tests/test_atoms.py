import copy
import dataclasses
import itertools
import pickle
import random
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nomset.abstraction import Abstraction
from nomset.atoms import Name, _Node, _Value, fresh_for, fresh_many
from nomset.lam import App, DbApp, DbFree, DbLam, DbVar, Lam, Var, all_terms, term_act, to_debruijn
from nomset.nominal import Left, Right

from .helpers import CLONES, MIRRORS, mirrored
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
    methods = ("__eq__", "__hash__", "__repr__", "__copy__", "__deepcopy__", "__reduce__")
    patched = {"__setattr__", "__delattr__", "__getstate__", "__setstate__"}
    for cls in MIRRORS:
        assert issubclass(cls, _Node), cls
        assert all(getattr(cls, m) is getattr(_Node, m) for m in methods), cls
        assert cls in (Var, App, Lam) or cls.__init__ is _Node.__init__, cls
        params = cls.__dataclass_params__
        assert not (params.eq or params.order or params.repr), cls
        assert not (patched | {"__lt__"}) & cls.__dict__.keys(), cls
        assert {f.name for f in dataclasses.fields(cls)} >= set(cls.__match_args__)
    assert issubclass(Name, _Value) and not issubclass(Name, _Node)
    assert not patched & Name.__dict__.keys()
    assert dataclasses.replace(Left(Var(Name(0))), value=3) == Left(3)
    assert dataclasses.replace(Abstraction(Name(0), 5), name=Name(1)).name == Name(1)


def test_node_constructor_takes_each_field_once():
    x = Name(0)
    built = (DbApp(DbVar(0), DbFree(x)), DbApp(DbVar(0), arg=DbFree(x)),
             DbApp(arg=DbFree(x), fn=DbVar(0)), Abstraction(term=5, name=x))
    assert built[0] == built[1] == built[2] and built[3] == Abstraction(x, 5)
    missing, extra = (lambda: Left(), lambda: Abstraction(x), lambda: Abstraction(term=5)), (
        lambda: Left(1, 2), lambda: Left(other=1), lambda: DbLam(DbVar(0), arg=1))
    repeated = (lambda: Left(1, value=1), lambda: DbApp(DbVar(0), fn=DbVar(0)))
    for build in missing + extra + repeated:
        with pytest.raises(TypeError, match="takes the fields"):
            build()


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


def subclass(cls, mirror):
    """A subclass of ``cls``, bound here so that it pickles, and one of its
    generated-dataclass ``mirror`` under the same name, so that their
    reprs compare."""
    sub = type(f"Sub{cls.__name__}", (cls,), {"__module__": __name__})
    globals()[sub.__name__] = sub
    return sub, type(sub.__name__, (mirror,), {})


SUBCLASSES = {cls: subclass(cls, mirror) for cls, mirror in MIRRORS.items()}


def subclassed_values():
    """Pairs of a value and its mirror: an instance of each subclass over
    the fields of an instance of its base, and that instance; a subclass
    instance under a node of a base type; one with a subclass node below."""
    x, y = Name(0), Name(1)
    t = Lam(x, App(Var(x), Var(y)))
    d = to_debruijn(t)
    pairs = []
    for base in (t.body.fn, t.body, t, d.body.fn, d.body.arg, d.body, d,
                 Abstraction(x, t), Left(t), Right(d)):
        sub, mirror = SUBCLASSES[type(base)]
        fields = [getattr(base, f) for f in base.__match_args__]
        pairs += ((sub(*fields), mirror(*map(mirrored, fields))), (base, mirrored(base)))
    v, m = pairs[0]
    sub, mirror = SUBCLASSES[App]
    pairs += ((Left(v), MIRRORS[Left](m)), (sub(v, Var(y)), mirror(m, mirrored(Var(y)))))
    return pairs


def test_subclasses_compare_hash_and_print_as_generated_dataclass_subclasses():
    pairs = subclassed_values()
    for v, m in pairs:
        assert repr(v) == repr(m) and hash(v) == hash(m), m
    for (u, mu), (v, mv) in itertools.product(pairs, repeat=2):
        assert (u == v, u != v) == (mu == mv, mu != mv), (mu, mv)


@pytest.mark.parametrize("how", CLONES)
def test_subclasses_copy_and_pickle_as_generated_dataclass_subclasses(how):
    # The mirrors' classes cannot be found by name, so a mirror is taken
    # to come back from pickle as it went in, as a dataclass does.
    mirror_clone = {"copy": copy.copy, "deepcopy": copy.deepcopy}.get(how, lambda m: m)
    for v, m in subclassed_values():
        c, mc = CLONES[how](v), mirror_clone(m)
        assert type(c) is type(v) and c == v and not c != v, m
        assert repr(c) == repr(mc) and hash(c) == hash(mc), m
        if how == "copy":
            assert all(getattr(c, f) is getattr(v, f) for f in v.__match_args__)


def cycles(left, right):
    """Values that hold themselves through a list, built with ``left`` and
    ``right``: one node, and two nested nodes whose list holds the outer
    one, the inner one or a new node over the inner one, with each inner
    node on its own."""
    out, one = [], []
    out.append(left(one))
    one.append(out[0])
    for hold in (lambda outer: outer, lambda outer: outer.value, lambda outer: left(outer.value)):
        held = []
        outer = left(right(held))
        held.append(hold(outer))
        out += (outer, outer.value)
    return out


def shape(v, seen=None):
    """The graph of objects reachable from ``v`` through lists and the
    fields of ``__match_args__``: each object as its class name and
    children, and one met before as the index of its first visit."""
    seen = {} if seen is None else seen
    if id(v) in seen:
        return seen[id(v)]
    seen[id(v)] = len(seen)
    if isinstance(v, list):
        return ["list", *[shape(c, seen) for c in v]]
    if hasattr(type(v), "__match_args__"):
        return [type(v).__name__, *[shape(getattr(v, f), seen) for f in v.__match_args__]]
    return repr(v)


def test_deepcopy_keeps_a_value_that_holds_itself():
    # As the generated dataclass's deepcopy did: the copy holds itself
    # where the value does, shares what the value shares, and shares
    # nothing with the value; each pair is shaped as one graph.
    def with_terms(left, term):
        held = []
        v = left([held, term, term])
        held.append(v)
        return [v]

    # The last pair: a term in a field, copied after a sibling whose leaf
    # builds a new term over it.
    a, am = Var(Name(0)), mirrored(Var(Name(0)))
    t = App(Lam(Name(0), Var(Name(1))), Var(Name(1)))
    values = cycles(Left, Right) + with_terms(Left, t) + [Abstraction(a, Left([App(a, a)]))]
    mirrors = cycles(MIRRORS[Left], MIRRORS[Right]) + with_terms(MIRRORS[Left], mirrored(t)) + [
        MIRRORS[Abstraction](am, MIRRORS[Left]([MIRRORS[App](am, am)]))]
    for v, m in zip(values, mirrors):
        assert shape([copy.deepcopy(v), v]) == shape([copy.deepcopy(m), m]), m
    copied = copy.deepcopy(values[-2]).value[1]
    assert copied == t and copied._top == 1 and copied.fn._top == 1


class FailsOnce:
    """A leaf whose first repr raises."""

    def __init__(self):
        self.failed = False

    def __repr__(self):
        if not self.failed:
            self.failed = True
            raise ValueError("first repr")
        return "FailsOnce()"


def test_repr_writes_a_node_met_inside_its_own_repr_as_dots():
    # The guard is per node, as the generated repr's was: a node is
    # written in full wherever it recurs outside its own repr.
    got = [repr(v) for v in cycles(Left, Right)]
    assert got == [repr(m) for m in cycles(MIRRORS[Left], MIRRORS[Right])]
    assert got[:3] == ["Left(value=[...])", "Left(value=Right(value=[...]))",
                       "Right(value=[Left(value=...)])"]
    t = App(Var(Name(0)), Var(Name(0)))
    shared = App(t, t)
    assert repr(shared) == repr(mirrored(shared)) and "..." not in repr(shared)
    # A repr that raises leaves no node marked open.
    v = Left(Right(FailsOnce()))
    with pytest.raises(ValueError, match="first repr"):
        repr(v)
    assert repr(v) == "Left(value=Right(value=FailsOnce()))"


def test_repr_guard_is_kept_per_thread():
    # While one thread is inside a node's repr, another thread writes the
    # same node in full.
    started, done, seen = threading.Event(), threading.Event(), []

    class Waits:
        def __repr__(self):
            if threading.current_thread() is writer:
                started.set()
                done.wait(10)
            return "Waits()"

    v = Left(Waits())
    writer = threading.Thread(target=lambda: seen.append(repr(v)))
    writer.start()
    try:
        assert started.wait(10)
        seen.append(repr(v))
    finally:
        done.set()
        writer.join(10)
    assert not writer.is_alive()
    assert seen == ["Left(value=Waits())"] * 2
