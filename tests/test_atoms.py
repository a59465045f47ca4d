from hypothesis import given
from hypothesis import strategies as st

from nomset.atoms import Name, fresh_for, fresh_many

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
