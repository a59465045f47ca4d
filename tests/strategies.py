"""Hypothesis strategies shared across the test modules."""

from hypothesis import strategies as st

from nomset.atoms import Name
from nomset.lam import App, Lam, Var

POOL = tuple(Name(i) for i in range(6))
TERM_POOL = tuple(Name(i) for i in range(3))

names = st.sampled_from(POOL)
wide_names = st.builds(Name, st.integers(0, 20))
swaps = st.tuples(names, names)
perms = st.lists(swaps, max_size=5).map(tuple)
# Words over a wider range of names, mixing swaps inside the pool, swaps
# reaching outside it, and degenerate swaps (a, a).
messy_swaps = st.one_of(swaps, st.tuples(names, wide_names), wide_names.map(lambda n: (n, n)))
messy_perms = st.lists(messy_swaps, max_size=8).map(tuple)

term_names = st.sampled_from(TERM_POOL)
terms = st.recursive(
    st.builds(Var, term_names),
    lambda sub: st.builds(App, sub, sub) | st.builds(Lam, term_names, sub),
    max_leaves=8,
)
