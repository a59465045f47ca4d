"""normalize-church: ``normalize`` on Church arithmetic and ``subst`` into
nested binders, on terms built fresh for every op.

One round holds, in a seeded order:

* ``2^k`` as ``c_k c_2`` for k = 1..9, which takes ``2^(k+1) - 2`` steps;
* ``m x n`` as ``mult c_m c_n`` for m = 1..30 and n = 7m mod 31, a fixed
  permutation of 1..30, which takes ``2m + 3`` steps;
* ``subst`` of ``x`` into a chain of nested binders at depths 40, 80,
  120, 160 and 200, the replacement mentioning a chain binder free so
  that capture must be avoided;
* two application spines deeper than the default recursion limit, which
  are already normal (0 steps).

The menu is the same in every round, so rounds cost alike and their
rates can be compared; the seed draws the order, the spine depths and
every binder and free name, so no two ops share a term.  Expected normal forms are de Bruijn tokens built directly.
"""

from __future__ import annotations

import random

from harness import Op
from refs import church_db, splice_free, term_db, term_key, term_size

NAME = "normalize-church"
WHY = (
    "few calls on large freshly built terms: beta_step redex search and "
    "subst's per-binder fv/swap/fresh work; alpha_eq barely runs"
)
SETUP = "from nomset import normalize, subst"
FUEL = 10**6
POWERS = range(1, 10)
FACTORS = range(1, 31)
CHAIN_DEPTHS = (40, 80, 120, 160, 200)
SPINES_PER_ROUND = 2
SPINE_DEPTHS = (1100, 2500)

TAIL_D = 10  # latency_tail_ms at p90; see harness.tail


class Workload:
    def __init__(self, api):
        pass

    def rounds(self, seed: int):
        rng = random.Random(seed)
        while True:
            batch = [_power(rng, k) for k in POWERS]
            batch += [_product(rng, m, 7 * m % 31) for m in FACTORS]
            batch += [_chain(rng, d) for d in CHAIN_DEPTHS]
            batch += [_spine(rng, rng.randint(*SPINE_DEPTHS))
                      for _ in range(SPINES_PER_ROUND)]
            rng.shuffle(batch)
            yield batch


def _names(rng: random.Random, k: int):
    from nomset import Name

    return [Name(i) for i in rng.sample(range(1_000_000), k)]


def _church(n: int, f, x):
    from nomset import App, Lam, Var

    body = Var(x)
    for _ in range(n):
        body = App(Var(f), body)
    return Lam(f, Lam(x, body))


def _normalize_op(term, steps: int, expect_db: tuple, deep=False) -> Op:
    size = term_size(term)

    def check(out, tally):
        tally["normalize.beta_steps"] += out.steps
        tally["normalize.peak_term_size"] = max(
            tally["normalize.peak_term_size"], size, term_size(out.term))
        return (out.normal_form is True and out.steps == steps
                and term_db(out.term) == expect_db)

    return Op(kind="normalize", key=term_key(term),
              call=lambda api: api.normalize(term, FUEL),
              check=check, size=size, deep=deep)


def _power(rng, k: int) -> Op:
    from nomset import App

    f1, x1, f2, x2 = _names(rng, 4)
    term = App(_church(k, f1, x1), _church(2, f2, x2))
    return _normalize_op(term, 2 ** (k + 1) - 2, church_db(2 ** k))


def _product(rng, m: int, n: int) -> Op:
    from nomset import App, Lam, Var

    a, b, g, f1, x1, f2, x2 = _names(rng, 7)
    mult = Lam(a, Lam(b, Lam(g, App(Var(a), App(Var(b), Var(g))))))
    term = App(App(mult, _church(m, f1, x1)), _church(n, f2, x2))
    return _normalize_op(term, 2 * m + 3, church_db(m * n))


def _spine(rng, depth: int) -> Op:
    from nomset import App, Var

    pool = _names(rng, 3)
    term = Var(pool[0])
    for _ in range(depth):
        term = App(term, Var(rng.choice(pool)))
    return _normalize_op(term, 0, term_db(term), deep=True)


def _chain(rng, depth: int) -> Op:
    """``\\b1. ... \\bd. x b_i ... y`` with ``x := b_j z``."""
    from nomset import App, Lam, Var

    names = _names(rng, depth + 3)
    binders, (x, y, z) = names[:depth], names[depth:]
    body = Var(x)
    for b in sorted(rng.sample(binders, min(depth, 8)), key=binders.index):
        body = App(body, Var(b))
    body = App(App(body, Var(x)), Var(y))
    term = body
    for b in reversed(binders):
        term = Lam(b, term)
    u = App(Var(rng.choice(binders)), Var(z))
    expect = splice_free(term_db(term), x.id, term_db(u))

    return Op(kind="subst", key=(term_key(term), x.id, term_key(u)),
              call=lambda api: api.subst(term, x, u),
              check=lambda out, tally: term_db(out) == expect,
              size=term_size(term))
