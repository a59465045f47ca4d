"""Random value generators for the law checkers.

Each sampler takes a ``random.Random`` and returns one value, matching the
``Gen`` shape the checkers expect.  Combinator samplers mirror the
instance combinators.
"""

from __future__ import annotations

import random
from typing import TypeVar

from .abstraction import Abstraction
from .atoms import Name
from .lam import App, Lam, Term, Var
from .nominal import DEFAULT_POOL, Gen, Left, Right, random_perm
from .perms import Perm

X = TypeVar("X")
Y = TypeVar("Y")


def name_gen(pool: tuple[Name, ...] = DEFAULT_POOL) -> Gen[Name]:
    return lambda rng: rng.choice(pool)


def bool_gen() -> Gen[bool]:
    return lambda rng: rng.random() < 0.5


def pair_gen(gx: Gen[X], gy: Gen[Y]) -> Gen[tuple[X, Y]]:
    return lambda rng: (gx(rng), gy(rng))


def sum_gen(gx: Gen[X], gy: Gen[Y]) -> Gen:
    return lambda rng: Left(gx(rng)) if rng.random() < 0.5 else Right(gy(rng))


def option_gen(gx: Gen[X], none_weight: float = 0.25) -> Gen:
    return lambda rng: None if rng.random() < none_weight else gx(rng)


def tuple_gen(gx: Gen[X], max_len: int = 4) -> Gen[tuple[X, ...]]:
    def gen(rng: random.Random) -> tuple[X, ...]:
        return tuple(gx(rng) for _ in range(rng.randrange(max_len + 1)))

    return gen


def nameset_gen(pool: tuple[Name, ...] = DEFAULT_POOL) -> Gen[frozenset]:
    def gen(rng: random.Random) -> frozenset:
        return frozenset(n for n in pool if rng.random() < 0.4)

    return gen


def perm_gen(
    pool: tuple[Name, ...] = DEFAULT_POOL, max_len: int = 5
) -> Gen[Perm]:
    return lambda rng: random_perm(rng, pool, max_len)


def abstraction_gen(
    gname: Gen[Name], gx: Gen[X]
) -> Gen[Abstraction[X]]:
    return lambda rng: Abstraction(gname(rng), gx(rng))


def term_gen(
    pool: tuple[Name, ...] = DEFAULT_POOL[:3], max_size: int = 8
) -> Gen[Term]:
    """Random terms with at most ``max_size`` constructors."""

    def build(rng: random.Random, budget: int) -> Term:
        if budget <= 1:
            return Var(rng.choice(pool))
        roll = rng.random()
        if roll < 0.35:
            return Var(rng.choice(pool))
        if roll < 0.65:
            return Lam(rng.choice(pool), build(rng, budget - 1))
        left = rng.randrange(1, budget - 1) if budget > 2 else 1
        return App(build(rng, left), build(rng, budget - 1 - left))

    return lambda rng: build(rng, max_size)

