"""The nominal interface and its stock instances.

A carrier is made nominal by an explicit instance record bundling three
pure functions:

* ``equiv``   -- a decidable equivalence relation on the carrier,
* ``act``     -- a permutation action,
* ``support`` -- a finite upper bound on the names a value depends on.

An instance is lawful when

* ``equiv`` is reflexive, symmetric and transitive,
* ``gact_id``:      ``act((), x) ~ x``,
* ``gact_compat``:  ``act(p, act(q, x)) ~ act(perm_compose(q, p), x)``,
* ``gact_proper``:  extensionally equal permutations applied to equivalent
  values give equivalent results,
* ``support_spec``: swapping two names outside ``support(x)`` fixes ``x``
  up to ``equiv``.

``support`` returns *some* support (a finite upper bound), not a least
support; least supports are not computable in general.  ``equiv`` is a
boolean test rather than a propositional relation because the freshness
and alpha-equivalence decision procedures downstream must be executable.

Instances compose by explicit combinators (``instance_pair`` and friends);
there is no implicit resolution, so the instance graph is always visible
at the call site.  ``check_laws`` is the randomized surrogate for a law
proof: it samples each law and reports a counterexample on failure.

To make your own carrier nominal: (1) define a permutation action,
(2) define a support function, (3) define an equivalence test, (4) bundle
them in a ``NominalInstance``, (5) run ``check_laws`` against a generator
for your carrier until all laws pass.
"""

from __future__ import annotations

import random
from typing import Callable, Generic, TypeVar

from .atoms import Name, NameSet, _Node, fresh_many
from .perms import Perm, _nameset_act, perm_apply, perm_compose, swap_perm

X = TypeVar("X")
Y = TypeVar("Y")

Gen = Callable[[random.Random], X]


class NominalInstance(_Node, Generic[X]):
    """Equivalence, permutation action and support for one carrier."""

    __slots__ = __match_args__ = ("equiv", "act", "support")
    equiv: Callable[[X, X], bool]
    act: Callable[[Perm, X], X]
    support: Callable[[X], NameSet]


# ---------------------------------------------------------------------------
# Stock instances
# ---------------------------------------------------------------------------

def instance_name() -> NominalInstance[Name]:
    """Names: the action is application, ``a`` is supported by ``{a}``."""
    return NominalInstance(
        equiv=lambda a, b: a == b,
        act=perm_apply,
        support=lambda a: frozenset((a,)),
    )


def instance_trivial() -> NominalInstance:
    """The trivial instance: permutations fix everything, support is empty.

    Works for any value with ordinary equality (booleans, ``None``, ints,
    strings, ...).
    """
    return NominalInstance(
        equiv=lambda x, y: x == y,
        act=lambda p, x: x,
        support=lambda x: frozenset(),
    )


def instance_pair(
    ix: NominalInstance[X], iy: NominalInstance[Y]
) -> NominalInstance[tuple[X, Y]]:
    """Componentwise product; support is the union of component supports."""
    return NominalInstance(
        equiv=lambda a, b: ix.equiv(a[0], b[0]) and iy.equiv(a[1], b[1]),
        act=lambda p, a: (ix.act(p, a[0]), iy.act(p, a[1])),
        support=lambda a: ix.support(a[0]) | iy.support(a[1]),
    )


class Left(_Node, Generic[X]):
    __slots__ = __match_args__ = ("value",)
    value: X


class Right(_Node, Generic[Y]):
    __slots__ = __match_args__ = ("value",)
    value: Y


def instance_sum(
    ix: NominalInstance[X], iy: NominalInstance[Y]
) -> NominalInstance["Left[X] | Right[Y]"]:
    """Disjoint union of two carriers, tagged with ``Left`` / ``Right``."""

    def equiv(a, b):
        if isinstance(a, Left) and isinstance(b, Left):
            return ix.equiv(a.value, b.value)
        if isinstance(a, Right) and isinstance(b, Right):
            return iy.equiv(a.value, b.value)
        return False

    def act(p, a):
        if isinstance(a, Left):
            return Left(ix.act(p, a.value))
        return Right(iy.act(p, a.value))

    def support(a):
        inner = ix.support if isinstance(a, Left) else iy.support
        return inner(a.value)

    return NominalInstance(equiv=equiv, act=act, support=support)


def instance_option(ix: NominalInstance[X]) -> NominalInstance["X | None"]:
    """``None`` or a value; ``None`` has empty support."""

    def equiv(a, b):
        if a is None or b is None:
            return a is None and b is None
        return ix.equiv(a, b)

    return NominalInstance(
        equiv=equiv,
        act=lambda p, a: None if a is None else ix.act(p, a),
        support=lambda a: frozenset() if a is None else ix.support(a),
    )


def instance_list(ix: NominalInstance[X]) -> NominalInstance[tuple[X, ...]]:
    """Finite sequences (tuples), acted on pointwise."""

    def equiv(xs, ys):
        return len(xs) == len(ys) and all(
            ix.equiv(x, y) for x, y in zip(xs, ys)
        )

    def support(xs):
        out: NameSet = frozenset()
        for x in xs:
            out |= ix.support(x)
        return out

    return NominalInstance(
        equiv=equiv,
        act=lambda p, xs: tuple(ix.act(p, x) for x in xs),
        support=support,
    )


def instance_nameset() -> NominalInstance[NameSet]:
    """Finite name sets; the action is the elementwise image, a set is its
    own support."""
    return NominalInstance(
        equiv=lambda s, t: s == t,
        act=_nameset_act,
        support=lambda s: s,
    )


# ---------------------------------------------------------------------------
# Randomized law checking
# ---------------------------------------------------------------------------

class LawResult(_Node):
    __slots__ = __match_args__ = ("law", "trials", "passed", "counterexample")
    law: str
    trials: int
    passed: bool
    counterexample: tuple | None

    def __init__(self, law: str, trials: int, passed: bool, counterexample: tuple | None = None):
        _Node.__init__(self, law, trials, passed, counterexample)


class LawReport(_Node):
    __slots__ = __match_args__ = ("results",)
    results: tuple[LawResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> tuple[LawResult, ...]:
        return tuple(r for r in self.results if not r.passed)

    def __str__(self) -> str:
        lines = []
        for r in self.results:
            status = "ok" if r.passed else f"FAIL {r.counterexample!r}"
            lines.append(f"{r.law:<16} [{r.trials} trials] {status}")
        return "\n".join(lines)


DEFAULT_POOL = tuple(Name(i) for i in range(6))


def random_perm(
    rng: random.Random, pool: tuple[Name, ...] = DEFAULT_POOL, max_len: int = 5
) -> Perm:
    k = rng.randrange(max_len + 1)
    return tuple((rng.choice(pool), rng.choice(pool)) for _ in range(k))


def _equivalent_perm(rng: random.Random, p: Perm, pool: tuple[Name, ...]) -> Perm:
    # Extensionality-preserving rewrites of a swap word.
    q = list(p)
    for _ in range(rng.randrange(1, 3)):
        op = rng.randrange(3)
        if op == 0:
            c = rng.choice(pool)
            q.insert(rng.randrange(len(q) + 1), (c, c))
        elif op == 1:
            d, e = rng.choice(pool), rng.choice(pool)
            pos = rng.randrange(len(q) + 1)
            q[pos:pos] = [(d, e), (d, e)]
        elif q:
            i = rng.randrange(len(q))
            a, b = q[i]
            q[i] = (b, a)
    return tuple(q)


def _equivalent_value(
    rng: random.Random, inst: NominalInstance[X], x: X
) -> X:
    # For a lawful instance, swapping two fresh names fixes x up to equiv.
    # The pair is drawn only when used; drawing it consumes no randomness.
    if rng.random() < 0.3:
        return x
    a, b = fresh_many(inst.support(x), 2)
    return inst.act(swap_perm(a, b), x)


def _fresh_pair(
    rng: random.Random, support: NameSet, pool: tuple[Name, ...]
) -> tuple[Name, Name]:
    outside = [n for n in pool if n not in support]
    a, b = fresh_many(support, 2)
    outside.extend((a, b))
    return rng.choice(outside), rng.choice(outside)


def check_laws(
    inst: NominalInstance[X],
    gen: Gen[X],
    trials: int = 1000,
    *,
    seed: int = 0,
    pool: tuple[Name, ...] = DEFAULT_POOL,
) -> LawReport:
    """Sample every nominal law ``trials`` times; report per-law outcomes.

    ``gen`` draws carrier values from a ``random.Random``.  The report
    carries the first counterexample found for each failing law.
    """
    rng = random.Random(seed)
    results = []

    def run(law: str, trial: Callable[[], tuple | None]) -> None:
        counterexample = None
        for _ in range(trials):
            counterexample = trial()
            if counterexample is not None:
                break
        results.append(
            LawResult(law, trials, counterexample is None, counterexample)
        )

    def t_reflexive():
        x = gen(rng)
        return None if inst.equiv(x, x) else (x,)

    def t_symmetric():
        x = gen(rng)
        y = _equivalent_value(rng, inst, x) if rng.random() < 0.5 else gen(rng)
        return None if inst.equiv(x, y) == inst.equiv(y, x) else (x, y)

    def t_transitive():
        x = gen(rng)
        y = _equivalent_value(rng, inst, x)
        z = _equivalent_value(rng, inst, y)
        if inst.equiv(x, y) and inst.equiv(y, z) and not inst.equiv(x, z):
            return (x, y, z)
        return None

    def t_gact_id():
        x = gen(rng)
        return None if inst.equiv(inst.act((), x), x) else (x,)

    def t_gact_compat():
        x = gen(rng)
        p = random_perm(rng, pool)
        q = random_perm(rng, pool)
        lhs = inst.act(p, inst.act(q, x))
        rhs = inst.act(perm_compose(q, p), x)
        return None if inst.equiv(lhs, rhs) else (p, q, x)

    def t_gact_proper():
        x = gen(rng)
        y = _equivalent_value(rng, inst, x)
        p = random_perm(rng, pool)
        q = _equivalent_perm(rng, p, pool)
        if not inst.equiv(x, y):
            return (x, y, "generated pair not equivalent")
        lhs = inst.act(p, x)
        rhs = inst.act(q, y)
        return None if inst.equiv(lhs, rhs) else (p, q, x, y)

    def t_support_spec():
        x = gen(rng)
        a, b = _fresh_pair(rng, inst.support(x), pool)
        swapped = inst.act(swap_perm(a, b), x)
        return None if inst.equiv(swapped, x) else (a, b, x)

    run("equiv_reflexive", t_reflexive)
    run("equiv_symmetric", t_symmetric)
    run("equiv_transitive", t_transitive)
    run("gact_id", t_gact_id)
    run("gact_compat", t_gact_compat)
    run("gact_proper", t_gact_proper)
    run("support_spec", t_support_spec)
    return LawReport(tuple(results))
