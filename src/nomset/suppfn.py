"""Finitely supported functions, the freshness theorem, and FCB lifting.

A :class:`SuppFn` bundles a plain function with a declared finite support
and the nominal instances of its domain and codomain.  The bundle is what
makes composition and the conjugation action definable; the declared
support is a contract, not a computed fact.  Two obligations come with it,
validated by sampling rather than carried as proofs:

* properness: equivalent inputs map to equivalent outputs;
* the support contract: for ``a, b`` outside the declared support,
  conjugating by the swap ``(a b)`` fixes the function pointwise
  (see :func:`check_supp_spec`).

On top sit the two combinators of the freshness theorem and the binder
rule:

* :func:`fresh_f` evaluates ``h : Name -> X`` at one fresh name.  When
  some fresh ``a`` satisfies ``a # h(a)`` (checked by
  :func:`check_fresh_hyp`), the choice of fresh name is irrelevant: ``h``
  is constant, up to equivalence, on all names fresh for it.  ``fresh_f``
  itself is total; a violated hypothesis surfaces as failed invariance,
  not as an error here.

* :func:`fcb_lift` turns ``f : (Name, X) -> Y`` into a function on
  abstractions.  Its side condition (the freshness condition for binders,
  sampled by :func:`check_fcb`) asks that some fresh ``a`` is fresh for
  every ``f(a, x)``; under it the lifted function is well defined on
  alpha-classes and agrees with ``f`` on fresh representatives.
  It is the binder rule of alpha-structural recursion on one
  abstraction, and the specification of :func:`nomset.lam.alpha_rec`:
  that recursor renames every binder in one fold instead of calling it,
  and the tests check it against ``fcb_lift`` applied at every binder.

Function equality is only ever probed pointwise on a finite set
(:func:`fn_equiv_probe`); full extensional equality is not decidable.
Composition over-approximates support by the union of both supports,
which can make downstream fresh choices larger than strictly needed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Generic, Iterable, TypeVar

from .abstraction import Abstraction, instance_abstraction
from .atoms import Name, NameSet, fresh_for, fresh_many
from .freshness import fresh_dec
from .nominal import DEFAULT_POOL, Gen, NominalInstance, instance_name
from .perms import Perm, _nameset_act, perm_inverse, swap_perm

X = TypeVar("X")
Y = TypeVar("Y")
Z = TypeVar("Z")


@dataclass(frozen=True)
class SuppFn(Generic[X, Y]):
    """A function with a declared finite support and nominal endpoints."""

    fn: Callable[[X], Y]
    supp: NameSet
    dom: NominalInstance[X]
    cod: NominalInstance[Y]

    def __call__(self, x: X) -> Y:
        return self.fn(x)


def fn_act(p: Perm, f: SuppFn[X, Y]) -> SuppFn[X, Y]:
    """Conjugation action: route the input through the inverse, the output
    through ``p``; the support is carried along as its image under ``p``.
    ``p`` is read once, and ``_image`` checks it before it is used."""
    if isinstance(p, Iterable):
        p = tuple(p)
    supp = _nameset_act(p, f.supp)
    inv = perm_inverse(p)
    return SuppFn(
        fn=lambda x: f.cod.act(p, f.fn(f.dom.act(inv, x))),
        supp=supp,
        dom=f.dom,
        cod=f.cod,
    )


def fn_equiv_probe(
    f: SuppFn[X, Y], g: SuppFn[X, Y], probe: Iterable[X]
) -> bool:
    """Pointwise agreement on a finite probe set; extensional equality in
    full is not decidable."""
    return all(f.cod.equiv(f.fn(x), g.fn(x)) for x in probe)


def compose(f: SuppFn[X, Y], g: SuppFn[Y, Z]) -> SuppFn[X, Z]:
    """``g`` after ``f``; the support is the union of both supports (an
    upper bound, possibly strict)."""
    return SuppFn(
        fn=lambda x: g.fn(f.fn(x)),
        supp=f.supp | g.supp,
        dom=f.dom,
        cod=g.cod,
    )


def fresh_f(h: SuppFn[Name, X]) -> X:
    """Evaluate ``h`` at the canonical name fresh for its support."""
    return h.fn(fresh_for(h.supp))


def check_fresh_hyp(h: SuppFn[Name, X]) -> bool:
    """Does some fresh ``a`` satisfy ``a # h(a)``?

    Tests the canonical fresh name; ``a # h`` holds by its choice outside
    the declared support.
    """
    a = fresh_for(h.supp)
    return fresh_dec(h.cod, a, h.fn(a))


def fcb_lift(
    ix: NominalInstance[X], f: SuppFn[tuple[Name, X], Y]
) -> SuppFn[Abstraction[X], Y]:
    """Lift a binder-shaped function to abstractions.

    The lifted function renames the bound name to a fresh one before
    applying ``f``: on input ``[a]x`` it evaluates
    ``f(c, (a c) . x)`` at ``c`` fresh for ``a``, ``x`` and ``f``.  The
    declared support of the result equals that of ``f``.
    """

    def lifted(ab: Abstraction[X]) -> Y:
        h = SuppFn(
            fn=lambda c: f.fn((c, ix.act(swap_perm(ab.name, c), ab.term))),
            supp=frozenset((ab.name,)) | ix.support(ab.term) | f.supp,
            dom=instance_name(),
            cod=f.cod,
        )
        return fresh_f(h)

    return SuppFn(
        fn=lifted,
        supp=f.supp,
        dom=instance_abstraction(ix),
        cod=f.cod,
    )


def check_fcb(
    f: SuppFn[tuple[Name, X], Y],
    gen: Gen[X],
    trials: int = 100,
    *,
    seed: int = 0,
) -> bool:
    """Sample the binder condition: the canonical fresh ``a`` must be fresh
    for ``f(a, x)`` on every sampled ``x``.

    The condition quantifies over all of the domain; sampling is the only
    runtime approximation available.
    """
    rng = random.Random(seed)
    a = fresh_for(f.supp)
    return all(
        fresh_dec(f.cod, a, f.fn((a, gen(rng)))) for _ in range(trials)
    )


@dataclass(frozen=True)
class SuppSpecReport:
    trials: int
    failures: tuple[tuple[Name, Name, object], ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_supp_spec(
    f: SuppFn[X, Y],
    gen: Gen[X],
    trials: int = 200,
    *,
    seed: int = 0,
    pool: tuple[Name, ...] = DEFAULT_POOL,
) -> SuppSpecReport:
    """Sample the declared-support contract.

    Draws ``a, b`` outside ``f.supp`` -- from the pool, from the supports
    of sampled inputs and outputs (so undeclared dependencies get caught),
    and from guaranteed-fresh names -- and checks the conjugation identity
    ``(a b) . f((a b) . x) ~ f(x)``.
    """
    rng = random.Random(seed)
    failures = []
    for _ in range(trials):
        x = gen(rng)
        candidates = set(pool)
        candidates |= f.dom.support(x)
        candidates |= f.cod.support(f.fn(x))
        candidates.update(fresh_many(frozenset(candidates) | f.supp, 2))
        candidates -= f.supp
        pick = sorted(candidates)
        a, b = rng.choice(pick), rng.choice(pick)
        p = swap_perm(a, b)
        lhs = f.cod.act(p, f.fn(f.dom.act(p, x)))
        if not f.cod.equiv(lhs, f.fn(x)):
            failures.append((a, b, x))
    return SuppSpecReport(trials, tuple(failures))
