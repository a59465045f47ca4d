"""Lambda-calculus terms as a nominal carrier, with an independent oracle.

Terms are raw trees; the nominal instance (:func:`instance_term`) equips
them with alpha-equivalence as the equality, free variables as the
support, and the all-names permutation action (binders included).  A raw
syntactic instance, where support would be every occurring name, is easy
to build from the same pieces but deliberately not shipped: everything
downstream wants the alpha view.

The binder clauses of :func:`alpha_eq` and :func:`subst` share one
scheme: a single walk that carries a map from each in-scope binder to
what it stands for, saving and restoring the entry when an inner binder
shadows an outer one.  Both are linear in term size.  :func:`alpha_eq`
maps each side's binders to their depth (their de Bruijn level), so two
variables agree when both are bound at the same level or both are free
and equal.  :func:`subst` maps each binder of ``t`` to the name one past
a high-water mark plus its depth; the high-water mark exceeds every name
in ``t``, ``u`` and ``a``, so the new binders capture nothing.

:func:`to_debruijn` converts to a nameless form in which bound variables
are depth indices; structural equality of images decides alpha-equivalence
by construction, giving an oracle for :func:`alpha_eq` that shares none of
its code path.  :func:`alpha_rec` is the recursion principle built on the
FCB lift: one supported function per constructor, with the binder clause
descending to alpha-classes.

:func:`beta_step` / :func:`normalize` contract leftmost-outermost redexes
under an explicit fuel bound; reduction strategy is demo plumbing, not
part of the core theory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, TypeVar, Union

from .abstraction import Abstraction
from .atoms import Name, NameSet
from .nominal import NominalInstance
from .perms import Perm, perm_apply
from .suppfn import SuppFn, fcb_lift

Y = TypeVar("Y")


@dataclass(frozen=True, slots=True)
class Var:
    name: Name


@dataclass(frozen=True, slots=True)
class App:
    fn: "Term"
    arg: "Term"


@dataclass(frozen=True, slots=True)
class Lam:
    binder: Name
    body: "Term"


Term = Union[Var, App, Lam]


@dataclass(frozen=True, slots=True)
class DbVar:
    index: int


@dataclass(frozen=True, slots=True)
class DbFree:
    name: Name


@dataclass(frozen=True, slots=True)
class DbApp:
    fn: "DbTerm"
    arg: "DbTerm"


@dataclass(frozen=True, slots=True)
class DbLam:
    body: "DbTerm"


DbTerm = Union[DbVar, DbFree, DbApp, DbLam]


def term_act(p: Perm, t: Term) -> Term:
    """Apply a permutation to every name in the term, binders included."""
    match t:
        case Var(a):
            return Var(perm_apply(p, a))
        case App(f, x):
            return App(term_act(p, f), term_act(p, x))
        case Lam(b, s):
            return Lam(perm_apply(p, b), term_act(p, s))
    raise TypeError(f"not a term: {t!r}")


def fv(t: Term) -> NameSet:
    """Free variables; the support of the alpha-instance."""
    match t:
        case Var(a):
            return frozenset((a,))
        case App(f, x):
            return fv(f) | fv(x)
        case Lam(b, s):
            return fv(s) - {b}
    raise TypeError(f"not a term: {t!r}")


# The binder-core walks below dispatch on ``type(t)`` rather than
# ``match``: class patterns cost several times more per node in CPython.
def _max_id(t: Term) -> int:
    """The largest index of any name in ``t``, binders included."""
    kind = type(t)
    if kind is Var:
        return t.name.id
    if kind is App:
        left, right = _max_id(t.fn), _max_id(t.arg)
        return left if left > right else right
    if kind is Lam:
        inner = _max_id(t.body)
        return t.binder.id if t.binder.id > inner else inner
    raise TypeError(f"not a term: {t!r}")


def alpha_eq(t: Term, u: Term) -> bool:
    """Decide alpha-equivalence.

    Both terms are walked in lockstep with one map per side from each
    in-scope binder to its depth.  Two variables match when both are
    bound at the same depth or both are free with the same name; a
    shadowing binder overwrites its entry for the extent of its body.
    This is equality of de Bruijn images (:func:`to_debruijn`) without
    building them; agreement with that oracle and with the one-shot
    abstraction procedure is part of the test suite.
    """
    # Maps are keyed by name index: hashing an int is cheaper than
    # hashing a Name, and indices identify names.
    lt: dict[int, int] = {}
    lu: dict[int, int] = {}

    def go(t: Term, u: Term, depth: int) -> bool:
        kind = type(t)
        if kind is not type(u):
            return False
        if kind is Var:
            a, b = t.name.id, u.name.id
            i, j = lt.get(a), lu.get(b)
            return i == j and (i is not None or a == b)
        if kind is App:
            return go(t.fn, u.fn, depth) and go(t.arg, u.arg, depth)
        if kind is Lam:
            a, b = t.binder.id, u.binder.id
            saved_a, saved_b = lt.get(a), lu.get(b)
            lt[a] = lu[b] = depth
            same = go(t.body, u.body, depth + 1)
            _restore(lt, a, saved_a)
            _restore(lu, b, saved_b)
            return same
        return False

    return t is u or go(t, u, 0)


def _restore(scope: dict, key, saved) -> None:
    # Undo a binder's entry, reinstating the binder it shadowed, if any.
    if saved is None:
        del scope[key]
    else:
        scope[key] = saved


def instance_term() -> NominalInstance[Term]:
    """Terms up to alpha: equivalence ``alpha_eq``, support ``fv``."""
    return NominalInstance(equiv=alpha_eq, act=term_act, support=fv)


def to_debruijn(t: Term) -> DbTerm:
    """Nameless conversion: bound occurrences become binder-depth indices,
    free occurrences stay named."""

    def go(t: Term, env: tuple[Name, ...]) -> DbTerm:
        match t:
            case Var(a):
                try:
                    return DbVar(env.index(a))
                except ValueError:
                    return DbFree(a)
            case App(f, x):
                return DbApp(go(f, env), go(x, env))
            case Lam(b, s):
                return DbLam(go(s, (b,) + env))
        raise TypeError(f"not a term: {t!r}")

    return go(t, ())


def subst(t: Term, a: Name, u: Term) -> Term:
    """Capture-avoiding substitution of ``u`` for free ``a`` in ``t``.

    One pass finds a high-water index above every name in ``t``, ``u``
    and ``a``; one renaming walk then gives each binder of ``t`` the name
    at the high-water mark plus its depth, carrying a map from old binder
    to new name.  The new binders occur nowhere in ``u``, so inserting
    ``u`` under them captures nothing.
    """
    target = a.id
    top = max(target, _max_id(t), _max_id(u)) + 1
    renamed: dict[int, Name] = {}

    def go(t: Term, depth: int) -> Term:
        kind = type(t)
        if kind is Var:
            new = renamed.get(t.name.id)
            if new is not None:
                return Var(new)
            return u if t.name.id == target else t
        if kind is App:
            return App(go(t.fn, depth), go(t.arg, depth))
        if kind is not Lam:
            raise TypeError(f"not a term: {t!r}")
        b = t.binder.id
        saved = renamed.get(b)
        c = renamed[b] = Name(top + depth)
        body = go(t.body, depth + 1)
        _restore(renamed, b, saved)
        return Lam(c, body)

    return go(t, 0)


def alpha_rec(
    iy: NominalInstance[Y],
    fvar: SuppFn[Name, Y],
    fapp: SuppFn[tuple[Y, Y], Y],
    flam: SuppFn[tuple[Name, Y], Y],
) -> SuppFn[Term, Y]:
    """Alpha-structural recursion: one clause per constructor.

    The binder clause feeds ``[a] r(body)`` through the FCB lift of
    ``flam``, so the result respects alpha-equivalence provided ``flam``
    passes ``check_fcb`` and all three clauses honor their declared
    supports.  Those obligations are the caller's, checked by the
    samplers beforehand; the combinator itself is total.
    """
    flam_bar = fcb_lift(iy, flam)

    def rec(t: Term) -> Y:
        match t:
            case Var(a):
                return fvar.fn(a)
            case App(f, x):
                return fapp.fn((rec(f), rec(x)))
            case Lam(a, s):
                return flam_bar.fn(Abstraction(a, rec(s)))
        raise TypeError(f"not a term: {t!r}")

    return SuppFn(
        fn=rec,
        supp=fvar.supp | fapp.supp | flam.supp,
        dom=instance_term(),
        cod=iy,
    )


def beta_step(t: Term) -> Term | None:
    """Contract the leftmost-outermost redex, or ``None`` in normal form."""
    match t:
        case App(Lam(b, s), u):
            return subst(s, b, u)
        case App(f, x):
            step = beta_step(f)
            if step is not None:
                return App(step, x)
            step = beta_step(x)
            if step is not None:
                return App(f, step)
            return None
        case Lam(b, s):
            step = beta_step(s)
            return None if step is None else Lam(b, step)
        case _:
            return None


@dataclass(frozen=True)
class NormalizeResult:
    term: Term
    steps: int
    normal_form: bool


def normalize(t: Term, fuel: int = 1000) -> NormalizeResult:
    """Iterate ``beta_step`` at most ``fuel`` times."""
    if fuel < 0:
        raise ValueError("fuel must be nonnegative")
    steps = 0
    while steps < fuel:
        nxt = beta_step(t)
        if nxt is None:
            return NormalizeResult(t, steps, True)
        t = nxt
        steps += 1
    return NormalizeResult(t, steps, beta_step(t) is None)


# ---------------------------------------------------------------------------
# Term enumeration (exhaustive desk-scale sweeps)
# ---------------------------------------------------------------------------

def term_size(t: Term) -> int:
    """Constructor count."""
    match t:
        case Var(_):
            return 1
        case App(f, x):
            return 1 + term_size(f) + term_size(x)
        case Lam(_, s):
            return 1 + term_size(s)
    raise TypeError(f"not a term: {t!r}")


@lru_cache(maxsize=64)
def terms_of_size(
    size: int, pool: tuple[Name, ...], binders: tuple[Name, ...] | None = None
) -> tuple[Term, ...]:
    """All terms of exactly ``size`` constructors, variables drawn from
    ``pool`` and binders from ``binders`` (default: the same pool)."""
    if binders is None:
        binders = pool
    if size < 1:
        return ()
    if size == 1:
        return tuple(Var(a) for a in pool)
    out: list[Term] = []
    for b in binders:
        out.extend(Lam(b, s) for s in terms_of_size(size - 1, pool, binders))
    for left in range(1, size - 1):
        for f in terms_of_size(left, pool, binders):
            for x in terms_of_size(size - 1 - left, pool, binders):
                out.append(App(f, x))
    return tuple(out)


def all_terms(
    max_size: int,
    pool: tuple[Name, ...],
    binders: tuple[Name, ...] | None = None,
) -> Iterator[Term]:
    """All terms of size 1 through ``max_size``, smallest first."""
    for size in range(1, max_size + 1):
        yield from terms_of_size(size, pool, binders)
