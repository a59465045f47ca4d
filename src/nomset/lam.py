"""Lambda-calculus terms as a nominal carrier, with an independent oracle.

Terms are raw trees; the nominal instance (:func:`instance_term`) equips
them with alpha-equivalence as the equality, free variables as the
support, and the all-names permutation action (binders included).  A raw
syntactic instance, where support would be every occurring name, is easy
to build from the same pieces but deliberately not shipped: everything
downstream wants the alpha view.

Each node caches ``_top``, the largest name index it contains, binders
included, filled in O(1) from its children when it is built.
:func:`subst` reads its fresh-name mark from the cached values of its two
terms, so the term it inserts is never walked.

Every traversal runs on an explicit stack, so depth is bounded by memory,
not the recursion limit.  :func:`fv`, :func:`term_act`, :func:`term_size`,
:func:`to_debruijn`, :func:`subst` and :func:`alpha_rec` are clause sets
for one post-order walker, :func:`_fold`; :func:`to_debruijn` and
:func:`subst` map each in-scope binder to its depth or its new name, set on
entering an abstraction and restored on leaving it.  Three loops do not fit
a fold: :func:`alpha_eq` walks both terms in lockstep, :func:`_reduce`
moves the zipper of :func:`normalize` and :func:`beta_step`, which resumes
each redex search where the last contraction was made, and ``print_term``
in :mod:`nomset.syntax` renders from a stack of nodes and literal strings.
``parse_term`` there builds terms on an explicit stack too, of open
binders and parentheses.

:func:`to_debruijn` converts to a nameless form in which bound variables
are depth indices; structural equality of images decides alpha-equivalence
by construction, giving an oracle for :func:`alpha_eq` that shares none of
its code path.  :func:`alpha_rec` is the recursion principle built on the
FCB lift: one supported function per constructor, with the binder clause
descending to alpha-classes.

:func:`normalize` contracts leftmost-outermost redexes under an explicit
fuel bound, :func:`beta_step` is its one-step case; reduction strategy is
demo plumbing, not part of the core theory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, TypeVar, Union

from .abstraction import Abstraction
from .atoms import Name, NameSet
from .nominal import NominalInstance
from .perms import Perm, perm_apply
from .suppfn import SuppFn, fcb_lift

Y = TypeVar("Y")


_set = object.__setattr__


# A child that is not a term makes ``_top`` None, which spreads to every
# ancestor: ``subst``, ``fv``, ``to_debruijn`` and ``print_term`` reject
# such a term by its root (:func:`_check_term`), the other walkers on
# reaching the bad node.
@dataclass(frozen=True, slots=True)
class Var:
    name: Name
    _top: int | None = field(init=False, repr=False, compare=False)

    def __init__(self, name: Name) -> None:
        _set(self, "name", name)
        try:
            top = name.id
        except AttributeError:
            top = None
        _set(self, "_top", top)


@dataclass(frozen=True, slots=True)
class App:
    fn: "Term"
    arg: "Term"
    _top: int | None = field(init=False, repr=False, compare=False)

    def __init__(self, fn: "Term", arg: "Term") -> None:
        _set(self, "fn", fn)
        _set(self, "arg", arg)
        try:
            top, other = fn._top, arg._top
            if other > top:
                top = other
        except (AttributeError, TypeError):
            top = None
        _set(self, "_top", top)


@dataclass(frozen=True, slots=True)
class Lam:
    binder: Name
    body: "Term"
    _top: int | None = field(init=False, repr=False, compare=False)

    def __init__(self, binder: Name, body: "Term") -> None:
        _set(self, "binder", binder)
        _set(self, "body", body)
        try:
            top, other = binder.id, body._top
            if other > top:
                top = other
        except (AttributeError, TypeError):
            top = None
        _set(self, "_top", top)


Term = Union[Var, App, Lam]


def _check_term(t: Term) -> None:
    """O(1): a root whose ``_top`` is None, or that has none, is no term."""
    if getattr(t, "_top", None) is None:
        raise TypeError("not a term")


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

# Stack markers.  A saved scope entry of None means the name was unbound,
# which is how every map here reads a missing entry, so restoring is a store.
_APP_DONE, _LAM_DONE, _RESTORE = object(), object(), object()


def _fold(t: Term, var, app, lam, enter=None):
    """Post-order fold of ``t`` on an explicit stack: ``var(node)``,
    ``app(node, fn_result, arg_result)`` and ``lam(node, body_result)``
    give each node's result, left to right as in structural recursion, and
    ``enter(node)``, if given, runs before an abstraction's body."""
    todo, done = [t], []
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is Var:
            done.append(var(node))
        elif kind is App:
            todo += (node, _APP_DONE, node.arg, node.fn)
        elif kind is Lam:
            if enter is not None:
                enter(node)
            todo += (node, _LAM_DONE, node.body)
        elif node is _APP_DONE:
            x = done.pop()
            done[-1] = app(todo.pop(), done[-1], x)
        elif node is _LAM_DONE:
            done[-1] = lam(todo.pop(), done[-1])
        else:
            raise TypeError("not a term")
    return done[0]


def term_act(p: Perm, t: Term) -> Term:
    """Apply a permutation to every name in the term, binders included."""
    return _fold(t, lambda node: Var(perm_apply(p, node.name)),
                 lambda node, f, x: App(f, x),
                 lambda node, s: Lam(perm_apply(p, node.binder), s))


def fv(t: Term) -> NameSet:
    """Free variables; the support of the alpha-instance.  One output set,
    and a count of enclosing binders per name index, so no set is copied."""
    _check_term(t)
    out: set[Name] = set()
    bound: dict[int, int] = {}

    def enter(node: Lam) -> None:
        bound[node.binder.id] = bound.get(node.binder.id, 0) + 1

    def var(node: Var) -> None:
        if not bound.get(node.name.id):
            out.add(node.name)

    def lam(node: Lam, body: None) -> None:
        bound[node.binder.id] -= 1

    _fold(t, var, lambda node, f, x: None, lam, enter)
    return frozenset(out)


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
    if t is u:
        return True
    # Maps are keyed by name index: hashing an int is cheaper than
    # hashing a Name, and indices identify names.
    lt: dict[int, int | None] = {}
    lu: dict[int, int | None] = {}
    depth, todo = 0, [(t, u)]
    while todo:
        t, u = todo.pop()
        if t is _RESTORE:
            a, saved_a, b, saved_b = u
            lt[a], lu[b] = saved_a, saved_b
            depth -= 1
            continue
        kind = type(t)
        if kind is not type(u):
            return False
        if kind is Var:
            a, b = t.name.id, u.name.id
            i, j = lt.get(a), lu.get(b)
            if i != j or (i is None and a != b):
                return False
        elif kind is App:
            todo += ((t.arg, u.arg), (t.fn, u.fn))
        elif kind is Lam:
            a, b = t.binder.id, u.binder.id
            todo += ((_RESTORE, (a, lt.get(a), b, lu.get(b))), (t.body, u.body))
            lt[a] = lu[b] = depth
            depth += 1
        else:
            return False
    return True


def instance_term() -> NominalInstance[Term]:
    """Terms up to alpha: equivalence ``alpha_eq``, support ``fv``."""
    return NominalInstance(equiv=alpha_eq, act=term_act, support=fv)


def to_debruijn(t: Term) -> DbTerm:
    """Nameless conversion: bound occurrences become binder-depth indices,
    free occurrences stay named."""
    _check_term(t)
    level: dict[int, int | None] = {}
    saved: list[int | None] = []

    def enter(node: Lam) -> None:
        saved.append(level.get(node.binder.id))
        level[node.binder.id] = len(saved) - 1

    def var(node: Var) -> DbTerm:
        i = level.get(node.name.id)
        return DbFree(node.name) if i is None else DbVar(len(saved) - 1 - i)

    def lam(node: Lam, body: DbTerm) -> DbTerm:
        level[node.binder.id] = saved.pop()
        return DbLam(body)

    return _fold(t, var, lambda node, f, x: DbApp(f, x), lam, enter)


def subst(t: Term, a: Name, u: Term) -> Term:
    """Capture-avoiding substitution of ``u`` for free ``a`` in ``t``.

    The high-water mark, one above every name index in ``t``, ``u`` and
    ``a``, is read from the nodes' cached ``_top``, so ``u`` is never
    walked; one renaming walk of ``t`` then gives each binder the name at
    the mark plus its depth.  The new binders occur nowhere in ``u``, so
    inserting ``u`` under them captures nothing.
    """
    target = a.id
    try:
        top = max(target, t._top, u._top) + 1
    except (AttributeError, TypeError):
        raise TypeError("not a term") from None
    renamed: dict[int, Name | None] = {}
    saved: list[Name | None] = []

    def enter(node: Lam) -> None:
        saved.append(renamed.get(node.binder.id))
        renamed[node.binder.id] = Name(top + len(saved) - 1)

    def var(node: Var) -> Term:
        new = renamed.get(node.name.id)
        if new is not None:
            return Var(new)
        return u if node.name.id == target else node

    def lam(node: Lam, body: Term) -> Term:
        new = renamed[node.binder.id]
        renamed[node.binder.id] = saved.pop()
        return Lam(new, body)

    return _fold(t, var, lambda node, f, x: App(f, x), lam, enter)


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
        return _fold(t, lambda node: fvar.fn(node.name),
                     lambda node, f, x: fapp.fn((f, x)),
                     lambda node, s: flam_bar.fn(Abstraction(node.binder, s)))

    return SuppFn(
        fn=rec,
        supp=fvar.supp | fapp.supp | flam.supp,
        dom=instance_term(),
        cod=iy,
    )


def beta_step(t: Term) -> Term | None:
    """One leftmost-outermost step, or ``None`` in normal form.  The
    context is plugged as soon as the redex is contracted, so the rest of
    the term is neither searched nor rebuilt."""
    ctx, focus, _ = _reduce(t, 0)
    if ctx is None:
        return None
    focus = subst(focus.fn.body, focus.fn.binder, focus.arg)
    while ctx:
        focus = _plug(ctx.pop(), focus)
    return focus


@dataclass(frozen=True)
class NormalizeResult:
    term: Term
    steps: int
    normal_form: bool


def _plug(frame, focus: Term) -> Term:
    """Plug ``focus`` into a :func:`_reduce` frame; an unchanged child
    gives back the frame's original node."""
    kind = type(frame)
    if kind is Lam:
        return frame if focus is frame.body else Lam(frame.binder, focus)
    if kind is App:
        return frame if focus is frame.fn else App(focus, frame.arg)
    node, fn = frame
    return node if focus is node.arg and fn is node.fn else App(fn, focus)


def _reduce(t: Term, fuel: int):
    """Contract leftmost-outermost redexes in ``t``, at most ``fuel`` of
    them, and return ``(ctx, focus, steps)``.

    A zipper walk that never restarts from the root.  ``ctx`` holds the
    frames above ``focus``: ``Lam`` (focus in the body), ``App`` (in the
    function, argument unsearched) or ``(app, fn)`` (in the argument,
    ``fn`` normal).  All left of the focus is normal, so each search
    resumes at the contractum; only the parent can become a redex, when
    an abstraction lands in its function slot.  At normal form ``ctx`` is
    ``None`` and ``focus`` the whole plugged term; when fuel runs out,
    ``focus`` is the next redex and ``ctx`` its unplugged context.
    """
    steps, ctx, focus = 0, [], t
    while True:
        kind = type(focus)
        if kind is Lam:
            ctx.append(focus)
            focus = focus.body
        elif kind is App and type(focus.fn) is not Lam:
            ctx.append(focus)
            focus = focus.fn
        elif kind is App:  # a redex
            if steps == fuel:
                return ctx, focus, steps
            focus = subst(focus.fn.body, focus.fn.binder, focus.arg)
            steps += 1
            if type(focus) is Lam and ctx and type(ctx[-1]) is App:
                focus = App(focus, ctx.pop().arg)
        else:  # a leaf: climb to the nearest frame with an unsearched argument
            while ctx and type(ctx[-1]) is not App:
                focus = _plug(ctx.pop(), focus)
            if not ctx:
                return None, focus, steps
            ctx[-1] = (ctx[-1], focus)
            focus = ctx[-1][0].arg


def normalize(t: Term, fuel: int = 1000) -> NormalizeResult:
    """Contract leftmost-outermost redexes, at most ``fuel`` of them, on
    the zipper of :func:`_reduce`; the context is plugged back once."""
    if fuel < 0:
        raise ValueError("fuel must be nonnegative")
    ctx, focus, steps = _reduce(t, fuel)
    if ctx is None:
        return NormalizeResult(focus, steps, True)
    while ctx:
        focus = _plug(ctx.pop(), focus)
    return NormalizeResult(focus, steps, False)


# ---------------------------------------------------------------------------
# Term enumeration (exhaustive desk-scale sweeps)
# ---------------------------------------------------------------------------

def term_size(t: Term) -> int:
    """Constructor count."""
    return _fold(t, lambda node: 1, lambda node, f, x: 1 + f + x, lambda node, s: 1 + s)


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
