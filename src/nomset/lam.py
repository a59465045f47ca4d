"""Lambda-calculus terms as a nominal carrier, with an independent oracle.

Terms are raw trees; the nominal instance (:func:`instance_term`) equips
them with alpha-equivalence as the equality, free variables as the
support, and the all-names permutation action (binders included).  A raw
syntactic instance, where support would be every occurring name, is easy
to build from the same pieces but deliberately not shipped: everything
downstream wants the alpha view.

The three node constructors are the only place that decides what a term
is: a name is an object with an ``int`` ``id``, and a ``Var``, ``App`` or
``Lam`` given a child that is not a name or a node raises
``TypeError("not a term")`` when it is built.  Every node reached from a
root is therefore well formed, and a function given a root that is not a
node at all raises the same error from its dispatch.

Each node caches ``_top``, the largest name index it contains, binders
included, filled in O(1) from its children when it is built.  The node
constructors, like ``Name``'s, store through the slot descriptors rather
than ``object.__setattr__``, since building nodes is most of the cost of
:func:`subst` and so of :func:`normalize`.  :func:`subst` decides from
the cached values alone which binders to rename and which subterms it
cannot change, so the term it inserts is never walked and neither is any
subterm of ``t`` below every name it replaces.  It builds one ``Name``,
``Var`` and ``Lam`` per renamed binder, only those that could capture
or that rebind the target, and one ``App`` or ``Lam`` per ancestor of a
change; everything else, ``u`` included, is shared with its inputs.
:func:`term_act` runs its swap word once, into the image of the moved
names, and then looks each name up, so it costs O(|p| + n) on a term of
n nodes.

Every traversal runs on an explicit stack, so depth is bounded by memory,
not the recursion limit.  :func:`fv`, :func:`term_act`, :func:`term_size`,
:func:`to_debruijn` and :func:`alpha_rec` are clause sets for one
post-order walker, :func:`_fold`, which keeps the binder scope for all of
them: one map from each in-scope binder to its depth, saved on entering
an abstraction and restored on leaving it, gives each variable clause
the depth of its binder, or ``None`` when it is free.  No clause holds
scope state of its own; :func:`term_act` and :func:`term_size` read none
and pay for the bookkeeping, a dict read per variable and three dict
operations per binder.  Four loops do not fit a fold: :func:`subst` skips
every subtree it cannot change, which a post-order fold cannot,
:func:`alpha_eq` walks both terms in lockstep, :func:`_reduce` moves the
zipper of :func:`normalize` and :func:`beta_step`, and ``print_term`` in
:mod:`nomset.syntax` renders from a stack of nodes and literal strings.
``parse_term`` there builds terms on an explicit stack too, of open
binders and parentheses.  The nodes' own ``==``, ``hash``, ``repr``, deep
copy and pickling, and those of the de Bruijn nodes, are the walkers of
their base class ``atoms._Node``, shared by every composite value type: a
lockstep walk for ``==``, post-order walks for ``hash``, the deep copy
and the pickle code, and a pre-order walk for ``repr``.

The zipper resumes each redex search where the last contraction was
made, and contracts a contractum that lands in its parent's function slot
against the parent's argument without building that application.  Each
frame holds only the sibling on the path: a binder, an unsearched
argument or a normal function.  A second list holds the original node of
every frame pushed since the last contraction, so climbing past an
untouched subterm gives it back unbuilt, and a contraction clears that
list, letting go of every subterm it rewrites.  :func:`normalize` and
:func:`beta_step` plug the context back through one helper.

:func:`to_debruijn` converts to a nameless form in which bound variables
are depth indices; structural equality of images decides alpha-equivalence
by construction, giving an oracle for :func:`alpha_eq` that shares none of
its code path.  :func:`alpha_rec` is the recursion principle as a clause
set for :func:`_fold`: one supported function per constructor, and each
binder renamed on the way in to a name fresh for the term and the
clauses, read off the depth :func:`_fold` gives it.

:func:`normalize` contracts leftmost-outermost redexes under an explicit
fuel bound, :func:`beta_step` is its one-step case; reduction strategy is
demo plumbing, not part of the core theory.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, TypeVar, Union

from .atoms import Name, NameSet, _Node, _node_dataclass
from .nominal import NominalInstance
from .perms import Perm, _image
from .suppfn import SuppFn

Y = TypeVar("Y")


@_node_dataclass
class Var(_Node):
    name: Name
    _top: int = field(init=False)

    def __init__(self, name: Name) -> None:
        top = getattr(name, "id", None)
        if type(top) is not int:
            raise TypeError("not a term")
        _var_name(self, name)
        _var_top(self, top)


@_node_dataclass
class App(_Node):
    fn: "Term"
    arg: "Term"
    _top: int = field(init=False)

    def __init__(self, fn: "Term", arg: "Term") -> None:
        try:
            top, other = fn._top, arg._top
        except AttributeError:
            raise TypeError("not a term") from None
        _app_fn(self, fn)
        _app_arg(self, arg)
        _app_top(self, other if other > top else top)


@_node_dataclass
class Lam(_Node):
    binder: Name
    body: "Term"
    _top: int = field(init=False)

    def __init__(self, binder: Name, body: "Term") -> None:
        try:
            top, other = binder.id, body._top
        except AttributeError:
            raise TypeError("not a term") from None
        if type(top) is not int:
            raise TypeError("not a term")
        _lam_binder(self, binder)
        _lam_body(self, body)
        _lam_top(self, other if other > top else top)


# The constructors store through the slot descriptors, which the refusing
# __setattr__ does not guard; object.__setattr__ costs more.
_var_name, _var_top = (Var.__dict__[f].__set__ for f in ("name", "_top"))
_app_fn, _app_arg, _app_top = (App.__dict__[f].__set__ for f in ("fn", "arg", "_top"))
_lam_binder, _lam_body, _lam_top = (Lam.__dict__[f].__set__ for f in ("binder", "body", "_top"))

Term = Union[Var, App, Lam]
_TERMS = (Var, App, Lam)


@_node_dataclass
class DbVar(_Node):
    index: int


@_node_dataclass
class DbFree(_Node):
    name: Name


@_node_dataclass
class DbApp(_Node):
    fn: "DbTerm"
    arg: "DbTerm"


@_node_dataclass
class DbLam(_Node):
    body: "DbTerm"


DbTerm = Union[DbVar, DbFree, DbApp, DbLam]

# Stack markers.  A saved scope entry of None means the name was unbound,
# which is how every map here reads a missing entry, so restoring is a store.
_APP_DONE, _LAM_DONE, _RESTORE = object(), object(), object()


def _fold(t: Term, var, app, lam):
    """Post-order fold of ``t`` on an explicit stack, keeping the binder
    scope: ``var(node, bound, depth)``, ``app(fn_result, arg_result)`` and
    ``lam(node, body_result, depth)`` give each node's result, left to
    right as in structural recursion.  ``depth`` counts the abstractions
    around the node, and ``bound`` is the depth of the abstraction that
    binds the variable, or ``None`` when it is free.  The scope maps each
    binder's index to its depth; an abstraction saves the entry it
    shadows below itself on the stack and restores it on leaving.  No
    clause reads an application's node, so it is not kept on the stack."""
    scope: dict[int, int | None] = {}
    todo, done, depth = [t], [], 0
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is Var:
            done.append(var(node, scope.get(node.name.id), depth))
        elif kind is App:
            todo += (_APP_DONE, node.arg, node.fn)
        elif kind is Lam:
            b = node.binder.id
            todo += (scope.get(b), node, _LAM_DONE, node.body)
            scope[b] = depth
            depth += 1
        elif node is _APP_DONE:
            x = done.pop()
            done[-1] = app(done[-1], x)
        elif node is _LAM_DONE:
            node, depth = todo.pop(), depth - 1
            scope[node.binder.id] = todo.pop()
            done[-1] = lam(node, done[-1], depth)
        else:
            raise TypeError("not a term")
    return done[0]


def term_act(p: Perm, t: Term) -> Term:
    """Apply a permutation to every name in the term, binders included.
    The word is run once, into its image; each name is then one lookup.
    ``_image`` rejects a word holding anything but swaps of names, whether
    or not the term meets them."""
    try:
        get = _image(p).get
    except TypeError:
        raise TypeError("term_act: p must be a word of swaps of names") from None
    return _fold(t, lambda node, bound, depth: Var(get(node.name.id, node.name)), App,
                 lambda node, s, depth: Lam(get(node.binder.id, node.binder), s))


def fv(t: Term) -> NameSet:
    """Free variables; the support of the alpha-instance.  Each free
    occurrence goes into one output set, so no set is copied."""
    out: set[Name] = set()
    _fold(t, lambda node, bound, depth: out.add(node.name) if bound is None else None,
          lambda f, x: None, lambda node, s, depth: None)
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
    if t is u and type(t) in (Var, App, Lam):
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
            raise TypeError("not a term")
    return True


def instance_term() -> NominalInstance[Term]:
    """Terms up to alpha: equivalence ``alpha_eq``, support ``fv``."""
    return NominalInstance(equiv=alpha_eq, act=term_act, support=fv)


def to_debruijn(t: Term) -> DbTerm:
    """Nameless conversion: bound occurrences become binder-depth indices,
    free occurrences stay named."""
    return _fold(t, lambda node, bound, depth:
                 DbFree(node.name) if bound is None else DbVar(depth - 1 - bound),
                 DbApp, lambda node, s, depth: DbLam(s))


def subst(t: Term, a: Name, u: Term) -> Term:
    """Capture-avoiding substitution of ``u`` for free ``a`` in ``t``.

    Every decision is O(1), read from the cached ``_top`` of ``t`` and
    ``u``, so ``u`` is never walked.  A binder is renamed only when it
    could capture a name of ``u`` (its index is at most ``u._top``) or
    rebinds ``a``; the k-th renamed binder on the path from the root
    becomes ``Name(mark + k)``, ``mark`` being one above every index in
    ``t``, ``u`` and ``a``, and all its occurrences share one new ``Var``.
    Any other binder has an index above every name of ``u`` and differs
    from ``a`` and from every renamed binder, so it captures and shadows
    nothing and keeps its name.

    A subterm whose ``_top`` is below ``low``, the least of ``a`` and the
    renamed binders in scope, holds nothing to replace and is returned as
    it is, unwalked; an application, or an abstraction that keeps its
    binder, is rebuilt only when a child came back as another object.  So
    ``t`` itself comes back when ``a`` is above ``t._top``.
    """
    target = getattr(a, "id", None)
    if type(target) is not int:
        raise TypeError("subst: a must be a name")
    try:
        u_top, t_top = u._top, t._top
    except AttributeError:
        raise TypeError("not a term") from None
    mark = max(target, t_top, u_top) + 1
    renamed: dict[int, Var | None] = {}
    saved: list[tuple[int, Var | None, int]] = []  # (binder, shadowed, low)
    low, todo, done = target, [t], []
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is Var:
            i = node.name.id
            if i >= low:
                new = renamed.get(i)
                node = new if new is not None else u if i == target else node
            done.append(node)
        elif kind is App:
            if node._top < low:
                done.append(node)
            else:
                todo += (node, _APP_DONE, node.arg, node.fn)
        elif kind is Lam:
            if node._top < low:
                done.append(node)
                continue
            b = node.binder.id
            if b <= u_top or b == target:
                saved.append((b, renamed.get(b), low))
                renamed[b] = Var(Name(mark + len(saved) - 1))
                if b < low:
                    low = b
                todo += (_RESTORE, node.body)
            else:
                todo += (node, _LAM_DONE, node.body)
        elif node is _APP_DONE:
            arg, app = done.pop(), todo.pop()
            if done[-1] is not app.fn or arg is not app.arg:
                done[-1] = App(done[-1], arg)
            else:
                done[-1] = app
        elif node is _LAM_DONE:
            lam = todo.pop()
            done[-1] = lam if done[-1] is lam.body else Lam(lam.binder, done[-1])
        elif node is _RESTORE:
            b, shadowed, low = saved.pop()
            done[-1] = Lam(renamed[b].name, done[-1])
            renamed[b] = shadowed
        else:
            raise TypeError("not a term")
    return done[0]


def alpha_rec(
    iy: NominalInstance[Y],
    fvar: SuppFn[Name, Y],
    fapp: SuppFn[tuple[Y, Y], Y],
    flam: SuppFn[tuple[Name, Y], Y],
) -> SuppFn[Term, Y]:
    """Alpha-structural recursion: one clause per constructor, one fold.

    Pitts's binder rule renames the input: ``\\a. s`` maps to
    ``flam(c, r((a c) . s))`` for a ``c`` fresh for ``a``, ``s`` and the
    clauses.  The fold renames every binder on the way in: the one at
    depth ``k`` becomes ``Name(mark + k)``, ``mark`` being one above every
    index in the term and in the clauses' union support, so it is fresh
    for both and for every binder around it.  ``fvar`` gets each bound
    variable under its binder's new name, and ``flam`` that name with the
    body's result; each bound variable and each binder costs one ``Name``.

    Provided ``flam`` passes ``check_fcb`` and all three clauses honor
    their declared supports, the result does not depend on which fresh
    names are chosen, and so respects alpha-equivalence: the freshness
    condition for binders is what makes one fresh choice as good as
    another.  Those obligations are the caller's, checked by the samplers
    beforehand; the combinator itself is total.  The tests check the fold
    against :func:`~nomset.suppfn.fcb_lift` applied at every binder.  A
    result that holds binders, such as a term, holds the fold's fresh
    names, so it is determined only up to ``iy.equiv``.
    """
    supp = fvar.supp | fapp.supp | flam.supp
    top = max((n.id for n in supp), default=-1)

    def rec(t: Term) -> Y:
        # A root that is not a node has no _top; _fold rejects it.
        mark = max(getattr(t, "_top", -1), top) + 1
        return _fold(t, lambda node, bound, depth: fvar.fn(
                         node.name if bound is None else Name(mark + bound)),
                     lambda f, x: fapp.fn((f, x)),
                     lambda node, s, depth: flam.fn((Name(mark + depth), s)))

    return SuppFn(fn=rec, supp=supp, dom=instance_term(), cod=iy)


def beta_step(t: Term) -> Term | None:
    """One leftmost-outermost step, or ``None`` in normal form.  The
    context is plugged as soon as the redex is contracted, so the rest of
    the term is neither searched nor rebuilt."""
    ctx, _, focus, _ = _reduce(t, 0)
    if ctx is None:
        return None
    return _unplug(ctx, (), subst(focus.fn.body, focus.fn.binder, focus.arg))


@dataclass(frozen=True)
class NormalizeResult:
    term: Term
    steps: int
    normal_form: bool


def _plug(frame, focus: Term) -> Term:
    """Build the node a :func:`_reduce` frame stands for around ``focus``:
    an abstraction for a binder, an application for a term (the argument)
    or a 1-tuple (the function)."""
    kind = type(frame)
    if kind is Name:
        return Lam(frame, focus)
    if kind is tuple:
        return App(frame[0], focus)
    return App(focus, frame)


def _unplug(ctx, orig, focus: Term) -> Term:
    """Plug ``focus`` back into every frame of ``ctx``, innermost first.
    ``orig`` holds the original node of each of the innermost
    ``len(orig)`` frames, pushed since the last contraction; those are
    given back unbuilt."""
    while ctx:
        frame = ctx.pop()
        focus = orig.pop() if orig else _plug(frame, focus)
    return focus


def _reduce(t: Term, fuel: int):
    """Contract leftmost-outermost redexes in ``t``, at most ``fuel`` of
    them, and return ``(ctx, orig, focus, steps)``.

    A zipper walk that never restarts from the root.  ``ctx`` holds the
    frames above ``focus``, each only the sibling on the path:

    - a ``Name`` ``b``: focus in the body of an abstraction binding ``b``;
    - a term ``arg``: focus in an application's function, ``arg`` unsearched;
    - ``(fn,)``: focus in an application's argument, ``fn`` normal.

    ``orig`` holds the original node of each frame pushed since the last
    contraction, which are the topmost ``len(orig)`` frames of ``ctx``;
    a climb past one of them gives back its node, and past any other it
    plugs the frame.  A contraction clears ``orig``, so the subterms it
    rewrites are let go.

    All left of the focus is normal, so each search resumes at the
    contractum; only the parent can become a redex, when an abstraction
    lands in its function slot, and it is contracted at once.  At normal
    form ``ctx`` is ``None`` and ``focus`` the whole plugged term; when
    fuel runs out, ``focus`` is the next redex and ``ctx`` its unplugged
    context.
    """
    steps, ctx, orig, focus = 0, [], [], t
    while True:
        kind = type(focus)
        if kind is Lam:
            ctx.append(focus.binder)
            orig.append(focus)
            focus = focus.body
        elif kind is App and type(focus.fn) is not Lam:
            ctx.append(focus.arg)
            orig.append(focus)
            focus = focus.fn
        elif kind is App:  # a redex
            if steps == fuel:
                return ctx, orig, focus, steps
            orig.clear()
            focus = subst(focus.fn.body, focus.fn.binder, focus.arg)
            steps += 1
            while type(focus) is Lam and ctx and type(ctx[-1]) in _TERMS:
                arg = ctx.pop()
                if steps == fuel:
                    return ctx, orig, App(focus, arg), steps
                focus = subst(focus.body, focus.binder, arg)
                steps += 1
        elif kind is Var:  # climb to the nearest frame with an unsearched argument
            while ctx:
                frame = ctx[-1]
                if type(frame) in _TERMS:
                    ctx[-1] = (focus,)
                    focus = frame
                    break
                ctx.pop()
                focus = orig.pop() if orig else _plug(frame, focus)
            else:
                return None, orig, focus, steps
        else:
            raise TypeError("not a term")


def normalize(t: Term, fuel: int = 1000) -> NormalizeResult:
    """Contract leftmost-outermost redexes, at most ``fuel`` of them, on
    the zipper of :func:`_reduce`; the context is plugged back once,
    giving back the original node of each frame ``orig`` still holds.
    ``fuel`` must be a nonnegative integer: the loop stops only when the
    step count equals it."""
    fuel = operator.index(fuel)
    if fuel < 0:
        raise ValueError("fuel must be nonnegative")
    ctx, orig, focus, steps = _reduce(t, fuel)
    if ctx is None:
        return NormalizeResult(focus, steps, True)
    return NormalizeResult(_unplug(ctx, orig, focus), steps, False)


# ---------------------------------------------------------------------------
# Term enumeration (exhaustive desk-scale sweeps)
# ---------------------------------------------------------------------------

def term_size(t: Term) -> int:
    """Constructor count."""
    return _fold(t, lambda node, bound, depth: 1, lambda f, x: 1 + f + x,
                 lambda node, s, depth: 1 + s)


@lru_cache(maxsize=64)
def terms_of_size(
    size: int, pool: tuple[Name, ...], binders: tuple[Name, ...] | None = None
) -> tuple[Term, ...]:
    """All terms of exactly ``size`` constructors, variables drawn from
    ``pool`` and binders from ``binders`` (default: the same pool)."""
    if binders is None:
        binders = pool
    if size < 1 or not pool:  # every term has a variable
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
