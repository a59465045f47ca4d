"""Plain-random helpers for building alpha-equal variants in tests, and
reference copies of the recursive parser, printer and beta step; free
variables, the de Bruijn conversion and term size by plain recursion;
substitution with every largest name index found by a walk rather than
read from the cache, the permutation action and equivalence that ran the
swap word once per name, and alpha-structural recursion as the binder
rule applied through ``fcb_lift``; substitution, the permutation action
and term size written as recursors; the value types as generated
dataclasses; and copies and pickle round trips by name."""

import copy
import pickle
import random
import re
from collections import Counter
from dataclasses import make_dataclass

from nomset.abstraction import Abstraction
from nomset.atoms import Name, fresh_for
from nomset.freshness import fresh_dec
from nomset.lam import (
    App, DbApp, DbFree, DbLam, DbVar, Lam, NormalizeResult, Term, Var, alpha_rec, fv,
    instance_term, term_act,
)
from nomset.nominal import (
    LawReport, LawResult, Left, NominalInstance, Right, instance_name, instance_nameset,
    instance_pair, instance_trivial,
)
from nomset.perms import perm_apply, perm_domain, swap_apply, swap_perm
from nomset.suppfn import SuppFn, SuppSpecReport, fcb_lift
from nomset.syntax import NameTable, ParseError

POOL = tuple(Name(i) for i in range(6))


def rename_binders(t: Term, rng: random.Random, pool=POOL) -> Term:
    """An alpha-equal term obtained by randomly renaming binders."""
    match t:
        case Var(_):
            return t
        case App(f, x):
            return App(rename_binders(f, rng, pool), rename_binders(x, rng, pool))
        case Lam(b, s):
            s = rename_binders(s, rng, pool)
            # Any c outside fv(s) keeps the class; c == b is the identity.
            candidates = [c for c in pool if c == b or c not in fv(s)]
            candidates.append(fresh_for(fv(s) | {b}))
            c = rng.choice(candidates)
            return Lam(c, term_act(swap_perm(b, c), s))
    raise TypeError(f"not a term: {t!r}")


def count_constructions(monkeypatch) -> Counter:
    """Count every ``Name``, ``Var``, ``App`` and ``Lam`` built from here
    on, by class, through a counting wrapper around each ``__init__``."""
    counts: Counter = Counter()
    for cls in (Name, Var, App, Lam):
        def counted(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
            counts[_cls] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def binder_chain(binders, body: Term) -> Term:
    """``\\b1. \\b2. ... body`` over ``binders``, outermost first."""
    for b in reversed(binders):
        body = Lam(b, body)
    return body


# The value types other than Name as plain generated dataclasses, with the
# dataclass decorator's own recursive ==, hash and repr: the reference the
# shared walkers in nomset.atoms must match.  The six records, which
# were such dataclasses themselves, have their twins here too.
RECORDS = (NominalInstance, LawResult, LawReport, SuppFn, SuppSpecReport, NormalizeResult)
MIRRORS = {
    cls: make_dataclass(cls.__name__, cls.__match_args__, frozen=True)
    for cls in (Var, App, Lam, DbVar, DbFree, DbApp, DbLam, Abstraction, Left, Right, *RECORDS)
}


# Copies and pickle round trips at every protocol, by name.
CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{f"pickle{p}": lambda t, p=p: pickle.loads(pickle.dumps(t, p))
       for p in range(pickle.HIGHEST_PROTOCOL + 1)},
}


def mirrored(v, memo=None):
    """``v`` rebuilt from ``MIRRORS``, by recursion through fields and
    tuples, each object shared in ``v`` shared in the mirror; any other
    value is kept."""
    memo = {} if memo is None else memo
    if id(v) not in memo:
        mirror = MIRRORS.get(type(v))
        if type(v) is tuple:
            memo[id(v)] = tuple(mirrored(c, memo) for c in v)
        elif mirror is None:
            return v
        else:
            memo[id(v)] = mirror(*(mirrored(getattr(v, f), memo) for f in v.__match_args__))
    return memo[id(v)]


def max_name_id(t: Term) -> int:
    """The largest name index in ``t``, binders included, by a walk that
    shares no code with the terms' cached ``_top``."""
    top, todo = -1, [t]
    while todo:
        t = todo.pop()
        kind = type(t)
        if kind is App:
            todo += (t.arg, t.fn)
        elif kind is Lam:
            top = max(top, t.binder.id)
            todo.append(t.body)
        else:
            top = max(top, t.name.id)
    return top


def reference_subst(t: Term, a: Name, u: Term) -> Term:
    """``subst`` with every largest name index found by walking
    (``max_name_id``), on a loop of its own; ``subst`` must give the same
    term, renamed binders included, and share the same subterms.

    A binder whose index is at most ``u``'s largest, or is ``a``'s, is
    renamed: under ``d`` renamed others it becomes ``Name(top + d)``, all
    its occurrences one new ``Var``.  A subterm whose names all lie below
    ``a`` and every renamed binder around it is kept as it is, and a node
    whose children all came back as they were is kept too."""
    target, bound = a.id, max_name_id(u)
    top = max(target, max_name_id(t), bound) + 1
    renamed: dict[int, Var] = {}
    out: list[Term] = []
    # A visit carries the least index that can change below it, and the
    # number of renamed binders around it.
    todo: list[tuple] = [("visit", t, target, 0)]
    while todo:
        op, node, *args = todo.pop()
        if op == "app":
            arg = out.pop()
            fn = out.pop()
            out.append(node if fn is node.fn and arg is node.arg else App(fn, arg))
        elif op == "lam":
            body = out.pop()
            out.append(node if body is node.body else Lam(node.binder, body))
        elif op == "renamed":
            b, shadowed = args
            body = out.pop()
            out.append(Lam(renamed[b].name, body))
            if shadowed is None:
                del renamed[b]
            else:
                renamed[b] = shadowed
        else:
            low, depth = args
            if max_name_id(node) < low:
                out.append(node)
            elif type(node) is Var:
                i = node.name.id
                out.append(renamed[i] if i in renamed else u if i == target else node)
            elif type(node) is App:
                todo += [("app", node), ("visit", node.arg, low, depth),
                         ("visit", node.fn, low, depth)]
            elif node.binder.id <= bound or node.binder.id == target:
                b = node.binder.id
                todo += [("renamed", node, b, renamed.get(b)),
                         ("visit", node.body, min(low, b), depth + 1)]
                renamed[b] = Var(Name(top + depth))
            else:
                todo += [("lam", node), ("visit", node.body, low, depth)]
    return out[0]


def reference_perm_apply(p, a):
    """``perm_apply`` as one ``swap_apply`` call per swap."""
    for s in p:
        a = swap_apply(s, a)
    return a


def reference_perm_equiv(p, q) -> bool:
    """``perm_equiv`` by probing every name either word mentions through
    both words: every other name is fixed by both."""
    probe = perm_domain(p) | perm_domain(q)
    return all(reference_perm_apply(p, a) == reference_perm_apply(q, a) for a in probe)


def reference_term_act(p, t: Term) -> Term:
    """``term_act`` running the whole word at every name, on a loop of
    its own."""
    out: list[Term] = []
    todo: list[tuple] = [("visit", t)]
    while todo:
        op, node = todo.pop()
        if op == "app":
            arg = out.pop()
            out[-1] = App(out[-1], arg)
        elif op == "lam":
            out[-1] = Lam(reference_perm_apply(p, node.binder), out[-1])
        elif type(node) is Var:
            out.append(Var(reference_perm_apply(p, node.name)))
        elif type(node) is App:
            todo += [("app", node), ("visit", node.arg), ("visit", node.fn)]
        else:
            todo += [("lam", node), ("visit", node.body)]
    return out[0]


def reference_fv(t: Term) -> frozenset:
    """Free variables by plain recursion: a body's, less its binder."""
    match t:
        case Var(a):
            return frozenset({a})
        case App(f, x):
            return reference_fv(f) | reference_fv(x)
        case Lam(a, s):
            return reference_fv(s) - {a}
    raise TypeError(f"not a term: {t!r}")


def reference_to_debruijn(t: Term, scope: tuple = ()):
    """The nameless form by plain recursion: ``scope`` lists the enclosing
    binders, innermost first, and a bound variable's index is the position
    of the innermost binder of its name."""
    match t:
        case Var(a):
            return DbVar(scope.index(a)) if a in scope else DbFree(a)
        case App(f, x):
            return DbApp(reference_to_debruijn(f, scope), reference_to_debruijn(x, scope))
        case Lam(a, s):
            return DbLam(reference_to_debruijn(s, (a,) + scope))
    raise TypeError(f"not a term: {t!r}")


def reference_term_size(t: Term) -> int:
    """Constructor count by plain recursion."""
    match t:
        case Var(_):
            return 1
        case App(f, x):
            return 1 + reference_term_size(f) + reference_term_size(x)
        case Lam(_, s):
            return 1 + reference_term_size(s)
    raise TypeError(f"not a term: {t!r}")


def fv_combinators():
    """The three clauses of ``fv`` for ``alpha_rec`` into name sets."""
    iname = instance_name()
    inset = instance_nameset()
    fvar = SuppFn(lambda n: frozenset({n}), frozenset(), dom=iname, cod=inset)
    fapp = SuppFn(
        lambda st: st[0] | st[1],
        frozenset(),
        dom=instance_pair(inset, inset),
        cod=inset,
    )
    flam = SuppFn(
        lambda ns: ns[1] - {ns[0]},
        frozenset(),
        dom=instance_pair(iname, inset),
        cod=inset,
    )
    return fvar, fapp, flam


def reference_alpha_rec(iy, fvar, fapp, flam) -> SuppFn:
    """``alpha_rec`` as Pitts's binder rule read literally, by recursion:
    ``\\a. s`` goes to ``fcb_lift`` of ``(c, s') -> flam(c, rec(s'))`` on
    the input abstraction ``[a] s``, which renames ``a`` in ``s`` to a
    name fresh for ``s`` and the clauses before recurring.  ``alpha_rec``
    must agree with it up to ``iy.equiv``."""
    iterm = instance_term()
    supp = fvar.supp | fapp.supp | flam.supp
    binder = fcb_lift(iterm, SuppFn(
        lambda cs: flam.fn((cs[0], rec(cs[1]))), supp,
        dom=instance_pair(instance_name(), iterm), cod=iy))

    def rec(t: Term):
        match t:
            case Var(a):
                return fvar.fn(a)
            case App(f, x):
                return fapp.fn((rec(f), rec(x)))
            case Lam(a, s):
                return binder.fn(Abstraction(a, s))
        raise TypeError(f"not a term: {t!r}")

    return SuppFn(rec, supp, dom=iterm, cod=iy)


def _into_terms(fvar, supp, recursor):
    """A recursor into terms: ``fvar`` with support ``supp`` at variables,
    and the constructors, with empty support, at the other two nodes."""
    iterm, iname = instance_term(), instance_name()
    return recursor(
        iterm,
        SuppFn(fvar, supp, dom=iname, cod=iterm),
        SuppFn(lambda fx: App(*fx), frozenset(), dom=instance_pair(iterm, iterm), cod=iterm),
        SuppFn(lambda bs: Lam(*bs), frozenset(), dom=instance_pair(iname, iterm), cod=iterm),
    )


def subst_rec(a: Name, u: Term, recursor=alpha_rec) -> SuppFn:
    """Pitts's substitution of ``u`` for ``a`` as a recursor: ``fvar(b)``
    is ``u`` when ``b`` is ``a`` and ``Var(b)`` otherwise, with support
    ``{a}`` and the free names of ``u``."""
    return _into_terms(lambda b: u if b == a else Var(b), frozenset({a}) | fv(u), recursor)


def act_rec(p) -> SuppFn:
    """The permutation action as a recursor: ``fvar(b)`` is ``Var(p . b)``,
    with support every name ``p`` mentions."""
    return _into_terms(lambda b: Var(perm_apply(p, b)), perm_domain(p), alpha_rec)


def size_rec() -> SuppFn:
    """Term size as a recursor into the trivial instance on ints."""
    itriv, iname = instance_trivial(), instance_name()
    return alpha_rec(
        itriv,
        SuppFn(lambda b: 1, frozenset(), dom=iname, cod=itriv),
        SuppFn(lambda fx: 1 + fx[0] + fx[1], frozenset(),
               dom=instance_pair(itriv, itriv), cod=itriv),
        SuppFn(lambda bs: 1 + bs[1], frozenset(), dom=instance_pair(iname, itriv), cod=itriv),
    )


def alpha_variant_abs(
    inst: NominalInstance, ab: Abstraction, rng: random.Random, pool=POOL
) -> Abstraction:
    """An abstraction alpha-equal to ``ab``, by renaming the bound name."""
    candidates = [
        c for c in pool if c == ab.name or fresh_dec(inst, c, ab.term)
    ]
    candidates.append(fresh_for(inst.support(ab.term) | {ab.name}))
    c = rng.choice(candidates)
    return Abstraction(c, inst.act(swap_perm(ab.name, c), ab.term))


def _reference_labels():
    letters = "abcdefghijklmnopqrstuvwxyz"
    yield from letters
    k = 1
    while True:
        for ch in letters:
            yield f"{ch}{k}"
        k += 1


def reference_print_term(t: Term, table: NameTable | None = None) -> str:
    """The straightforward printer that recomputes ``fv`` at every binder;
    ``print_term`` must agree with it byte for byte, and leave the table
    in the same state."""
    if table is None:
        table = NameTable()

    def lookup(n: Name, env: dict[Name, str]) -> str:
        return env[n] if n in env else table.label_of(n)

    def binder_label(body: Term, binder: Name, env: dict[Name, str]) -> str:
        avoid = {lookup(n, env) for n in fv(body) if n != binder}
        for candidate in _reference_labels():
            if candidate not in avoid:
                return candidate
        raise AssertionError("unreachable: label sequence is infinite")

    def go(t: Term, env: dict[Name, str]) -> str:
        match t:
            case Var(a):
                return lookup(a, env)
            case App(f, x):
                lhs = go(f, env)
                if isinstance(f, Lam):
                    lhs = f"({lhs})"
                rhs = go(x, env)
                if isinstance(x, (App, Lam)):
                    rhs = f"({rhs})"
                return f"{lhs} {rhs}"
            case Lam(b, s):
                label = binder_label(s, b, env)
                return f"\\{label}. {go(s, {**env, b: label})}"
        raise TypeError(f"not a term: {t!r}")

    return go(t, {})


def reference_beta_step(t: Term) -> Term | None:
    """The recursive leftmost-outermost step, contracting with
    :func:`reference_subst`; ``normalize`` must take the same steps to the
    same terms."""
    match t:
        case App(Lam(b, s), u):
            return reference_subst(s, b, u)
        case App(f, x):
            step = reference_beta_step(f)
            if step is not None:
                return App(step, x)
            step = reference_beta_step(x)
            if step is not None:
                return App(f, step)
            return None
        case Lam(b, s):
            step = reference_beta_step(s)
            return None if step is None else Lam(b, step)
        case _:
            return None


# The reference parser's own lexer: the whitespace before a token, then
# the token, if any; and the line breaks of ``str.splitlines``, "\r\n" one.
_REF_TOKEN_RE = re.compile(r"(\s*)([\\λ.()]|[A-Za-z_][A-Za-z0-9_']*)?")
_REF_BREAK_RE = re.compile(r"\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
_REF_KIND = {"\\": "lam", "λ": "lam", ".": "dot", "(": "lp", ")": "rp"}
_REF_LABEL = {"lam": "'\\'", "dot": "'.'", "lp": "'('", "rp": "')'",
              "ident": "identifier", "eof": "end of input"}


def reference_parse_term(src: str, table: NameTable) -> Term:
    """The recursive-descent parser, three frames per parenthesis, on a
    lexer of its own that tracks the position of every token;
    ``parse_term`` must return the same term or raise the same
    ``ParseError``, and leave the table in the same state."""
    tokens = []
    line, col, pos = 1, 1, 0
    while True:
        m = _REF_TOKEN_RE.match(src, pos)
        space, text = m.groups()
        breaks = list(_REF_BREAK_RE.finditer(space))
        if breaks:
            line += len(breaks)
            col = len(space) - breaks[-1].end() + 1
        else:
            col += len(space)
        pos = m.end()
        if text is None:
            if pos < len(src):
                raise ParseError(f"unexpected character {src[pos]!r}", line, col)
            tokens.append(("eof", "", line, col))
            break
        tokens.append((_REF_KIND.get(text, "ident"), text, line, col))
        col += len(text)
    at = 0

    def advance():
        nonlocal at
        at += 1
        return tokens[at - 1]

    def fail(message):
        raise ParseError(message, tokens[at][2], tokens[at][3])

    def expect(kind):
        if tokens[at][0] != kind:
            fail(f"expected {_REF_LABEL[kind]}, found {_REF_LABEL[tokens[at][0]]}")
        return advance()

    def term():
        if tokens[at][0] == "lam":
            advance()
            binder = table.intern(expect("ident")[1])
            expect("dot")
            if tokens[at][0] in ("rp", "eof"):
                fail("expected a term (missing abstraction body)")
            return Lam(binder, term())
        return app()

    def app():
        t = atom()
        while tokens[at][0] in ("ident", "lp"):
            t = App(t, atom())
        return t

    def atom():
        if tokens[at][0] == "ident":
            return Var(table.intern(advance()[1]))
        if tokens[at][0] == "lp":
            advance()
            t = term()
            expect("rp")
            return t
        fail(f"expected identifier or '(', found {_REF_LABEL[tokens[at][0]]}")

    t = term()
    expect("eof")
    return t
