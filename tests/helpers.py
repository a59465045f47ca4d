"""Plain-random helpers for building alpha-equal variants in tests, and
reference copies of the recursive parser, printer and beta step, of
substitution with every largest name index found by a walk rather than
read from the cache, and of the permutation action and equivalence that
ran the swap word once per name."""

import random
import re
from collections import Counter

from nomset.abstraction import Abstraction
from nomset.atoms import Name, fresh_for
from nomset.freshness import fresh_dec
from nomset.lam import App, DbApp, DbLam, DbTerm, Lam, Term, Var, fv, term_act
from nomset.nominal import NominalInstance, instance_name, instance_nameset, instance_pair
from nomset.perms import perm_domain, swap_apply, swap_perm
from nomset.suppfn import SuppFn
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


def db_tokens(d: DbTerm) -> list:
    """Prefix tokens of a de Bruijn image, built without recursion: the
    generated ``==`` on deep images would exceed the recursion limit."""
    out, todo = [], [d]
    while todo:
        d = todo.pop()
        kind = type(d)
        if kind is DbApp:
            out.append("@")
            todo += (d.arg, d.fn)
        elif kind is DbLam:
            out.append("\\")
            todo.append(d.body)
        else:
            out.append(d)
    return out


def term_tokens(t: Term) -> list:
    """Prefix tokens of a named term, built without recursion; two terms
    are ``==`` exactly when their tokens are, but the generated ``==``
    exceeds the recursion limit on deep terms."""
    out, todo = [], [t]
    while todo:
        t = todo.pop()
        kind = type(t)
        if kind is App:
            out.append("@")
            todo += (t.arg, t.fn)
        elif kind is Lam:
            out.append(("\\", t.binder))
            todo.append(t.body)
        else:
            out.append(t.name)
    return out


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
