"""Plain-random helpers for building alpha-equal variants in tests, and a
reference printer."""

import random

from nomset.abstraction import Abstraction
from nomset.atoms import Name, fresh_for
from nomset.freshness import fresh_dec
from nomset.lam import App, DbApp, DbLam, DbTerm, Lam, Term, Var, fv, term_act
from nomset.nominal import NominalInstance
from nomset.perms import swap_perm
from nomset.syntax import NameTable

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
        match d:
            case DbApp(f, x):
                out.append("@")
                todo += (x, f)
            case DbLam(body):
                out.append("\\")
                todo.append(body)
            case _:
                out.append(d)
    return out


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
