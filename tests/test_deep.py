"""Terms and parser inputs 10^5 deep, far past the default recursion limit.

Every expected value is built by a loop: prefix tokens of the de Bruijn
image (``db_tokens``), rendered strings, and known free-name sets.  The
generated ``==``, ``hash`` and ``repr`` of terms are recursive, so no
assertion applies them to a deep term.
"""

import copy
import gc
import math
import signal
import time
from contextlib import contextmanager
from functools import cached_property

import pytest

from nomset import cli
from nomset.atoms import Name
from nomset.lam import (
    App,
    DbFree,
    DbVar,
    Lam,
    Var,
    alpha_eq,
    alpha_rec,
    beta_step,
    fv,
    normalize,
    subst,
    term_act,
    term_size,
    to_debruijn,
)
from nomset.nominal import instance_nameset
from nomset.perms import perm_apply, perm_equiv, swap_perm
from nomset.syntax import NameTable, parse_term, print_term

from .helpers import (
    act_rec,
    db_tokens,
    fv_combinators,
    max_name_id,
    reference_beta_step,
    reference_perm_apply,
    size_rec,
    subst_rec,
    term_tokens,
)

N = 100_000
x, y, z, w, v = Name(0), Name(1), Name(2), Name(7), Name(8)
XYZ = (x, y, z)
LABELS = {"x": x, "y": y, "z": z, "w": w, "v": v}


@contextmanager
def deadline(seconds, what):
    """Raise ``TimeoutError`` if the body runs past ``seconds``.  The alarm
    repeats: one that lands in a gc callback (hypothesis installs one) is
    reported as unraisable instead of raised."""

    def too_slow(signum, frame):
        raise TimeoutError(f"{what} took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, seconds, 1)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def renamed_tokens(t, rename):
    """``term_tokens(t)`` with ``rename`` applied to every name."""
    out = []
    for tok in term_tokens(t):
        if type(tok) is tuple:
            out.append((tok[0], rename(tok[1])))
        else:
            out.append(rename(tok) if type(tok) is Name else tok)
    return out


class Case:
    """A deep term, built by ``build`` around the leaf ``w``, with its free
    names, size, de Bruijn tokens and rendering under ``LABELS``."""

    def __init__(self, build, free, size, tokens, printed):
        self.build, self.term = build, build(Var(w))
        self.free, self.size, self.tokens, self.printed = free, size, tokens, printed

    @cached_property
    def swapped(self):
        return term_act(swap_perm(x, v), self.term)

    @cached_property
    def substituted(self):
        # x is bound in two of the three cases; no binder may capture it.
        return subst(self.term, w, Var(x))


def binder_chain_case() -> Case:
    # \b0. ... \b(N-1). x y z w with b_i = XYZ[i % 3]: every binder shadows
    # the one three levels out, and the body sees only the innermost three.
    def build(leaf):
        t = App(App(App(Var(x), Var(y)), Var(z)), leaf)
        for i in reversed(range(N)):
            t = Lam(XYZ[i % 3], t)
        return t

    innermost = {XYZ[i % 3]: i for i in range(N - 3, N)}
    refs = [DbVar(N - 1 - innermost[n]) for n in XYZ]
    tokens = ["\\"] * N + ["@"] * 3 + refs + [DbFree(w)]
    # Each abstraction avoids the labels of its free names: only w outside
    # the last three binders, which therefore print as a, b, c.
    label = {XYZ[i % 3]: "abc"[i - (N - 3)] for i in range(N - 3, N)}
    printed = "\\a. " * (N - 3) + "\\a. \\b. \\c. "
    printed += " ".join([label[x], label[y], label[z], "w"])
    return Case(build, {w}, N + 7, tokens, printed)


def left_spine_case() -> Case:
    # w a0 a1 ... a(N-1), applied left to right, a_i = XYZ[i % 3].
    def build(leaf):
        t = leaf
        for i in range(N):
            t = App(t, Var(XYZ[i % 3]))
        return t

    tokens = ["@"] * N + [DbFree(w)] + [DbFree(XYZ[i % 3]) for i in range(N)]
    printed = "w " + " ".join("xyz"[i % 3] for i in range(N))
    return Case(build, {w, x, y, z}, 2 * N + 1, tokens, printed)


def right_nested_case() -> Case:
    # \x. a0 (a1 (... (a(N-1) w))), a_i = XYZ[i % 3]; x is bound.
    def build(leaf):
        t = leaf
        for i in reversed(range(N)):
            t = App(Var(XYZ[i % 3]), t)
        return Lam(x, t)

    tokens = ["\\"]
    for i in range(N):
        a = XYZ[i % 3]
        tokens += ["@", DbVar(0) if a == x else DbFree(a)]
    tokens.append(DbFree(w))
    names = ["a" if i % 3 == 0 else "xyz"[i % 3] for i in range(N)]
    printed = "\\a. " + "".join(n + " (" for n in names[:-1])
    printed += names[-1] + " w" + ")" * (N - 1)
    return Case(build, {w, y, z}, 2 * N + 2, tokens, printed)


@pytest.fixture(
    scope="module", params=[binder_chain_case, left_spine_case, right_nested_case]
)
def case(request) -> Case:
    return request.param()


def test_cached_top_matches_a_walk(case):
    # The largest index, w's, sits in the deepest leaf.
    for t in (case.term, case.swapped, case.substituted):
        assert t._top == max_name_id(t)
    assert case.term._top == w.id


def test_fv_and_term_size(case):
    assert fv(case.term) == case.free
    assert term_size(case.term) == case.size


def test_to_debruijn(case):
    assert db_tokens(to_debruijn(case.term)) == case.tokens


def test_term_act_of_a_long_word(case):
    # (n0 n1)(n1 n2)...(n999 n1000) sends n0 to n1000 and every other n_k
    # to n_(k-1), so every name in the term moves.  Running the word once
    # into its image takes a fraction of a second; running it at each of
    # the 10^5 names takes minutes.
    p = tuple((Name(k), Name(k + 1)) for k in range(1000))
    with deadline(10, "term_act of a 1000-swap word"):
        got = term_act(p, case.term)
    image = {n: reference_perm_apply(p, n) for n in (x, y, z, w)}
    assert term_tokens(got) == renamed_tokens(case.term, image.__getitem__)


def test_perm_equiv_of_long_words():
    # Two words for the cycle n0 -> n(N-1) -> ... -> n1 -> n0 over 10^4
    # names: (n0 n1)(n1 n2)... and (n0 n(N-1))(n0 n(N-2))...(n0 n1).
    # Comparing images is linear; probing each of the 10^4 names through
    # both words takes minutes.
    n = 10_000
    p = tuple((Name(k), Name(k + 1)) for k in range(n - 1))
    q = tuple((Name(0), Name(k)) for k in reversed(range(1, n)))
    r = q[:-2] + (q[-1], q[-2])
    with deadline(10, "perm_equiv of two 10^4-swap words"):
        assert perm_equiv(p, q)
        assert not perm_equiv(p, r)
    assert perm_apply(q, Name(0)) == Name(n - 1)
    assert perm_apply(q, Name(n - 1)) == Name(n - 2)


def test_term_act_renames_free_and_bound_names(case):
    def swap(n):
        return {x: v, v: x}.get(n, n)

    assert term_tokens(case.swapped) == renamed_tokens(case.term, swap)


def test_subst_avoids_capture(case):
    expected = [DbFree(x) if t == DbFree(w) else t for t in case.tokens]
    assert db_tokens(to_debruijn(case.substituted)) == expected


def test_alpha_eq(case):
    # A shallow copy is a distinct root over the same subterms, so the
    # whole term is walked.
    assert alpha_eq(case.term, copy.copy(case.term))
    assert alpha_eq(case.term, case.swapped) == (x not in case.free)
    # The two differ only in the last leaf: free w against free x.
    assert not alpha_eq(case.term, case.substituted)


def test_alpha_rec_computes_fv(case):
    rec = alpha_rec(instance_nameset(), *fv_combinators())
    assert rec(case.term) == case.free


def test_recursors_into_terms(case):
    # The copy recursor, the action by (x v), substitution of x for w and
    # size.  One new name per binder keeps the fold linear; walking the
    # body's result at every binder takes minutes on the binder chain.
    with deadline(10, "alpha_rec into terms"):
        copied = act_rec(())(case.term)
        swapped = act_rec(swap_perm(x, v))(case.term)
        substituted = subst_rec(w, Var(x))(case.term)
        size = size_rec()(case.term)
    assert db_tokens(to_debruijn(copied)) == case.tokens
    assert alpha_eq(swapped, case.swapped)
    assert alpha_eq(substituted, case.substituted)
    assert size == case.size


def test_normalize_normal_form(case):
    result = normalize(case.term)
    assert (result.steps, result.normal_form) == (0, True)
    assert result.term is case.term


def test_normalize_redex_at_the_bottom(case):
    # (\v. v) w in place of w is the only redex, at the far end of the term.
    got = normalize(case.build(App(Lam(v, Var(v)), Var(w))))
    assert (got.steps, got.normal_form) == (1, True)
    assert term_tokens(got.term) == term_tokens(case.term)


def test_beta_step_stops_after_the_head_redex():
    # ((\x. x) y) s, with s a normal spine of 2 * 10^5 nodes.  A step that
    # searched s after contracting would take tens of milliseconds; the best
    # of three is held to 5 ms, with gc run first so no collection of the
    # spine lands inside a step.
    s = left_spine_case().term
    t = App(App(Lam(x, Var(x)), Var(y)), s)
    gc.collect()
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        got = beta_step(t)
        best = min(best, time.perf_counter() - start)
    assert best < 0.005
    assert term_tokens(got) == term_tokens(reference_beta_step(t))
    assert got.fn == Var(y) and got.arg is s


def test_normalize_resumes_after_each_contraction():
    # x ((\v. v) w) ... ((\v. v) w): every redex is an argument on a left
    # spine 2 * 10^4 deep.  Resuming at the contractum walks the spine once,
    # well under a second; a search restarted from the root at every step
    # walks it 2 * 10^4 times, for minutes, so the walk gets a deadline.
    n = 20_000
    t = Var(x)
    for _ in range(n):
        t = App(t, App(Lam(v, Var(v)), Var(w)))
    with deadline(10, "normalize of the redex spine"):
        got = normalize(t, n)
    assert (got.steps, got.normal_form) == (n, True)
    assert term_tokens(got.term) == ["@"] * n + [x] + [w] * n


def test_print_term(case):
    assert print_term(case.term, NameTable.from_labels(LABELS)) == case.printed


def parens_input():
    return "(" * N + "x" + ")" * N, [x]


def binder_chain_input():
    return "\\x. " * N + "x", [("\\", x)] * N + [x]


def left_application_input():
    return " ".join(["x"] * N), ["@"] * (N - 1) + [x] * N


def right_nested_input():
    return "x (" * (N - 1) + "x" + ")" * (N - 1), ["@", x] * (N - 1) + [x]


def distinct_identifiers_input():
    first = max(LABELS.values()).id + 1
    src = " ".join(f"u{i}" for i in range(N))
    return src, ["@"] * (N - 1) + [Name(first + i) for i in range(N)]


@pytest.mark.parametrize(
    "build",
    [parens_input, binder_chain_input, left_application_input, right_nested_input,
     distinct_identifiers_input],
)
def test_parse_term(build):
    src, tokens = build()
    with deadline(10, f"parse_term of {build.__name__}"):
        got = parse_term(src, NameTable.from_labels(LABELS))
    assert term_tokens(got) == tokens


def test_cli_fv_of_deeply_parenthesized_variable(capsys):
    assert cli.main(["fv", "(" * N + "x" + ")" * N]) == 0
    assert capsys.readouterr().out == "x\n"
