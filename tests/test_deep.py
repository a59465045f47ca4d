"""Terms and parser inputs 10^5 deep, far past the default recursion limit.

Every expected value is built by a loop: terms, de Bruijn images, rendered
strings and ``repr`` strings, and known free-name sets.  The values' own
``==``, ``hash``, ``repr``, copies and pickles walk them on explicit
stacks, so they are applied to deep values directly.
"""

import copy
import gc
import math
import pickle
import signal
import sys
import time
from contextlib import contextmanager
from functools import cached_property

import pytest

from nomset import cli
from nomset.abstraction import Abstraction
from nomset.atoms import Name
from nomset.lam import (
    App,
    DbApp,
    DbFree,
    DbLam,
    DbVar,
    Lam,
    NormalizeResult,
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
from nomset.nominal import Left, instance_nameset
from nomset.perms import perm_apply, perm_equiv, swap_perm
from nomset.syntax import NameTable, parse_term, print_term

from .helpers import (
    act_rec,
    fv_combinators,
    max_name_id,
    reference_beta_step,
    reference_perm_apply,
    size_rec,
    subst_rec,
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


def same(n):
    return n


class Case:
    """A deep term, built by ``build`` around the leaf ``w`` with ``rename``
    applied to every other name, with ``image`` building its de Bruijn
    image around the leaf's, its free names, size, rendering under
    ``LABELS`` and ``repr``."""

    def __init__(self, build, image, free, size, printed, shown):
        self.build, self.term = build, build(Var(w))
        self.image, self.free, self.size = image, free, size
        self.printed, self.shown = printed, shown

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
    def build(leaf, rename=same):
        t = App(App(App(Var(rename(x)), Var(rename(y))), Var(rename(z))), leaf)
        for i in reversed(range(N)):
            t = Lam(rename(XYZ[i % 3]), t)
        return t

    def image(leaf):
        innermost = {XYZ[i % 3]: i for i in range(N - 3, N)}
        refs = [DbVar(N - 1 - innermost[n]) for n in XYZ]
        d = DbApp(DbApp(DbApp(refs[0], refs[1]), refs[2]), leaf)
        for _ in range(N):
            d = DbLam(d)
        return d

    # Each abstraction avoids the labels of its free names: only w outside
    # the last three binders, which therefore print as a, b, c.
    label = {XYZ[i % 3]: "abc"[i - (N - 3)] for i in range(N - 3, N)}
    printed = "\\a. " * (N - 3) + "\\a. \\b. \\c. "
    printed += " ".join([label[x], label[y], label[z], "w"])
    shown = "".join(f"Lam(binder={XYZ[i % 3]!r}, body=" for i in range(N))
    shown += "App(fn=App(fn=App(fn=Var(name=Name(0)), arg=Var(name=Name(1))), "
    shown += "arg=Var(name=Name(2))), arg=Var(name=Name(7)))" + ")" * N
    return Case(build, image, {w}, N + 7, printed, shown)


def left_spine_case() -> Case:
    # w a0 a1 ... a(N-1), applied left to right, a_i = XYZ[i % 3].
    def build(leaf, rename=same):
        t = leaf
        for i in range(N):
            t = App(t, Var(rename(XYZ[i % 3])))
        return t

    def image(leaf):
        d = leaf
        for i in range(N):
            d = DbApp(d, DbFree(XYZ[i % 3]))
        return d

    printed = "w " + " ".join("xyz"[i % 3] for i in range(N))
    shown = "App(fn=" * N + "Var(name=Name(7))"
    shown += "".join(f", arg=Var(name={XYZ[i % 3]!r}))" for i in range(N))
    return Case(build, image, {w, x, y, z}, 2 * N + 1, printed, shown)


def right_nested_case() -> Case:
    # \x. a0 (a1 (... (a(N-1) w))), a_i = XYZ[i % 3]; x is bound.
    def build(leaf, rename=same):
        t = leaf
        for i in reversed(range(N)):
            t = App(Var(rename(XYZ[i % 3])), t)
        return Lam(rename(x), t)

    def image(leaf):
        d = leaf
        for i in reversed(range(N)):
            a = XYZ[i % 3]
            d = DbApp(DbVar(0) if a == x else DbFree(a), d)
        return DbLam(d)

    names = ["a" if i % 3 == 0 else "xyz"[i % 3] for i in range(N)]
    printed = "\\a. " + "".join(n + " (" for n in names[:-1])
    printed += names[-1] + " w" + ")" * (N - 1)
    shown = "Lam(binder=Name(0), body="
    shown += "".join(f"App(fn=Var(name={XYZ[i % 3]!r}), arg=" for i in range(N))
    shown += "Var(name=Name(7))" + ")" * (N + 1)
    return Case(build, image, {w, y, z}, 2 * N + 2, printed, shown)


@pytest.fixture(
    scope="module", params=[binder_chain_case, left_spine_case, right_nested_case]
)
def case(request):
    # A case holds hundreds of thousands of nodes, which every full
    # collection the tests set off would walk again; frozen, they are
    # skipped, as the benchmark harness freezes its inputs.
    built = request.param()
    gc.freeze()
    yield built
    gc.unfreeze()


def test_cached_top_matches_a_walk(case):
    # The largest index, w's, sits in the deepest leaf.
    for t in (case.term, case.swapped, case.substituted):
        assert t._top == max_name_id(t)
    assert case.term._top == w.id


def test_fv_and_term_size(case):
    assert fv(case.term) == case.free
    assert term_size(case.term) == case.size


def test_to_debruijn(case):
    assert to_debruijn(case.term) == case.image(DbFree(w))


def test_term_act_of_a_long_word(case):
    # (n0 n1)(n1 n2)...(n999 n1000) sends n0 to n1000 and every other n_k
    # to n_(k-1), so every name in the term moves.  Running the word once
    # into its image takes a fraction of a second; running it at each of
    # the 10^5 names takes minutes.
    p = tuple((Name(k), Name(k + 1)) for k in range(1000))
    with deadline(10, "term_act of a 1000-swap word"):
        got = term_act(p, case.term)
    image = {n: reference_perm_apply(p, n) for n in (x, y, z, w)}
    assert got == case.build(Var(image[w]), image.__getitem__)


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

    assert case.swapped == case.build(Var(swap(w)), swap)


def test_subst_avoids_capture(case):
    assert to_debruijn(case.substituted) == case.image(DbFree(x))


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
    assert to_debruijn(copied) == case.image(DbFree(w))
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
    assert got.term == case.term


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
    assert got == reference_beta_step(t)
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
    expected = Var(x)
    for _ in range(n):
        expected = App(expected, Var(w))
    assert got.term == expected


def test_print_term(case):
    assert print_term(case.term, NameTable.from_labels(LABELS)) == case.printed


CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{f"pickle{p}": lambda t, p=p: pickle.loads(pickle.dumps(t, p))
       for p in range(pickle.HIGHEST_PROTOCOL + 1)},
}


def test_eq_hash_and_repr(case):
    # Methods generated per class recursed once per level, and raised
    # RecursionError on a binder chain 2,000 deep.
    twin = case.build(Var(w))
    with deadline(10, "==, hash and repr"):
        assert case.term == twin and not case.term != twin
        # The two differ only in the last leaf: free w against free x.
        assert case.term != case.substituted
        assert hash(case.term) == hash(twin)
        assert repr(case.term) == case.shown


@pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
def test_copies_and_pickles(case, clone):
    with deadline(10, "a copy or pickle round trip"):
        got = clone(case.term)
        assert got is not case.term and got == case.term
    assert got._top == case.term._top
    # copy.copy is shallow, as it was for the generated dataclasses.
    shares = [getattr(got, f) is getattr(case.term, f) for f in got.__match_args__]
    assert all(shares) == (clone is copy.copy)


def test_copies_and_pickles_keep_shared_subterms_shared():
    # 2^64 leaves as a tree, 65 nodes as a graph: a copy or pickle that
    # walked the tree would never finish.
    t = Var(Name(0))
    for _ in range(64):
        t = App(t, t)
    for clone in CLONES.values():
        got = clone(t)
        assert got is not t
        for _ in range(64):
            assert got.fn is got.arg and type(got) is App
            got = got.fn
        assert got == Var(Name(0)) and got._top == 0


def church_like(k, f, a, leaf):
    """``\\f. \\a. f (f (... (f leaf)))`` with ``k`` applications of ``f``."""
    body = leaf
    for _ in range(k):
        body = App(Var(f), body)
    return Lam(f, Lam(a, body))


def test_values_around_a_normal_form_past_the_recursion_limit():
    # c_12 c_2 normalizes to c_4096, 4,098 levels deep, in 8,190 steps; the
    # normal form, its result record, and an abstraction and a sum value
    # wrapping it are compared, hashed, shown, copied and pickled.
    f, a = Name(10), Name(11)
    redex = App(church_like(12, f, a, Var(a)), church_like(2, f, a, Var(a)))
    result, twin = normalize(redex, 10_000), normalize(redex, 10_000)
    assert sys.getrecursionlimit() < 4_098
    assert (result.steps, result.normal_form) == (8_190, True)
    image = DbVar(0)
    for _ in range(4_096):
        image = DbApp(DbVar(1), image)
    assert to_debruijn(result.term) == DbLam(DbLam(image))
    b, c = result.term.binder, result.term.body.binder
    miss = church_like(4_096, b, c, Var(b))
    shown = f"Lam(binder={b!r}, body=Lam(binder={c!r}, body="
    shown += f"App(fn=Var(name={b!r}), arg=" * 4_096 + f"Var(name={c!r})" + ")" * 4_098
    wrappers = [
        (lambda t: t, "{}"),
        (lambda t: NormalizeResult(t, 8_190, True),
         "NormalizeResult(term={}, steps=8190, normal_form=True)"),
        (lambda t: Abstraction(x, t), "Abstraction(name=Name(0), term={})"),
        (Left, "Left(value={})"),
    ]
    for wrap, form in wrappers:
        got = wrap(result.term)
        assert got == wrap(twin.term) and hash(got) == hash(wrap(twin.term))
        assert got != wrap(miss)
        assert repr(got) == form.format(shown)
        for clone in CLONES.values():
            assert clone(got) == got


def parens_input():
    return "(" * N + "x" + ")" * N, Var(x)


def binder_chain_input():
    t = Var(x)
    for _ in range(N):
        t = Lam(x, t)
    return "\\x. " * N + "x", t


def left_application_input():
    t = Var(x)
    for _ in range(N - 1):
        t = App(t, Var(x))
    return " ".join(["x"] * N), t


def right_nested_input():
    t = Var(x)
    for _ in range(N - 1):
        t = App(Var(x), t)
    return "x (" * (N - 1) + "x" + ")" * (N - 1), t


def distinct_identifiers_input():
    first = max(LABELS.values()).id + 1
    t = Var(Name(first))
    for i in range(1, N):
        t = App(t, Var(Name(first + i)))
    return " ".join(f"u{i}" for i in range(N)), t


@pytest.mark.parametrize(
    "build",
    [parens_input, binder_chain_input, left_application_input, right_nested_input,
     distinct_identifiers_input],
)
def test_parse_term(build):
    src, expected = build()
    with deadline(10, f"parse_term of {build.__name__}"):
        got = parse_term(src, NameTable.from_labels(LABELS))
    assert got == expected


def test_cli_fv_of_deeply_parenthesized_variable(capsys):
    assert cli.main(["fv", "(" * N + "x" + ")" * N]) == 0
    assert capsys.readouterr().out == "x\n"
