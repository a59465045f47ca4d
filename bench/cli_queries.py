"""cli-queries: a stream of all six subcommands through ``nomset.cli.main``.

Each op is one in-process ``main(argv)`` call with stdout and stderr
captured.  A round holds ``SMALL`` small queries (terms of at most about
20 tokens) and one of each ``LARGE`` query: a term nested in parentheses
a few hundred deep (one below and one past the depth where today's
parser overflows), a term with hundreds of distinct identifiers for
``alphaeq`` and for ``fresh``, and ``subst`` under hundreds of nested
binders.

Expected exit codes and stdout come from the generator: verdicts and
free-variable lists are read off the term as built, and printed terms are
compared by de Bruijn tokens against the input's tokens transformed as
the subcommand prescribes.
"""

from __future__ import annotations

import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout

from harness import Op
from refs import church_db, free_keys, splice_free, text_db

NAME = "cli-queries"
WHY = (
    "user-facing latency of the command: argparse, parse_term, "
    "NameTable.intern and print_term dominate, lambda work is small"
)
SETUP = "from nomset.cli import main"
SMALL = {
    "alphaeq": 40, "fv": 35, "subst": 30, "perm": 30, "fresh": 30,
    "normalize": 25, "malformed": 6,
}
LARGE = ("parens", "parens_deep", "wide_alphaeq", "wide_fresh", "binders")
LABELS = ("x", "y", "z", "w", "f", "g", "h", "k", "p", "q", "s_1", "tmp'")
MALFORMED = (
    ("fv", "\\x."), ("fv", "(x y"), ("alphaeq", "x )"), ("fresh", "\\. x"),
    ("subst", "x $ y"), ("normalize", "(\\x. x"),
)

TAIL_D = 100  # latency_tail_ms at p99; see harness.tail


class Workload:
    def __init__(self, api):
        pass

    def rounds(self, seed: int):
        rng = random.Random(seed)
        while True:
            batch = []
            for kind, count in SMALL.items():
                batch += [_SMALL[kind](rng) for _ in range(count)]
            batch += [_LARGE[kind](rng) for kind in LARGE]
            rng.shuffle(batch)
            yield batch


# ---------------------------------------------------------------------------
# Running one query and checking it
# ---------------------------------------------------------------------------

# One pair of capture buffers, emptied before each query, so that the timed
# call allocates no capture objects of its own.
_OUT, _ERR = io.StringIO(), io.StringIO()
_CAPTURE = redirect_stdout(_OUT), redirect_stderr(_ERR)


def run_cli(api, argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)`` with its output captured: (exit code, stdout, stderr).

    ``SystemExit`` is how argparse reports a usage error, so it is an exit
    code; any other exception propagates and fails the op."""
    for buf in (_OUT, _ERR):
        buf.seek(0)
        buf.truncate()
    with _CAPTURE[0], _CAPTURE[1]:
        try:
            code = api.cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, _OUT.getvalue(), _ERR.getvalue()


def _query(kind: str, argv: list[str], expect_code: int, check_stdout,
           deep: bool = False) -> Op:
    def check(out, tally):
        code, stdout, stderr = out
        tally[f"cli.exit_code.{code}"] += 1
        if code != expect_code:
            return False
        if code == 2:
            return stdout == "" and stderr.startswith("error:")
        return check_stdout(stdout)

    return Op(kind="cli." + kind, key=tuple(argv),
              call=lambda api: run_cli(api, argv), check=check,
              size=sum(len(a) for a in argv[1:]), deep=deep,
              replay=_replayer(argv))


def _exact(text: str):
    return lambda stdout: stdout == text


def _term_output(expect_db: tuple, suffix: str = ""):
    """stdout is one printed term, then ``suffix``, then a newline."""

    def check(stdout: str) -> bool:
        if not stdout.endswith(suffix + "\n"):
            return False
        return text_db(stdout[: len(stdout) - len(suffix) - 1]) == expect_db

    return check


# ---------------------------------------------------------------------------
# Small terms as trees: ("V", label) | ("A", f, x) | ("L", label, body)
# ---------------------------------------------------------------------------

def _tree(rng: random.Random, labels, budget: int, redex_free=False):
    if budget <= 1 or rng.random() < 0.3:
        return ("V", rng.choice(labels))
    if rng.random() < 0.4:
        return ("L", rng.choice(labels), _tree(rng, labels, budget - 1, redex_free))
    left = rng.randrange(1, budget - 1) if budget > 2 else 1
    f = _tree(rng, labels, left, redex_free)
    if redex_free:
        while f[0] == "L":
            f = f[2]
    return ("A", f, _tree(rng, labels, budget - 1 - left, redex_free))


def _text(t) -> str:
    if t[0] == "V":
        return t[1]
    if t[0] == "L":
        return f"\\{t[1]}. {_text(t[2])}"
    f, x = _text(t[1]), _text(t[2])
    if t[1][0] == "L":
        f = f"({f})"
    if t[2][0] != "V":
        x = f"({x})"
    return f"{f} {x}"


def _rename_binders(t, fresh):
    """An alpha-equal tree: every binder gets a new label from ``fresh``."""
    def go(t, env):
        if t[0] == "V":
            return ("V", env.get(t[1], t[1]))
        if t[0] == "A":
            return ("A", go(t[1], env), go(t[2], env))
        new = next(fresh)
        return ("L", new, go(t[2], {**env, t[1]: new}))

    return go(t, {})


def _labels(rng: random.Random):
    return rng.sample(LABELS, rng.randint(2, 5))


def _small(rng, redex_free=False):
    return _text(_tree(rng, _labels(rng), rng.randint(2, 8), redex_free))


def _alphaeq(rng) -> Op:
    left_tree = _tree(rng, _labels(rng), rng.randint(2, 8))
    if rng.random() < 0.5:
        fresh = (f"r{i}" for i in range(rng.randrange(50), 10**6))
        right = _text(_rename_binders(left_tree, fresh))
    else:
        right = _small(rng)
    left = _text(left_tree)
    equal = text_db(left) == text_db(right)
    op = _query("alphaeq", ["alphaeq", left, right], 0 if equal else 1,
                _exact("true\n" if equal else "false\n"))
    op.equal = equal
    return op


def _fv(rng) -> Op:
    term = _small(rng)
    names = " ".join(sorted(free_keys(text_db(term))))
    return _query("fv", ["fv", term], 0, _exact(names + "\n"))


def _subst(rng) -> Op:
    labels = _labels(rng)
    term = _text(_tree(rng, labels, rng.randint(2, 8)))
    name = rng.choice(labels)
    repl = _text(_tree(rng, labels, rng.randint(1, 4)))
    expect = splice_free(text_db(term), name, text_db(repl))
    return _query("subst", ["subst", term, name, repl], 0, _term_output(expect))


def _perm(rng) -> Op:
    labels = _labels(rng)
    term = _text(_tree(rng, labels, rng.randint(2, 8)))
    swaps = [(rng.choice(LABELS), rng.choice(LABELS))
             for _ in range(rng.randint(1, 3))]
    lit = "".join(f"({a} {b})" for a, b in swaps)

    def image(label):
        for a, b in swaps:
            label = b if label == a else a if label == b else label
        return label

    expect = tuple(("f", image(tok[1])) if type(tok) is tuple and tok[0] == "f"
                   else tok for tok in text_db(term))
    return _query("perm", ["perm", lit, term], 0, _term_output(expect))


def _fresh(rng) -> Op:
    term = _small(rng)
    free = free_keys(text_db(term))
    if free and rng.random() < 0.5:
        name = rng.choice(sorted(free))
    else:
        name = rng.choice(LABELS)
    verdict = name not in free
    return _query("fresh", ["fresh", name, term], 0 if verdict else 1,
                  _exact("true\n" if verdict else "false\n"))


def _church(n: int, f: str, x: str) -> str:
    return f"(\\{f}. \\{x}. " + f"{f} (" * n + x + ")" * n + ")"


def _normalize(rng) -> Op:
    roll = rng.random()
    if roll < 0.4:
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a, b, g, f, x = rng.sample(LABELS, 5)
        term = (f"(\\{a}. \\{b}. \\{g}. {a} ({b} {g})) "
                f"{_church(m, f, x)} {_church(n, x, f)}")
        return _query("normalize", ["normalize", term], 0,
                      _term_output(church_db(m * n), f" steps={2 * m + 3}"))
    if roll < 0.8:
        body = _small(rng, redex_free=True)
        v = rng.choice(LABELS)
        term = f"(\\{v}. {v}) ({body})"
        return _query("normalize", ["normalize", term], 0,
                      _term_output(text_db(body), " steps=1"))
    v = rng.choice(LABELS)
    omega = f"(\\{v}. {v} {v}) (\\{v}. {v} {v})"
    fuel = rng.randint(1, 5)
    return _query("normalize", ["normalize", omega, "--fuel", str(fuel)], 1,
                  _term_output(text_db(omega), " fuel-exhausted"))


def _malformed(rng) -> Op:
    if rng.random() < 0.2:
        return _query("malformed", ["normalize", "x", "--fuel", "-1"], 2, None)
    cmd, bad = rng.choice(MALFORMED)
    args = {"fv": [bad], "alphaeq": [bad, "x"], "fresh": ["x", bad],
            "subst": [bad, "x", "y"], "normalize": [bad]}[cmd]
    return _query("malformed", [cmd, *args], 2, None)


_SMALL = {
    "alphaeq": _alphaeq, "fv": _fv, "subst": _subst, "perm": _perm,
    "fresh": _fresh, "normalize": _normalize, "malformed": _malformed,
}


# ---------------------------------------------------------------------------
# Large queries
# ---------------------------------------------------------------------------

# Today's parser spends three frames per parenthesis and overflows the
# default recursion limit somewhere near 330 levels.
PARENS = (100, 250)
PARENS_DEEP = (420, 650)
WIDE = (200, 450)
GROUP = 8
BINDERS = (100, 250)


def _parens(rng, lo_hi=PARENS, deep=False) -> Op:
    depth = rng.randint(*lo_hi)
    v = rng.choice(LABELS)
    return _query("parens", ["fv", "(" * depth + v + ")" * depth], 0,
                  _exact(v + "\n"), deep=deep)


def _wide_term(rng):
    """Hundreds of distinct identifiers in groups of ``GROUP``, so the
    term is wide rather than deep; the first four are bound."""
    width = rng.randint(*WIDE)
    salt = rng.randrange(10**6)
    ids = [f"w{i}_{salt}" for i in range(width)]
    bound = ids[:4]
    groups = (" ".join(ids[i:i + GROUP]) for i in range(0, width, GROUP))
    text = "".join(f"\\{b}. " for b in bound) + " ".join(f"({g})" for g in groups)
    return ids, bound, text


def _wide_alphaeq(rng) -> Op:
    ids, bound, left = _wide_term(rng)
    if rng.random() < 0.5:
        right = left
        for b in bound:
            right = re.sub(rf"\b{b}\b", b + "r", right)
    else:
        victim = rng.choice(ids[len(bound):])
        right = re.sub(rf"\b{victim}\b", victim + "x", left)
    equal = text_db(left) == text_db(right)
    return _query("wide_alphaeq", ["alphaeq", left, right], 0 if equal else 1,
                  _exact("true\n" if equal else "false\n"))


def _wide_fresh(rng) -> Op:
    ids, bound, term = _wide_term(rng)
    name = rng.choice(ids) if rng.random() < 0.5 else "fresh_" + ids[0]
    verdict = name not in free_keys(text_db(term))
    return _query("wide_fresh", ["fresh", name, term], 0 if verdict else 1,
                  _exact("true\n" if verdict else "false\n"))


def _binders(rng) -> Op:
    depth = rng.randint(*BINDERS)
    salt = rng.randrange(10**6)
    bs = [f"l{i}_{salt}" for i in range(depth)]
    term = "".join(f"\\{b}. " for b in bs) + f"x {bs[0]} {bs[depth // 2]} {bs[-1]}"
    repl = f"{bs[3]} y"
    expect = splice_free(text_db(term), "x", text_db(repl))
    return _query("binders", ["subst", term, "x", repl], 0, _term_output(expect))


_LARGE = {
    "parens": _parens,
    "parens_deep": lambda rng: _parens(rng, PARENS_DEEP, deep=True),
    "wide_alphaeq": _wide_alphaeq,
    "wide_fresh": _wide_fresh,
    "binders": _binders,
}


# ---------------------------------------------------------------------------
# Traced replay: the query's layers called one by one
# ---------------------------------------------------------------------------

def _replayer(argv: list[str]):
    """Replays ``argv`` as parse_term, the lambda-calculus call, then
    print_term, each under its own span.  Parse errors end the replay."""
    cmd, args = argv[0], argv[1:]

    def replay(api, tally):
        from nomset import NameTable, instance_term

        table = NameTable()

        def parse(text):
            tally["parse_term.chars"] += len(text)
            return api.parse_term(text, table)

        if cmd == "alphaeq":
            api.alpha_eq(parse(args[0]), parse(args[1]))
        elif cmd == "fv":
            api.fv(parse(args[0]))
        elif cmd == "subst":
            t = parse(args[0])
            name = table.intern(args[1])
            api.print_term(api.subst(t, name, parse(args[2])), table)
        elif cmd == "perm":
            p = api.parse_perm(args[0], table)
            api.print_term(api.term_act(p, parse(args[1])), table)
        elif cmd == "fresh":
            name = table.intern(args[0])
            api.fresh_dec(instance_term(), name, parse(args[1]))
        elif cmd == "normalize":
            fuel = int(args[2]) if len(args) > 2 else 1000
            if fuel >= 0:
                api.print_term(api.normalize(parse(args[0]), fuel).term, table)

    return replay
