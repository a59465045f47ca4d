import collections
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given
from hypothesis import strategies as st

import nomset.cli
from nomset.cli import main

REPO = pathlib.Path(__file__).resolve().parent.parent


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "nomset", *args],
        capture_output=True,
        text=True,
        env=cli_env(),
    )


def run_main(capsys, *argv):
    """``main(argv)`` in process: (exit code, stdout, stderr)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_alphaeq_true(capsys):
    assert run_main(capsys, "alphaeq", r"\x. x", r"\y. y")[:2] == (0, "true\n")


def test_run_alphaeq_false(capsys):
    assert run_main(capsys, "alphaeq", "x", "y")[:2] == (1, "false\n")


def test_run_fv_sorted(capsys):
    assert run_main(capsys, "fv", "z y")[:2] == (0, "y z\n")


def test_run_subst_capture_avoiding(capsys):
    assert run_main(capsys, "subst", r"\y. x", "x", "y")[:2] == (0, "\\a. y\n")


def test_run_perm(capsys):
    assert run_main(capsys, "perm", "(x y)", "x y")[:2] == (0, "y x\n")


def test_run_fresh_verdicts(capsys):
    assert run_main(capsys, "fresh", "x", r"\x. x")[:2] == (0, "true\n")
    assert run_main(capsys, "fresh", "x", "x y")[:2] == (1, "false\n")


def test_run_normalize_reports_steps(capsys):
    code, out, _ = run_main(capsys, "normalize", r"(\x. x) y", "--fuel", "10")
    assert (code, out) == (0, "y steps=1\n")


def test_run_normalize_fuel_exhausted(capsys):
    code, out, _ = run_main(capsys, "normalize", r"(\x. x x) (\x. x x)", "--fuel", "3")
    assert code == 1
    assert out.endswith("fuel-exhausted\n")


def test_main_returns_exit_code_in_process(capsys):
    assert main(["alphaeq", r"\x.x", r"\y.y"]) == 0
    assert capsys.readouterr().out == "true\n"
    assert main(["alphaeq", "x", "y"]) == 1
    assert capsys.readouterr().out == "false\n"
    assert main(["fv", r"\x. x y"]) == 0
    assert capsys.readouterr().out == "y\n"


def test_main_parse_error_goes_to_stderr(capsys):
    assert main(["fv", r"\x."]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_main_reports_the_line_after_each_carriage_return(capsys):
    assert main(["fv", "x\ry\r)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 3:1: expected end of input, found ')'\n"


@pytest.mark.parametrize(
    "args,stdout,code",
    [
        (("alphaeq", r"\x.x", r"\y.y"), "true\n", 0),
        (("alphaeq", r"\x. x y", r"\y. y x"), "false\n", 1),
        (("fv", r"\x. x y"), "y\n", 0),
        (("subst", r"\y. x", "x", "y"), "\\a. y\n", 0),
        (("perm", "(x y)", "x y z"), "y x z\n", 0),
        (("fresh", "x", r"\x. x"), "true\n", 0),
        (("fresh", "x", "x y"), "false\n", 1),
        (("normalize", r"(\x. x) y"), "y steps=1\n", 0),
        (
            ("normalize", r"(\x. x x)(\x. x x)", "--fuel", "5"),
            "(\\a. a a) (\\a. a a) fuel-exhausted\n",
            1,
        ),
        (("perm", "(x y) (y z)", "x y z"), "z x y\n", 0),
    ],
)
def test_cli_golden(args, stdout, code):
    proc = cli(*args)
    assert proc.stdout == stdout
    assert proc.returncode == code


def test_cli_parse_error_exit_code():
    proc = cli("alphaeq", r"\x.", "x")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr


def test_cli_usage_error_exit_code():
    proc = cli("frobnicate", "x")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "exc", [RecursionError("maximum recursion depth exceeded"), MemoryError(),
            ValueError("two\nlines")],
)
def test_main_reports_an_internal_error_as_one_line_and_exit_2(capsys, monkeypatch, exc):
    def boom(table, term):
        raise exc

    command = nomset.cli._COMMANDS["fv"]
    monkeypatch.setitem(nomset.cli._COMMANDS, "fv", command._replace(action=boom))
    code, out, err = run_main(capsys, "fv", "x")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith("\n")


def test_parser_is_built_once_per_process(capsys):
    for argv in (["fv", "x"], ["alphaeq", "x", "y"], ["normalize", "x"]):
        main(argv)
    capsys.readouterr()
    info = nomset.cli._parser.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_importing_the_cli_builds_no_parser():
    probe = "import nomset.cli as c; print(c._parser.cache_info().misses)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=cli_env())
    assert proc.stdout == "0\n"


FOUR_STEPS = r"(\x. x) ((\x. x) ((\x. x) ((\x. x) y)))"

# Each argv runs in this process on the one shared parser and in a fresh
# interpreter; the pair of normalize calls catches a --fuel that leaks from
# the call before.
REUSE_SEQUENCE = [
    ["frobnicate", "x"],
    ["-h"],
    ["fv", "-h"],
    ["normalize", FOUR_STEPS, "--fuel", "3"],
    ["normalize", FOUR_STEPS],
    ["normalize", "x", "--fuel", "abc"],
    ["fv", r"\x."],
    ["alphaeq", r"\x. x", r"\y. y"],
    ["fv", r"\x. x y"],
    ["subst", r"\y. x", "x", "y"],
    ["perm", "(x y)", "x y z"],
    ["fresh", "x", r"\x. x"],
    ["normalize", r"(\x. x) y"],
]


def test_reusing_the_parser_leaks_no_state(capsys, monkeypatch):
    # The same help width in both processes, whatever the terminal.
    monkeypatch.setenv("COLUMNS", "80")
    for argv in REUSE_SEQUENCE:
        fresh = cli(*argv)
        assert run_main(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)


ARG_TEXT = st.text(alphabet="xyz\\.() -\n\r\u00e9$0123456789", max_size=16)


@given(st.sampled_from([*nomset.cli._COMMANDS, "-h", "bogus"]),
       st.lists(st.one_of(ARG_TEXT, st.sampled_from(["--fuel", "-h", "x", "(x y)"])),
                max_size=4))
def test_main_only_returns_or_exits_with_a_contract_code(command, args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([command, *args])
        except SystemExit as exc:
            assert exc.code in (0, 2)
            return
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")


# A fixed corpus of argv lists for every subcommand, drawn from one seed:
# random terms, names and permutations, malformed ones, fuel from 0 to
# 1,000 and a few large inputs.  No argv meets argparse's own usage
# errors, whose wording differs between Python versions; every output is
# the package's own.  One SHA-256 over every (argv, stdout, stderr, exit
# code) record pins the CLI's behaviour byte for byte.
CORPUS_NAMES = ("x", "y", "z", "f", "n", "a", "b", "x1", "y'", "_v", "long_name")
CORPUS_DIGEST = "324f8f964f1d55e17adfefb36ed550aa76b5e2689a0f1c201300b27bf268c09c"


def corpus_term(rng, size):
    """Random term text of ``size`` nodes and its kind: the outermost node
    as "var", "app" or "lam"; spacing and redundant parentheses vary."""
    if size <= 1:
        return rng.choice(CORPUS_NAMES), "var"
    if rng.random() < 0.4:
        body, _ = corpus_term(rng, size - 1)
        lam, dot = rng.choice("\\λ"), rng.choice((". ", ".", " . ", ".\n"))
        return f"{lam}{rng.choice(CORPUS_NAMES)}{dot}{body}", "lam"
    k = rng.randrange(1, size)
    (fn, fn_kind), (arg, arg_kind) = corpus_term(rng, k), corpus_term(rng, size - k)
    if fn_kind == "lam" or rng.random() < 0.1:
        fn = f"({fn})"
    if arg_kind != "var" or rng.random() < 0.1:
        arg = f"({arg})"
    space = rng.choice((" ", "  ", "\t", "\n"))
    return f"{fn}{space}{arg}", "app"


def corpus_malformed(rng, text):
    """``text`` with one random edit, most of which make it malformed."""
    i = rng.randrange(len(text) + 1)
    edit = rng.randrange(5)
    if edit == 0:
        return text[:i] + text[i + 1:]
    if edit == 1:
        return text[:i] + rng.choice("#$)(.\\λ1'\r\n") + text[i:]
    if edit == 2:
        return text[:i]
    if edit == 3:
        return f"({text}"
    return rng.choice(("", " ", "()", "\\x.", "x)", "\\. x", "\\x x", "1x", "x\n\n  #"))


def corpus_name(rng):
    if rng.random() < 0.15:
        return rng.choice(("1x", "x y", "", "λ", "(x)", "x'y'", "x!"))
    return rng.choice(CORPUS_NAMES)


def corpus_perm(rng):
    swaps = [f"({rng.choice(CORPUS_NAMES)} {rng.choice(CORPUS_NAMES)})"
             for _ in range(rng.randrange(4))]
    text = rng.choice(("", " ", "  ")).join(swaps)
    if rng.random() < 0.2:
        text = rng.choice((f"{text}(x y", f"{text} x y", f"{text}(x)", f"{text}(1 y)", "(x y z)"))
    return text


def church(k):
    return r"\f. \x. " + "f (" * k + "x" + ")" * k


def corpus_argv():
    rng = random.Random(20240)

    def term():
        text, _ = corpus_term(rng, rng.randrange(1, 13))
        return corpus_malformed(rng, text) if rng.random() < 0.15 else text

    def fuel(argv):
        value = str(rng.choice((0, 1, 2, 1000, rng.randrange(1001))))
        where = rng.randrange(4)
        if where == 0:
            return argv
        if where == 1:
            return ["normalize", "--fuel", value, *argv[1:]]
        return [*argv, "--fuel", value] if where == 2 else [*argv, f"--fuel={value}"]

    out = []
    for _ in range(100):
        left = term()
        right = rng.choice((term(), left, f"({left})"))
        out += (["alphaeq", left, right], ["fv", term()],
                ["subst", term(), corpus_name(rng), term()],
                ["perm", corpus_perm(rng), term()], ["fresh", corpus_name(rng), term()],
                fuel(["normalize", term()]))
    for i in range(12):
        out.append(fuel(["normalize", f"({church(i % 4 + 1)}) ({church(i % 3 + 2)})"]))
        out.append(["normalize", "--fuel", str(83 * i), r"(\x. x x x) (\x. x x x)"])
    chain = "".join(rf"\x{i}. " for i in range(250)) + " ".join(f"x{i}" for i in range(250))
    deep = "(" * 650 + "x" + ")" * 650
    out += (["fv", deep], ["fv", deep[1:]], ["alphaeq", chain, chain.replace("x", "y")],
            ["subst", chain, "x3", "x0 x1"], ["perm", "(x0 x249) (x1 x2)", chain],
            ["fresh", "x250", chain], ["normalize", "--fuel=-1", "x"],
            ["normalize", f"({church(3)}) ({church(3)})"], ["fv", "x " * 3000])
    return out


def test_cli_corpus_digest():
    digest, codes = hashlib.sha256(), collections.Counter()
    for argv in corpus_argv():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        codes[argv[0], code] += 1
        digest.update(json.dumps([argv, out.getvalue(), err.getvalue(), code]).encode())
        digest.update(b"\n")
    assert sum(codes.values()) >= 500
    assert {c for _, c in codes} == {0, 1, 2} and {k for k, _ in codes} == set(nomset.cli._COMMANDS)
    assert digest.hexdigest() == CORPUS_DIGEST, sorted(codes.items())
