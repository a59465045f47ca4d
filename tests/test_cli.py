import os
import pathlib
import subprocess
import sys

import pytest

from nomset.atoms import Name
from nomset.cli import (
    AlphaEqCmd,
    FreshCmd,
    FvCmd,
    NormalizeCmd,
    PermCmd,
    SubstCmd,
    main,
    run,
)
from nomset.lam import App, Lam, Var
from nomset.syntax import NameTable

x, y, z = Name(0), Name(1), Name(2)

REPO = pathlib.Path(__file__).resolve().parent.parent


def cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "nomset", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def table_xyz():
    return NameTable.from_labels({"x": x, "y": y, "z": z})


def test_run_alphaeq_true():
    out, code = run(AlphaEqCmd(Lam(x, Var(x)), Lam(y, Var(y))))
    assert (out, code) == ("true", 0)


def test_run_alphaeq_false():
    out, code = run(AlphaEqCmd(Var(x), Var(y)))
    assert (out, code) == ("false", 1)


def test_run_fv_sorted():
    out, code = run(FvCmd(App(Var(z), Var(y))), table_xyz())
    assert (out, code) == ("y z", 0)


def test_run_subst_capture_avoiding():
    out, code = run(SubstCmd(Lam(y, Var(x)), x, Var(y)), table_xyz())
    assert (out, code) == (r"\a. y", 0)


def test_run_perm():
    out, code = run(PermCmd(((x, y),), App(Var(x), Var(y))), table_xyz())
    assert (out, code) == ("y x", 0)


def test_run_fresh_verdicts():
    assert run(FreshCmd(x, Lam(x, Var(x)))) == ("true", 0)
    assert run(FreshCmd(x, App(Var(x), Var(y)))) == ("false", 1)


def test_run_normalize_reports_steps():
    out, code = run(NormalizeCmd(App(Lam(x, Var(x)), Var(y)), 10), table_xyz())
    assert (out, code) == ("y steps=1", 0)


def test_run_normalize_fuel_exhausted():
    dup = Lam(x, App(Var(x), Var(x)))
    out, code = run(NormalizeCmd(App(dup, dup), 3), table_xyz())
    assert code == 1
    assert out.endswith("fuel-exhausted")


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
