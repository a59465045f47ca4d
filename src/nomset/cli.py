"""Command-line front end for term-level queries.

Subcommands: ``alphaeq``, ``fv``, ``subst``, ``perm``, ``fresh``,
``normalize``.  Exit codes are a stable contract: 0 for an affirmative
answer or successful computation, 1 for a negative verdict (including a
normalization that ran out of fuel), 2 for parse, usage and internal
errors.

One table, :data:`_COMMANDS`, describes every subcommand: its help text,
its arguments in the order they are read into the shared
:class:`~nomset.syntax.NameTable` (each with the reader that turns its
text into a value), and the action that maps those values to stdout text
and an exit code.

A well-formed argv is read straight from that table by
:func:`_read_argv`: the subcommand's name, then plain positionals and
each option flag at most once, spelled exactly and followed by a value
its ``type`` accepts.  argparse reads every such argv the same way.  Any
other argv (help, usage errors, and the spellings the reader leaves to
argparse: ``--fuel=N``, abbreviated flags, ``--``, values starting with
``-``, repeated flags) goes to the argparse parser, which is imported and
built from the table only then, once per process, and never mutated, so
its help and usage messages are argparse's own.

:func:`main` is the one exit-code boundary.  A :class:`ParseError`, or
any other exception raised while reading arguments or running the
action (``MemoryError`` and ``RecursionError`` included), becomes one
``error: ...`` line on stderr and exit 2, with nothing on stdout, so a
crash never reads as the negative verdict 1.  argparse's own exits
(``-h`` with 0, usage errors with 2) and ``KeyboardInterrupt`` pass
through unchanged.
"""

from __future__ import annotations

import functools
import sys
from typing import Any, Callable, NamedTuple

from .atoms import Name
from .freshness import fresh_dec
from .lam import alpha_eq, fv, instance_term, normalize, subst, term_act
from .syntax import IDENT_RE, NameTable, ParseError, parse_perm, parse_term, print_names, print_term


class _Arg(NamedTuple):
    flag: str
    read: Callable[[Any, NameTable], Any]  # (raw value, table) -> value
    options: dict[str, Any] = {}

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-")


class _Command(NamedTuple):
    help: str
    args: tuple[_Arg, ...]  # in reading order
    action: Callable[..., tuple[str, int]]  # (table, *values) -> (stdout, code)


def _parse_name(src: str, table: NameTable) -> Name:
    if IDENT_RE.fullmatch(src) is None:
        raise ParseError(f"invalid name {src!r}", 1, 1)
    return table.intern(src)


def _check_fuel(fuel: int, table: NameTable) -> int:
    if fuel < 0:
        raise ParseError("fuel must be nonnegative", 1, 1)
    return fuel


def _verdict(verdict: bool) -> tuple[str, int]:
    return ("true", 0) if verdict else ("false", 1)


def _normalize(table: NameTable, fuel: int, term) -> tuple[str, int]:
    result = normalize(term, fuel)
    text = print_term(result.term, table)
    if result.normal_form:
        return (f"{text} steps={result.steps}", 0)
    return (f"{text} fuel-exhausted", 1)


_COMMANDS: dict[str, _Command] = {
    "alphaeq": _Command(
        "decide alpha-equivalence of two terms",
        (_Arg("left", parse_term), _Arg("right", parse_term)),
        lambda table, left, right: _verdict(alpha_eq(left, right)),
    ),
    "fv": _Command(
        "print the free variables of a term",
        (_Arg("term", parse_term),),
        lambda table, term: (print_names(fv(term), table), 0),
    ),
    "subst": _Command(
        "capture-avoiding substitution",
        (_Arg("term", parse_term), _Arg("name", _parse_name),
         _Arg("replacement", parse_term)),
        lambda table, term, name, u: (print_term(subst(term, name, u), table), 0),
    ),
    "perm": _Command(
        "apply a permutation literal to a term",
        (_Arg("perm", parse_perm), _Arg("term", parse_term)),
        lambda table, perm, term: (print_term(term_act(perm, term), table), 0),
    ),
    "fresh": _Command(
        "decide whether a name is fresh for a term",
        (_Arg("name", _parse_name), _Arg("term", parse_term)),
        lambda table, name, term: _verdict(fresh_dec(instance_term(), name, term)),
    ),
    # The fuel's sign is checked before the term is parsed.
    "normalize": _Command(
        "beta-normalize with a fuel bound",
        (_Arg("--fuel", _check_fuel, {"type": int, "default": 1000}),
         _Arg("term", parse_term)),
        _normalize,
    ),
}


def _read_argv(argv: list) -> tuple[_Command, list[Any]] | None:
    """The command ``argv`` names and its raw values in table order, option
    defaults filled in, when ``argv`` is well formed as the module docstring
    says; otherwise None, and argparse reads it."""
    if not argv or not all(type(token) is str for token in argv):
        return None
    command = _COMMANDS.get(argv[0])
    if command is None:
        return None
    flags = {arg.flag: arg for arg in command.args if arg.flag.startswith("-")}
    given: dict[str, Any] = {}
    positionals: list[str] = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        value = next(tokens, "-")  # a flag that ends argv has no value
        if token not in flags or token in given or value.startswith("-"):
            return None
        try:  # the conversion argparse applies
            given[token] = flags[token].options.get("type", str)(value)
        except (TypeError, ValueError):
            return None
    if len(positionals) != len(command.args) - len(flags):
        return None
    rest = iter(positionals)
    return command, [given.get(arg.flag, arg.options.get("default")) if arg.flag in flags
                     else next(rest) for arg in command.args]


@functools.cache
def _parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="nomset",
        description="Term-level queries on lambda terms: alpha-equivalence, "
        "free variables, substitution, permutation, freshness, "
        "normalization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for arg in command.args:
            p.add_argument(arg.flag, **arg.options)
    return parser


def _one_line(err: Exception) -> str:
    text = " ".join(str(err).split())
    return f"{type(err).__name__}: {text}" if text else type(err).__name__


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    read = _read_argv(argv)
    if read is None:
        args = _parser().parse_args(argv)
        command = _COMMANDS[args.command]
        raw = [getattr(args, arg.dest) for arg in command.args]
    else:
        command, raw = read
    table = NameTable()
    try:
        values = [arg.read(value, table) for arg, value in zip(command.args, raw)]
        out, code = command.action(table, *values)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # the exit-code boundary; see the module docstring
        print(f"error: {_one_line(err)}", file=sys.stderr)
        return 2
    print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
