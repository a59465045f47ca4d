"""Command-line front end for term-level queries.

Subcommands: ``alphaeq``, ``fv``, ``subst``, ``perm``, ``fresh``,
``normalize``.  Exit codes are a stable contract: 0 for an affirmative
answer or successful computation, 1 for a negative verdict (including a
normalization that ran out of fuel), 2 for parse or usage errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from .atoms import Name
from .freshness import fresh_dec
from .lam import Term, alpha_eq, fv, instance_term, normalize, subst, term_act
from .perms import Perm
from .syntax import IDENT_RE, NameTable, ParseError, parse_perm, parse_term, print_names, print_term


@dataclass(frozen=True)
class AlphaEqCmd:
    left: Term
    right: Term


@dataclass(frozen=True)
class FvCmd:
    term: Term


@dataclass(frozen=True)
class SubstCmd:
    term: Term
    name: Name
    replacement: Term


@dataclass(frozen=True)
class PermCmd:
    perm: Perm
    term: Term


@dataclass(frozen=True)
class FreshCmd:
    name: Name
    term: Term


@dataclass(frozen=True)
class NormalizeCmd:
    term: Term
    fuel: int


Command = AlphaEqCmd | FvCmd | SubstCmd | PermCmd | FreshCmd | NormalizeCmd


def run(cmd: Command, table: NameTable | None = None) -> tuple[str, int]:
    """Execute one command; return its stdout text and exit code."""
    if table is None:
        table = NameTable()
    match cmd:
        case AlphaEqCmd(left, right):
            verdict = alpha_eq(left, right)
            return ("true" if verdict else "false", 0 if verdict else 1)
        case FvCmd(term):
            return (print_names(fv(term), table), 0)
        case SubstCmd(term, name, replacement):
            return (print_term(subst(term, name, replacement), table), 0)
        case PermCmd(perm, term):
            return (print_term(term_act(perm, term), table), 0)
        case FreshCmd(name, term):
            verdict = fresh_dec(instance_term(), name, term)
            return ("true" if verdict else "false", 0 if verdict else 1)
        case NormalizeCmd(term, fuel):
            result = normalize(term, fuel)
            text = print_term(result.term, table)
            if result.normal_form:
                return (f"{text} steps={result.steps}", 0)
            return (f"{text} fuel-exhausted", 1)
    raise TypeError(f"not a command: {cmd!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nomset",
        description="Term-level queries on lambda terms: alpha-equivalence, "
        "free variables, substitution, permutation, freshness, "
        "normalization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alphaeq", help="decide alpha-equivalence of two terms")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("fv", help="print the free variables of a term")
    p.add_argument("term")

    p = sub.add_parser("subst", help="capture-avoiding substitution")
    p.add_argument("term")
    p.add_argument("name")
    p.add_argument("replacement")

    p = sub.add_parser("perm", help="apply a permutation literal to a term")
    p.add_argument("perm")
    p.add_argument("term")

    p = sub.add_parser("fresh", help="decide whether a name is fresh for a term")
    p.add_argument("name")
    p.add_argument("term")

    p = sub.add_parser("normalize", help="beta-normalize with a fuel bound")
    p.add_argument("term")
    p.add_argument("--fuel", type=int, default=1000)

    return parser


def _parse_name(src: str, table: NameTable) -> Name:
    if IDENT_RE.fullmatch(src) is None:
        raise ParseError(f"invalid name {src!r}", 1, 1)
    return table.intern(src)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    table = NameTable()
    try:
        match args.command:
            case "alphaeq":
                cmd: Command = AlphaEqCmd(
                    parse_term(args.left, table), parse_term(args.right, table)
                )
            case "fv":
                cmd = FvCmd(parse_term(args.term, table))
            case "subst":
                cmd = SubstCmd(
                    parse_term(args.term, table),
                    _parse_name(args.name, table),
                    parse_term(args.replacement, table),
                )
            case "perm":
                cmd = PermCmd(
                    parse_perm(args.perm, table), parse_term(args.term, table)
                )
            case "fresh":
                cmd = FreshCmd(
                    _parse_name(args.name, table), parse_term(args.term, table)
                )
            case "normalize":
                if args.fuel < 0:
                    raise ParseError("fuel must be nonnegative", 1, 1)
                cmd = NormalizeCmd(parse_term(args.term, table), args.fuel)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    out, code = run(cmd, table)
    print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
