r"""Concrete syntax for terms and permutation literals.

Grammar::

    term  := lam | app
    lam   := ('\' | 'λ') ident '.' term
    app   := atom atom*            (left-associative)
    atom  := ident | '(' term ')'
    ident := [a-zA-Z_][a-zA-Z0-9_']*

The body of an abstraction extends as far right as possible, so
``\x. x y`` is ``\x. (x y)``.  A permutation literal is a sequence of
parenthesized name pairs, ``(a b)(c d)``, applied left to right.

A :class:`NameTable` maps source identifiers to name indices bijectively.
One table per CLI invocation makes ``x`` mean the same atom in every
argument.  Printing renames binders to labels from a deterministic fresh
sequence (``a``, ``b``, ..., ``z``, ``a1``, ...), skipping any label that
would capture a free variable; output is therefore reproducible
byte-for-byte and round-trips up to alpha-equivalence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator

from .atoms import Name
from .lam import App, Lam, Term, Var, _fold
from .perms import Perm


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass
class NameTable:
    """Bijection between source identifiers and names."""

    by_label: dict[str, Name] = field(default_factory=dict)
    by_name: dict[Name, str] = field(default_factory=dict)
    # One past the largest bound index: the index ``intern`` assigns next.
    _next_id: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._next_id = max((n.id for n in self.by_name), default=-1) + 1

    @classmethod
    def from_labels(cls, labels: dict[str, Name]) -> "NameTable":
        table = cls()
        for label, name in labels.items():
            table._bind(label, name)
        return table

    def _bind(self, label: str, name: Name) -> None:
        if label in self.by_label or name in self.by_name:
            raise ValueError(f"label/name already bound: {label!r}/{name!r}")
        self.by_label[label] = name
        self.by_name[name] = label
        self._next_id = max(self._next_id, name.id + 1)

    def intern(self, label: str) -> Name:
        """The name for ``label``, assigning the next free index if new."""
        if label in self.by_label:
            return self.by_label[label]
        name = Name(self._next_id)
        self._bind(label, name)
        return name

    def label_of(self, name: Name) -> str:
        """The label for ``name``, synthesizing one if it was never
        interned from source."""
        if name in self.by_name:
            return self.by_name[name]
        base = f"n{name.id}"
        label = base
        k = 0
        while label in self.by_label:
            k += 1
            label = f"{base}_{k}"
        self._bind(label, name)
        return label


IDENT_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_']*")

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<lam>[\\λ])|(?P<dot>\.)|(?P<lp>\()|(?P<rp>\))"
    rf"|(?P<ident>{IDENT_RE.pattern})"
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(src: str) -> Iterator[Token]:
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind != "ws":
            yield Token(kind, text, line, col)
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    yield Token("eof", "", line, col)


_KIND_LABEL = {
    "lam": "'\\'",
    "dot": "'.'",
    "lp": "'('",
    "rp": "')'",
    "ident": "identifier",
    "eof": "end of input",
}


class _Parser:
    def __init__(self, src: str, table: NameTable):
        self.tokens = list(_tokenize(src))
        self.pos = 0
        self.table = table

    @property
    def tok(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        t = self.tok
        self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        if self.tok.kind != kind:
            found = _KIND_LABEL[self.tok.kind]
            raise ParseError(
                f"expected {_KIND_LABEL[kind]}, found {found}",
                self.tok.line,
                self.tok.col,
            )
        return self.advance()

    def term(self) -> Term:
        if self.tok.kind == "lam":
            self.advance()
            binder = self.table.intern(self.expect("ident").text)
            self.expect("dot")
            if self.tok.kind in ("rp", "eof"):
                raise ParseError(
                    "expected a term (missing abstraction body)",
                    self.tok.line,
                    self.tok.col,
                )
            return Lam(binder, self.term())
        return self.app()

    def app(self) -> Term:
        t = self.atom()
        while self.tok.kind in ("ident", "lp"):
            t = App(t, self.atom())
        return t

    def atom(self) -> Term:
        if self.tok.kind == "ident":
            return Var(self.table.intern(self.advance().text))
        if self.tok.kind == "lp":
            self.advance()
            t = self.term()
            self.expect("rp")
            return t
        found = _KIND_LABEL[self.tok.kind]
        raise ParseError(
            f"expected identifier or '(', found {found}",
            self.tok.line,
            self.tok.col,
        )


def parse_term(src: str, table: NameTable | None = None) -> Term:
    """Parse one term; identifiers are interned into ``table``."""
    parser = _Parser(src, table if table is not None else NameTable())
    t = parser.term()
    parser.expect("eof")
    return t


_PERM_PAIR_RE = re.compile(
    rf"\(\s*(?P<a>{IDENT_RE.pattern})\s+(?P<b>{IDENT_RE.pattern})\s*\)"
)


def parse_perm(src: str, table: NameTable | None = None) -> Perm:
    """Parse a permutation literal such as ``(a b)(c d)``."""
    if table is None:
        table = NameTable()
    swaps = []
    pos = 0
    stripped = src.strip()
    while pos < len(stripped):
        m = _PERM_PAIR_RE.match(stripped, pos)
        if m is None:
            raise ParseError(
                "expected a parenthesized name pair like '(a b)'",
                1,
                pos + 1,
            )
        swaps.append((table.intern(m.group("a")), table.intern(m.group("b"))))
        pos = m.end()
    return tuple(swaps)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _fresh_labels() -> Iterator[str]:
    yield from _LETTERS
    k = 1
    while True:
        for ch in _LETTERS:
            yield f"{ch}{k}"
        k += 1


class _Text(str):
    """Text on the printer's stack, which no term can be."""


# _END closes a binder's scope; the item below it is (binder, shadowed label).
_SPACE, _OPEN, _CLOSE, _ARG_OPEN, _END = map(_Text, (" ", "(", ")", " (", ""))


def print_term(t: Term, table: NameTable | None = None) -> str:
    """Render with minimal parentheses and canonically renamed binders."""
    if table is None:
        table = NameTable()
    # Free names of each abstraction by identity (hashing a node would walk
    # it), gathered for a whole subtree by its outermost abstraction.
    lam_fv: dict[int, frozenset[Name]] = {}
    labels: dict[Name, str] = {}  # in-scope binder -> its label
    out: list[str] = []
    todo: list = [t]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is Var:
            out.append(labels.get(node.name) or table.label_of(node.name))
        elif kind is App:
            f, x = node.fn, node.arg
            todo += (x, _SPACE) if type(x) is Var else (_CLOSE, x, _ARG_OPEN)
            todo += (_CLOSE, f, _OPEN) if type(f) is Lam else (f,)
        elif kind is Lam:
            if id(node) not in lam_fv:
                _fold(node, lambda v: frozenset((v.name,)), lambda n, f, x: f | x,
                      lambda lam, s: lam_fv.setdefault(id(lam), s - {lam.binder}))
            avoid = {labels.get(n) or table.label_of(n) for n in lam_fv[id(node)]}
            label = next(c for c in _fresh_labels() if c not in avoid)
            todo += ((node.binder, labels.get(node.binder)), _END, node.body)
            labels[node.binder] = label
            out.append(f"\\{label}. ")
        elif node is _END:
            b, saved = todo.pop()
            labels[b] = saved
        elif kind is _Text:
            out.append(node)
        else:
            raise TypeError("not a term")
    return "".join(out)


def print_names(
    names: frozenset[Name], table: NameTable | None = None
) -> str:
    """Space-separated labels in lexicographic order."""
    if table is None:
        table = NameTable()
    return " ".join(sorted(table.label_of(n) for n in names))
