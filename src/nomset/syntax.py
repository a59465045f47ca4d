r"""Concrete syntax for terms and permutation literals.

Grammar::

    term  := lam | app
    lam   := ('\' | 'λ') ident '.' term
    app   := atom atom*            (left-associative)
    atom  := ident | '(' term ')'
    ident := [a-zA-Z_][a-zA-Z0-9_']*

The body of an abstraction extends as far right as possible, so
``\x. x y`` is ``\x. (x y)``.  A permutation literal is a sequence of
parenthesized name pairs, ``(a b)(c d)``, applied left to right;
whitespace may separate the pairs.

:func:`parse_term` lexes the whole input first, then reads the tokens in
one loop that keeps the open abstractions and parentheses on an explicit
stack, so nesting depth is bounded by memory, not the recursion limit.

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
from .lam import App, Lam, Term, Var, _check_term, _fold
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


def _advance(text: str, line: int, col: int) -> tuple[int, int]:
    """The position just after ``text`` read from ``line:col``.  Line
    breaks are those of ``str.splitlines``, which ``\\s`` all matches, with
    ``\\r\\n`` as one break."""
    rows = (text + ".").splitlines()  # the "." keeps a trailing break's row
    if len(rows) == 1:
        return line, col + len(text)
    return line + len(rows) - 1, len(rows[-1])


def _tokenize(src: str) -> list[tuple[str, str, int, int]]:
    """``(kind, text, line, col)`` for every token, ending with ``eof``."""
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind == "ws":
            line, col = _advance(text, line, col)
        else:
            tokens.append((kind, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


_KIND_LABEL = {
    "lam": "'\\'",
    "dot": "'.'",
    "lp": "'('",
    "rp": "')'",
    "ident": "identifier",
    "eof": "end of input",
}


def _unexpected(expected: str, token: tuple[str, str, int, int]) -> ParseError:
    kind, _, line, col = token
    return ParseError(f"expected {expected}, found {_KIND_LABEL[kind]}", line, col)


def parse_term(src: str, table: NameTable | None = None) -> Term:
    """Parse one term; identifiers are interned into ``table``."""
    if table is None:
        table = NameTable()
    tokens = iter(_tokenize(src))
    # Open contexts, innermost last: the binder (a Name) of an abstraction
    # whose body is being read, or an open parenthesis, stored as the
    # application to its left.  ``app`` is the application read so far in
    # the innermost context.  None, in either place, means no atom yet.
    stack: list = []
    app = None
    while True:
        token = next(tokens)
        kind = token[0]
        if kind == "ident":
            var = Var(table.intern(token[1]))
            app = var if app is None else App(app, var)
        elif kind == "lp":
            stack.append(app)
            app = None
        elif app is not None:
            # The term ends here: close its abstractions, then the
            # parenthesis or the input around it.
            while stack and type(stack[-1]) is Name:
                app = Lam(stack.pop(), app)
            closer = "rp" if stack else "eof"
            if kind != closer:
                raise _unexpected(_KIND_LABEL[closer], token)
            if not stack:
                return app
            left = stack.pop()
            app = app if left is None else App(left, app)
        elif kind != "lam":
            if kind != "dot" and stack and type(stack[-1]) is Name:
                msg = "expected a term (missing abstraction body)"
                raise ParseError(msg, token[2], token[3])
            raise _unexpected("identifier or '('", token)
        else:
            token = next(tokens)
            if token[0] != "ident":
                raise _unexpected("identifier", token)
            stack.append(table.intern(token[1]))
            token = next(tokens)
            if token[0] != "dot":
                raise _unexpected("'.'", token)


_PERM_PAIR_RE = re.compile(
    rf"\(\s*(?P<a>{IDENT_RE.pattern})\s+(?P<b>{IDENT_RE.pattern})\s*\)\s*"
)


def parse_perm(src: str, table: NameTable | None = None) -> Perm:
    """Parse a permutation literal such as ``(a b)(c d)`` or ``(a b) (c d)``."""
    if table is None:
        table = NameTable()
    swaps = []
    pos = len(src) - len(src.lstrip())
    while pos < len(src):
        m = _PERM_PAIR_RE.match(src, pos)
        if m is None:
            line, col = _advance(src[:pos], 1, 1)
            msg = "expected a parenthesized name pair like '(a b)'"
            raise ParseError(msg, line, col)
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
    _check_term(t)
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
