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

:func:`parse_term` reads its input in one scan: a regex search for the
first character no token can start, reported before any grammar error,
then one ``findall`` of the tokens as plain strings.  One loop reads
them, keeping the open abstractions and parentheses on an explicit stack,
so nesting depth is bounded by memory, not the recursion limit.  The
loop's per-call table gives each punctuation token its kind and each
identifier the one ``Var`` that all its occurrences share, interned when
it is first read.  Positions are not tracked while reading: an error
computes its line and column from its token's offset.

A :class:`NameTable` maps source identifiers to name indices bijectively.
One table per CLI invocation makes ``x`` mean the same atom in every
argument.  Printing renames binders to labels from a deterministic fresh
sequence (``a``, ``b``, ..., ``z``, ``a1``, ...), skipping any label that
would capture a free variable; output is therefore reproducible
byte-for-byte and round-trips up to alpha-equivalence.
"""

from __future__ import annotations

import itertools
import re
from types import MappingProxyType
from typing import Iterator, Mapping

from .atoms import Name
from .lam import App, Lam, Term, Var, _fold
from .perms import Perm


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class NameTable:
    """Bijection between source identifiers and names.

    ``by_label`` and ``by_name`` are read-only views of the two maps, so
    only ``intern`` and ``label_of`` add to them, each a new label with a
    new name, one pair at a time.  The constructor is the one place that
    checks given maps: they must be mutual inverses, and ``from_labels``
    passes it one map and its inverse."""

    __slots__ = ("_by_label", "_by_name", "_next_id")

    def __init__(
        self, by_label: Mapping[str, Name] = (), by_name: Mapping[Name, str] = ()
    ) -> None:
        self._by_label = labels = dict(by_label)
        self._by_name = names = dict(by_name)
        # Inverting by_label loses a pair when two labels share a name;
        # equal sizes rule that out.
        if len(names) != len(labels) or names != {n: label for label, n in labels.items()}:
            raise ValueError("by_label and by_name must be mutual inverses")
        # One past the largest bound index: the index ``intern`` assigns next.
        self._next_id = max((n.id for n in names), default=-1) + 1

    @property
    def by_label(self) -> Mapping[str, Name]:
        return MappingProxyType(self._by_label)

    @property
    def by_name(self) -> Mapping[Name, str]:
        return MappingProxyType(self._by_name)

    def __eq__(self, other: object) -> bool:
        if type(other) is not NameTable:
            return NotImplemented
        return self._by_label == other._by_label

    def __repr__(self) -> str:
        return f"NameTable(by_label={self._by_label!r}, by_name={self._by_name!r})"

    @classmethod
    def from_labels(cls, labels: dict[str, Name]) -> "NameTable":
        return cls(labels, {name: label for label, name in labels.items()})

    def intern(self, label: str) -> Name:
        """The name for ``label``.  A new label gets the name at the next
        free index, which no name in the table can already have."""
        name = self._by_label.get(label)
        if name is None:
            name = Name(self._next_id)
            self._next_id += 1
            self._by_label[label] = name
            self._by_name[name] = label
        return name

    def label_of(self, name: Name) -> str:
        """The label for ``name``, synthesizing one if it was never
        interned from source."""
        if name in self._by_name:
            return self._by_name[name]
        base = f"n{name.id}"
        label = base
        k = 0
        while label in self._by_label:
            k += 1
            label = f"{base}_{k}"
        self._by_label[label] = name
        self._by_name[name] = label
        self._next_id = max(self._next_id, name.id + 1)
        return label


IDENT_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_']*")

# Every token, as the plain string ``findall`` returns; the whitespace
# between tokens matches nothing and is skipped.
_LEXEME_RE = re.compile(rf"[\\λ.()]|{IDENT_RE.pattern}")

# The first character no token can start: one outside every token class,
# or a digit or prime that does not continue an identifier.
_BAD_CHAR_RE = re.compile(r"[^\s\\λ.()a-zA-Z0-9_']|(?<![a-zA-Z0-9_'])[0-9']")

# The kind of each punctuation token, and of the end of input, which
# ``parse_term`` reads as the token "".
_KINDS = {"\\": "lam", "λ": "lam", ".": "dot", "(": "lp", ")": "rp", "": "eof"}

_KIND_LABEL = {
    "lam": "'\\'",
    "dot": "'.'",
    "lp": "'('",
    "rp": "')'",
    "ident": "identifier",
    "eof": "end of input",
}


def _error_at(src: str, offset: int, message: str) -> ParseError:
    """The error at ``src[offset]``.  Line breaks are those of
    ``str.splitlines``, which ``\\s`` all matches, with ``\\r\\n`` as one."""
    rows = (src[:offset] + ".").splitlines()  # the "." keeps a trailing break's row
    return ParseError(message, len(rows), len(rows[-1]))


def _unexpected(src: str, tokens: list[str], k: int, expected: str) -> ParseError:
    """The error at ``tokens[k]``, which is not the ``expected`` token."""
    found = _KIND_LABEL[_KINDS.get(tokens[k], "ident")]
    return _token_error(src, k, f"expected {expected}, found {found}")


def _token_error(src: str, k: int, message: str) -> ParseError:
    """The error at the ``k``-th token of the scan, or at the end of input
    if the scan has only ``k`` tokens."""
    match = next(itertools.islice(_LEXEME_RE.finditer(src), k, None), None)
    return _error_at(src, len(src) if match is None else match.start(), message)


def parse_term(src: str, table: NameTable | None = None) -> Term:
    """Parse one term; identifiers are interned into ``table`` in the order
    they are read, up to the first error.

    The input is scanned once for a character no token can start, which is
    reported before any grammar error, and once for its tokens.  All the
    occurrences of an identifier share one ``Var``.  Positions are not
    tracked while reading: a ``ParseError`` finds its line and column from
    its token's offset."""
    if table is None:
        table = NameTable()
    bad = _BAD_CHAR_RE.search(src)
    if bad is not None:
        raise _error_at(src, bad.start(), f"unexpected character {bad.group()!r}")
    tokens = _LEXEME_RE.findall(src)
    tokens.append("")
    # Each token's kind, and for an identifier read so far, its Var.
    kinds: dict = _KINDS.copy()
    intern = table.intern
    # Open contexts, innermost last: the binder (a Name) of an abstraction
    # whose body is being read, or an open parenthesis, stored as the
    # application to its left.  ``app`` is the application read so far in
    # the innermost context.  None, in either place, means no atom yet.
    stack: list = []
    app = None
    i = 0
    while True:
        token = tokens[i]
        i += 1
        kind = kinds.get(token)
        if kind is None:
            kind = kinds[token] = Var(intern(token))
        if type(kind) is Var:
            app = kind if app is None else App(app, kind)
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
                raise _unexpected(src, tokens, i - 1, _KIND_LABEL[closer])
            if not stack:
                return app
            left = stack.pop()
            app = app if left is None else App(left, app)
        elif kind != "lam":
            if kind != "dot" and stack and type(stack[-1]) is Name:
                msg = "expected a term (missing abstraction body)"
                raise _token_error(src, i - 1, msg)
            raise _unexpected(src, tokens, i - 1, "identifier or '('")
        else:
            token = tokens[i]
            i += 1
            binder = kinds.get(token)
            if binder is None:
                binder = kinds[token] = Var(intern(token))
            if type(binder) is not Var:
                raise _unexpected(src, tokens, i - 1, "identifier")
            stack.append(binder.name)
            if tokens[i] != ".":
                raise _unexpected(src, tokens, i, "'.'")
            i += 1


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
            msg = "expected a parenthesized name pair like '(a b)'"
            raise _error_at(src, pos, msg)
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
                _fold(node, lambda v, bound, depth: frozenset((v.name,)), lambda f, x: f | x,
                      lambda lam, s, depth: lam_fv.setdefault(id(lam), s - {lam.binder}))
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
