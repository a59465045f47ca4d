"""Reference answers that share no code path with the functions under test.

Every walk here is iterative, so a reference never raises ``RecursionError``
on an input the program is asked to handle.  Terms are compared through
their de Bruijn image written as a flat prefix token tuple:

* ``"L"`` a binder, ``"A"`` an application,
* ``("b", i)`` a bound occurrence, ``i`` binders out,
* ``("f", key)`` a free occurrence, ``key`` being a name index for terms
  built in Python and an identifier for terms read from text.

Two terms are alpha-equivalent exactly when their token tuples are equal,
and comparing flat tuples needs no recursion however deep the terms are.
"""

from __future__ import annotations

import re

from nomset.lam import App, Lam, Var


def term_db(t) -> tuple:
    """De Bruijn prefix tokens of a ``nomset`` term, free names by index."""
    out = []
    env: dict[int, list[int]] = {}
    stack = [(t, 0)]
    while stack:
        node, depth = stack.pop()
        if node is None:  # leaving a binder; ``depth`` holds its name index
            env[depth].pop()
            continue
        cls = type(node)
        if cls is Var:
            seen = env.get(node.name.id)
            if seen:
                out.append(("b", depth - 1 - seen[-1]))
            else:
                out.append(("f", node.name.id))
        elif cls is App:
            out.append("A")
            stack.append((node.arg, depth))
            stack.append((node.fn, depth))
        elif cls is Lam:
            out.append("L")
            env.setdefault(node.binder.id, []).append(depth)
            stack.append((None, node.binder.id))
            stack.append((node.body, depth + 1))
        else:
            raise TypeError(f"not a term: {node!r}")
    return tuple(out)


def term_key(t) -> tuple:
    """Prefix tokens of a ``nomset`` term with every name kept: the input
    itself, in a form that compares and prints without recursion."""
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is Var:
            out.append(node.name.id)
        elif cls is App:
            out.append("A")
            stack.append(node.arg)
            stack.append(node.fn)
        else:
            out.append(("L", node.binder.id))
            stack.append(node.body)
    return tuple(out)


def term_size(t) -> int:
    """Constructor count, as ``nomset.term_size`` defines it."""
    n = 0
    stack = [t]
    while stack:
        node = stack.pop()
        n += 1
        if type(node) is App:
            stack.append(node.fn)
            stack.append(node.arg)
        elif type(node) is Lam:
            stack.append(node.body)
    return n


def free_names(t) -> frozenset:
    """Free variables of a ``nomset`` term."""
    out = set()
    stack = [(t, frozenset())]
    while stack:
        node, bound = stack.pop()
        if type(node) is Var:
            if node.name not in bound:
                out.add(node.name)
        elif type(node) is App:
            stack.append((node.fn, bound))
            stack.append((node.arg, bound))
        else:
            stack.append((node.body, bound | {node.binder}))
    return frozenset(out)


def church_db(n: int) -> tuple:
    """Tokens of the Church numeral ``\\f. \\x. f (f (... x))``."""
    return ("L", "L") + ("A", ("b", 1)) * n + (("b", 0),)


_TOKEN_RE = re.compile(r"\s*(?:([\\λ])|(\.)|(\()|(\))|([a-zA-Z_][a-zA-Z0-9_']*))")


class TextError(ValueError):
    """Text that the reference reader cannot read as a term."""


def text_db(src: str) -> tuple:
    """De Bruijn prefix tokens of a term in the CLI's concrete syntax.

    Free identifiers keep their spelling.  The reader is iterative: an
    open parenthesis or binder pushes a frame holding the application
    items read so far, and ``)`` or the end of input closes frames.
    """
    # Each frame: [kind, binder label or None, list of item trees].
    frames = [["top", None, []]]
    pos = 0
    n = len(src)
    while True:
        while pos < n and src[pos].isspace():
            pos += 1
        if pos >= n:
            break
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise TextError(f"unreadable text at {pos}")
        pos = m.end()
        lam, dot, lp, rp, ident = m.groups()
        if ident is not None:
            frames[-1][2].append(("V", ident))
        elif lp:
            frames.append(["paren", None, []])
        elif lam:
            m2 = _TOKEN_RE.match(src, pos)
            m3 = _TOKEN_RE.match(src, m2.end()) if m2 else None
            if not (m2 and m2.group(5) and m3 and m3.group(2)):
                raise TextError(f"bad binder at {pos}")
            frames.append(["lam", m2.group(5), []])
            pos = m3.end()
        elif rp:
            _close_lams(frames)
            if frames[-1][0] != "paren":
                raise TextError("unbalanced ')'")
            _, _, items = frames.pop()
            frames[-1][2].append(_app(items))
        else:
            raise TextError(f"stray '.' at {pos}")
    _close_lams(frames)
    if len(frames) != 1:
        raise TextError("unclosed '('")
    return _tree_db(_app(frames[0][2]))


def _app(items: list):
    if not items:
        raise TextError("empty term")
    t = items[0]
    for x in items[1:]:
        t = ("A", t, x)
    return t


def _close_lams(frames: list) -> None:
    while frames[-1][0] == "lam":
        _, binder, items = frames.pop()
        frames[-1][2].append(("L", binder, _app(items)))


def _tree_db(tree) -> tuple:
    out = []
    env: dict[str, list[int]] = {}
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if node is None:  # leaving a binder; ``depth`` holds its label
            env[depth].pop()
            continue
        tag = node[0]
        if tag == "V":
            seen = env.get(node[1])
            if seen:
                out.append(("b", depth - 1 - seen[-1]))
            else:
                out.append(("f", node[1]))
        elif tag == "A":
            out.append("A")
            stack.append((node[2], depth))
            stack.append((node[1], depth))
        else:
            out.append("L")
            env.setdefault(node[1], []).append(depth)
            stack.append((None, node[1]))
            stack.append((node[2], depth + 1))
    return tuple(out)


def splice_free(tokens: tuple, key, replacement: tuple) -> tuple:
    """Substitute ``replacement`` for every free ``key`` occurrence.

    Free names of the replacement stay free under any binder, because
    bound occurrences are indices; that is what capture avoidance means.
    """
    out = []
    target = ("f", key)
    for tok in tokens:
        if tok == target:
            out.extend(replacement)
        else:
            out.append(tok)
    return tuple(out)


def free_keys(tokens: tuple) -> set:
    return {tok[1] for tok in tokens if type(tok) is tuple and tok[0] == "f"}
