"""Finite name permutations as sequences of swaps.

A ``Swap`` is an unordered transposition ``(a, b)``; a ``Perm`` is a tuple
of swaps applied left to right.  Every such word denotes a finite bijection
on names: composition is concatenation, the inverse is the reversed word,
and the empty tuple is the identity.

Words are not normalized.  Every operation that needs the bijection itself
runs the word once, comparing name indices: :func:`_image` turns a word
into its moved-name image, a map from each moved name's index to its image,
in one O(|p|) pass.  Two words are compared extensionally with
``perm_equiv``, which compares their images, so it costs O(|p| + |q|);
actions on many names (terms, name sets, supports) build the image once
and then look each name up.

:func:`_image` is also the one place a word is checked: it raises
``TypeError`` for any swap that is not a pair of names, so every action
that builds an image rejects such a word whatever it is applied to.
:func:`perm_apply` builds no image and checks nothing, because a check
per swap would slow its per-name loop by about a third.
"""

from __future__ import annotations

from .atoms import Name, NameSet

Swap = tuple[Name, Name]
Perm = tuple[Swap, ...]

IDENTITY: Perm = ()


def swap_perm(a: Name, b: Name) -> Perm:
    """The single-transposition permutation exchanging ``a`` and ``b``."""
    return ((a, b),)


def swap_apply(s: Swap, c: Name) -> Name:
    a, b = s
    if a == c:
        return b
    if b == c:
        return a
    return c


def perm_apply(p: Perm, a: Name) -> Name:
    """Apply the swaps of ``p`` to ``a``, first swap first.  Anything that
    is not a ``Name`` is fixed."""
    if type(a) is not Name:
        return a
    i = a.id
    for x, y in p:
        if x.id == i:
            a = y
            i = a.id
        elif y.id == i:
            a = x
            i = a.id
    return a


def _image(p: Perm) -> dict[int, Name]:
    """The moved names of ``p``: each one's index mapped to its image.

    One pass over the word, so a one-shot iterator is read once.  ``inv``
    maps each moved name's image index back to the name, so the swap
    ``(x, y)`` finds the two names currently sent to ``x`` and ``y`` in
    O(1) and exchanges their images; a name sent back to itself is
    dropped, so equal bijections give equal maps.  Any swap that is not a
    pair of names, objects with an ``int`` ``id``, raises ``TypeError``,
    degenerate or not, and so does a ``p`` that is not a word at all.
    """
    img: dict[int, Name] = {}
    inv: dict[int, Name] = {}
    try:
        for x, y in p:
            i, j = x.id, y.id
            if type(i) is not int or type(j) is not int:
                raise TypeError
            if i == j:
                continue
            m = inv.pop(i, x)  # the name sent to x so far, now sent to y
            n = inv.pop(j, y)  # the name sent to y so far, now sent to x
            if m.id == j:
                del img[j]
            else:
                img[m.id] = y
                inv[j] = m
            if n.id == i:
                del img[i]
            else:
                img[n.id] = x
                inv[i] = n
    except (AttributeError, TypeError, ValueError):
        raise TypeError("a permutation must be a word of swaps of names") from None
    return img


def _nameset_act(p: Perm, s: NameSet) -> NameSet:
    """The elementwise image of a name set, one lookup per name."""
    get = _image(p).get
    return frozenset([get(a.id, a) for a in s])


def perm_compose(p: Perm, q: Perm) -> Perm:
    """The permutation acting as ``p`` first, then ``q``."""
    return p + q


def perm_inverse(p: Perm) -> Perm:
    return tuple(reversed(p))


def perm_domain(p: Perm) -> NameSet:
    """Every name mentioned in ``p``; a superset of the moved names."""
    return frozenset(n for s in p for n in s)


def perm_equiv(p: Perm, q: Perm) -> bool:
    """Extensional equality of the denoted bijections: both words move the
    same names to the same images, and fix every other name."""
    return _image(p) == _image(q)
