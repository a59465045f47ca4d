"""Atoms: opaque names and finite name sets.

A ``Name`` is an opaque atom whose only observable structure is identity
and a total order (the order exists so that set printing and fresh-name
choice are deterministic).  ``NameSet`` is a plain ``frozenset`` of names.

Freshness is always relative to an explicit avoid-set; there is no global
counter, so every operation here is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass


def _value_type(cls=None, *, leaf=False):
    """Make ``cls`` a frozen slots dataclass whose instances refuse every
    assignment to or deletion of an attribute with ``FrozenInstanceError``.

    A ``leaf``, one whose fields hold no value type, is ordered and keeps
    the dataclass's generated methods, which never recurse.  Any other
    class generates no comparison, hash or repr code.  Its ``==``,
    ``hash``, ``repr``, ``__copy__`` and ``__reduce__`` are the functions
    below, shared by every such class: explicit-stack walkers that
    descend into each field of ``__match_args__`` holding such a value
    and leave any other value to its own methods.  They give what the
    generated methods gave, field tuples compared and hashed,
    ``Cls(field=value, ...)`` written and a shallow ``copy.copy``, on
    values of any depth.  ``dataclasses.fields``, ``dataclasses.replace``,
    ``__match_args__`` and the generated ``__init__`` remain.

    The dataclass's own ``__setattr__`` and ``__delattr__`` are replaced:
    they name the class it replaced to add slots, so for an undeclared
    attribute they fail with a ``TypeError`` from ``super``, and a frozen
    dataclass's body may not define its own.  Constructors store through
    the slot descriptors or ``object.__setattr__``, which both bypass
    the class's own.
    """
    if cls is None:
        return lambda cls: _value_type(cls, leaf=leaf)
    if leaf:
        cls = dataclass(frozen=True, order=True, slots=True)(cls)
    else:
        cls = dataclass(frozen=True, eq=False, repr=False, slots=True)(cls)
        del cls.__getstate__, cls.__setstate__
        cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, _repr
        cls.__copy__, cls.__reduce__ = _copy, _reduce
        _FIELDS[cls] = cls.__match_args__

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls


# The walkers.  A value whose type is a key here is a node, read through
# the fields named; any other value is a leaf, left to its own methods.
_FIELDS: dict[type, tuple[str, ...]] = {}
_END = object()  # stack marker: the node below it has all its fields done


def _eq(self, other):
    """Field-by-field equality, both values walked in lockstep.  A pair
    of identical objects is equal unwalked, as in tuple comparison, and
    a pair that is not two nodes of one type is left to its own ``==``."""
    if type(other) is not type(self):
        return NotImplemented
    todo = [(self, other)]
    while todo:
        x, y = todo.pop()
        for f in _FIELDS[type(x)]:
            a, b = getattr(x, f), getattr(y, f)
            if a is b:
                continue
            if type(a) in _FIELDS and type(b) is type(a):
                todo.append((a, b))
            elif not a == b:
                return False
    return True


class _Hashed(int):
    """A stand-in whose hash is the int it holds: a node's hash, taken."""

    __slots__ = ()
    __hash__ = int.__int__


def _hash(self):
    """The hash of the tuple of fields, taken in post-order.  The hash of
    a tuple reads only its elements' hashes, so a node stands in for
    itself in its parent's tuple: as its own tuple when every field is a
    leaf, hashed with the parent's, and otherwise as a ``_Hashed``, so
    the tuples built here nest at most one deep."""
    todo, out = [self], []
    while todo:
        v = todo.pop()
        if v is _END:
            # The node's fields, its children put on in field order: the
            # first one's stand-in came out last and is on top.
            vals = todo.pop()
            for i in range(len(vals)):
                if type(vals[i]) in _FIELDS:
                    vals[i] = out.pop()
            out.append(_Hashed(hash(tuple(vals))))
            continue
        vals, leaf = [], True
        for f in _FIELDS[type(v)]:
            c = getattr(v, f)
            vals.append(c)
            if type(c) in _FIELDS:
                if leaf:
                    todo += (vals, _END)
                    leaf = False
                todo.append(c)
        if leaf:
            out.append(tuple(vals))
    return hash(out[0])


def _repr(self):
    """``Cls(field=value, ...)``, written in pre-order into one list."""
    out, todo = [], [self]
    while todo:
        v = todo.pop()
        if type(v) is str:
            out.append(v)
            continue
        out.append(f"{type(v).__qualname__}(")
        pieces, sep = [], ""
        for f in _FIELDS[type(v)]:
            c = getattr(v, f)
            pieces += (f"{sep}{f}=", c if type(c) in _FIELDS else repr(c))
            sep = ", "
        pieces.append(")")
        todo += reversed(pieces)
    return "".join(out)


def _copy(self):
    """A shallow copy: a new node over the same fields, built through the
    constructor, as ``copy.copy`` made of a dataclass."""
    return type(self)(*[getattr(self, f) for f in _FIELDS[type(self)]])


def _reduce(self):
    """Pickle and deepcopy through a flat post-order code: a leaf is
    ``None`` with its value next in ``leaves``, a node its type, after its
    fields, and a node met before its index among the nodes, so shared
    subterms stay shared.  :func:`_rebuild` calls the constructors."""
    code, leaves, seen, todo = [], [], {}, [self]
    while todo:
        v = todo.pop()
        if v is _END:
            v = todo.pop()
            seen[id(v)] = len(seen)
            code.append(type(v))
            continue
        fields = _FIELDS.get(type(v))
        if fields is None:
            code.append(None)
            leaves.append(v)
        elif id(v) in seen:
            code.append(seen[id(v)])
        else:
            todo += (v, _END)
            for f in reversed(fields):
                todo.append(getattr(v, f))
    return _rebuild, (tuple(code), tuple(leaves))


def _rebuild(code, leaves):
    """The value :func:`_reduce` encoded as ``code`` and ``leaves``."""
    leaves, out, nodes = iter(leaves), [], []
    for c in code:
        if c is None:
            out.append(next(leaves))
        elif type(c) is int:
            out.append(nodes[c])
        else:
            k = len(out) - len(_FIELDS[c])
            node = c(*out[k:])
            del out[k:]
            out.append(node)
            nodes.append(node)
    return out[0]


@_value_type(leaf=True)
class Name:
    """An atom, identified by a natural-number index.

    The ``__init__`` is written out because the generated one of a frozen
    dataclass stores through ``object.__setattr__``; storing through the
    slot's own descriptor makes a name about twice as cheap to build.
    """

    id: int

    def __init__(self, id: int) -> None:
        _name_id(self, id)

    def __repr__(self) -> str:
        return f"Name({self.id})"


_name_id = Name.__dict__["id"].__set__

NameSet = frozenset[Name]


def fresh_for(avoid: NameSet) -> Name:
    """Return a name not in ``avoid``.

    Policy: one past the maximum index in ``avoid`` (index 0 for the empty
    set), so the result is deterministic and O(|avoid|) to compute.
    """
    if not avoid:
        return Name(0)
    return Name(max(n.id for n in avoid) + 1)


def fresh_many(avoid: NameSet, k: int) -> tuple[Name, ...]:
    """Return ``k`` pairwise-distinct names, none of them in ``avoid``.

    Policy: the ``k`` consecutive indices starting at ``fresh_for(avoid)``,
    which is what drawing ``fresh_for`` ``k`` times, each time avoiding
    the names drawn so far, would give.
    """
    first = fresh_for(avoid).id
    return tuple(Name(first + i) for i in range(k))
