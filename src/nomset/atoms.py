"""Atoms: opaque names and finite name sets.

A ``Name`` is an opaque atom whose only observable structure is identity
and a total order (the order exists so that set printing and fresh-name
choice are deterministic).  ``NameSet`` is a plain ``frozenset`` of names.

Freshness is always relative to an explicit avoid-set; there is no global
counter, so every operation here is a pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass


def _sealed(cls):
    """Make every assignment to or deletion of an attribute of ``cls``'s
    instances raise ``FrozenInstanceError``.

    Applied above ``@dataclass(frozen=True, slots=True)``: the
    ``__setattr__`` that decorator generates names the class it replaced
    to add slots, so for an undeclared attribute it fails with a
    ``TypeError`` from ``super``, and a frozen dataclass's body may not
    define its own.  Constructors store through the slot descriptors or
    ``object.__setattr__``, which both bypass the class's own.
    """

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls


@_sealed
@dataclass(frozen=True, order=True, slots=True)
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
