"""Name abstraction with decidable alpha-equivalence.

``Abstraction(name, term)`` is a deliberately distinct record rather than
a raw pair: alpha-equivalence lives on this type only, so ordinary pairs
can never be compared up to alpha by accident.

Two abstractions are alpha-equivalent when swapping both bound names with
one common fresh mediator makes the bodies equivalent.  As with freshness,
a single canonical mediator decides the relation; the universal form is a
finite probe used for cross-validation.
"""

from __future__ import annotations

from typing import Generic, TypeVar

from .atoms import Name, NameSet, _Node, _node_dataclass, fresh_for
from .freshness import WitnessError, fresh_tuple
from .nominal import NominalInstance, instance_name
from .perms import Perm, perm_apply, swap_perm

X = TypeVar("X")


@_node_dataclass
class Abstraction(_Node, Generic[X]):
    """A name bound in a term; compared by alpha-equivalence.  The bound
    name is refused, with ``TypeError``, unless its ``id`` is an ``int``,
    as a ``Lam``'s binder is."""

    name: Name
    term: X

    def __init__(self, *args, **kwargs) -> None:
        _Node.__init__(self, *args, **kwargs)
        if type(getattr(self.name, "id", None)) is not int:
            raise TypeError("Abstraction: name must be a name")


def alpha_equiv_dec(
    inst: NominalInstance[X], a: Abstraction[X], b: Abstraction[X]
) -> bool:
    """Decide ``a ~alpha b`` via one fresh mediator."""
    c = fresh_for(
        frozenset((a.name, b.name))
        | inst.support(a.term)
        | inst.support(b.term)
    )
    return inst.equiv(
        inst.act(swap_perm(c, a.name), a.term),
        inst.act(swap_perm(c, b.name), b.term),
    )


def alpha_universal_probe(
    inst: NominalInstance[X],
    a: Abstraction[X],
    b: Abstraction[X],
    witnesses: NameSet,
) -> bool:
    """Check the mediator condition for every supplied witness.

    Each witness must be fresh for both bound names and both bodies;
    violations raise :class:`WitnessError`.
    """
    iname = instance_name()
    parts = (iname, iname, inst, inst)
    for c in witnesses:
        if not fresh_tuple(parts, c, (a.name, b.name, a.term, b.term)):
            raise WitnessError(
                f"witness {c!r} is not fresh for both abstractions"
            )
    return all(
        inst.equiv(
            inst.act(swap_perm(c, a.name), a.term),
            inst.act(swap_perm(c, b.name), b.term),
        )
        for c in witnesses
    )


def abs_act(
    inst: NominalInstance[X], p: Perm, a: Abstraction[X]
) -> Abstraction[X]:
    """Permutations act on the bound name and the body alike."""
    return Abstraction(perm_apply(p, a.name), inst.act(p, a.term))


def abs_support(inst: NominalInstance[X], a: Abstraction[X]) -> NameSet:
    """The body's support minus the bound name."""
    return inst.support(a.term) - {a.name}


def instance_abstraction(
    inst: NominalInstance[X],
) -> NominalInstance[Abstraction[X]]:
    """Abstractions over a nominal carrier form a nominal carrier."""
    return NominalInstance(
        equiv=lambda a, b: alpha_equiv_dec(inst, a, b),
        act=lambda p, a: abs_act(inst, p, a),
        support=lambda a: abs_support(inst, a),
    )
