"""Atoms: opaque names and finite name sets.

A ``Name`` is an opaque atom whose only observable structure is identity
and a total order (the order exists so that set printing and fresh-name
choice are deterministic).  ``NameSet`` is a plain ``frozenset`` of names.

Freshness is always relative to an explicit avoid-set; there is no global
counter, so every operation here is a pure function of its arguments.

Every value type of the package derives from one of two bases here.
``_Value`` refuses assignment and deletion; ``Name`` is one, with ``==``,
``hash`` and ordering written here, those of the tuple ``(id,)``.
``_Node``, a ``_Value``, is the base of every other value type: the term
and de Bruijn nodes, ``Abstraction``, ``Left`` and ``Right``, and the
records ``NominalInstance``, ``LawResult``, ``LawReport``, ``SuppFn``,
``SuppSpecReport`` and ``NormalizeResult``.  Its ``==``, ``hash``,
``repr``, copies and pickling walk a value of any depth on an explicit
stack, reading each class's fields from its ``__match_args__``.  The one
piece of module state is the set of nodes whose ``repr`` is being
written, kept per thread as the generated dataclass repr kept it, so that
a value holding itself through a mutable field prints ``...``.

Each value class states its own ``__slots__`` and ``__match_args__``, so
importing the package does not import ``dataclasses``.  The field table
that ``dataclasses.fields``, ``replace``, ``asdict`` and ``is_dataclass``
read is built by :class:`_DataclassView` on its first read and kept on
the class.  ``dataclasses`` is imported only then, when ``copy.replace``
is called, or when an assignment is refused, to raise its
``FrozenInstanceError``.  This is the only module that names
``dataclasses``."""

from copy import deepcopy
from threading import get_ident


class _DataclassView:
    """``__dataclass_fields__`` or ``__dataclass_params__`` of a value
    class, built on its first read and then cached on the class.

    The class is the first one in the reader's MRO that states its own
    ``__match_args__``, so a subclass reads its base's table, and
    ``_Value`` and ``_Node`` have none.  The table is what the public
    ``dataclass(init=False, repr=False, eq=False)`` makes of a throwaway
    class with the same annotations: a name outside ``__match_args__``,
    as ``_top``, is a field with ``init=False``, a field with a default in
    the class's ``__init__`` has that default, and a slot with no
    annotation is no field.  Two threads that read it first at once may
    each build a table; either is the class's table."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, cls):
        owner = next((c for c in cls.__mro__ if "__match_args__" in vars(c)), None)
        if owner is None:
            raise AttributeError(self.name)
        import inspect
        from dataclasses import dataclass, field

        params = inspect.signature(owner.__init__).parameters
        ns = {"__annotations__": dict(owner.__annotations__), "__module__": owner.__module__}
        for f in owner.__annotations__:
            if f not in owner.__match_args__:
                ns[f] = field(init=False)
            elif f in params and params[f].default is not params[f].empty:
                ns[f] = params[f].default
        shadow = dataclass(init=False, repr=False, eq=False)(type(owner.__name__, (), ns))
        owner.__dataclass_fields__ = shadow.__dataclass_fields__
        owner.__dataclass_params__ = shadow.__dataclass_params__
        return getattr(owner, self.name)


class _Value:
    """Base of every value type: its instances refuse every assignment to
    or deletion of an attribute, declared or not, with
    ``dataclasses.FrozenInstanceError``.  Constructors store through the
    slot descriptors or ``object.__setattr__``, which both bypass these.
    Each value class declares its fields as ``__match_args__``, its slots
    and its annotations, which ``dataclasses`` reads through the two
    :class:`_DataclassView` attributes here."""

    __slots__ = ()
    __dataclass_fields__ = _DataclassView()
    __dataclass_params__ = _DataclassView()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __replace__(self, /, **changes):
        """``copy.replace``, from Python 3.13, as on a dataclass."""
        from dataclasses import replace
        return replace(self, **changes)


# A node is an instance of _Node, read through the fields its class names
# in __match_args__; any other value is a leaf, left to its own methods.
_END = object()  # stack marker: the node below it has all its fields done
_REPR_OPEN: set[tuple[int, int]] = set()  # (id, thread) of each node being written


class _Node(_Value):
    """Base of every value type but ``Name``, the composite ones, whose
    fields may hold values of their own kind, and the records, whose
    fields may hold any of them.  A subclass declares its fields in its
    body, as ``__slots__ = __match_args__ = ("fn", "arg")`` and their
    annotations; a cached summary, as ``_top``, is one more slot, and
    one more annotation if ``dataclasses.fields`` is to list it.

    Its ``==``, ``hash``, ``repr``, ``__copy__``, ``__deepcopy__`` and
    ``__reduce__`` are explicit-stack walkers that descend into each field
    of ``__match_args__`` holding a node and leave any other value to its
    own methods.  They give what the generated dataclass methods gave,
    field tuples compared and hashed, ``Cls(field=value, ...)`` written, a
    shallow ``copy.copy`` and a ``copy.deepcopy`` that keeps cycles
    through leaves, on values of any depth, and a subclass of a value type
    behaves as a subclass of the generated dataclass did."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        """Store the fields named in ``__match_args__``, each given once,
        by position or by name, as ``dataclasses.replace`` gives them."""
        names = type(self).__match_args__
        if kwargs:
            args += tuple(kwargs.pop(f) for f in names[len(args):] if f in kwargs)
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__qualname__}() takes the fields {', '.join(names)}, each once")
        for f, value in zip(names, args):
            object.__setattr__(self, f, value)

    def __eq__(self, other):
        """Field-by-field equality, both values walked in lockstep.  A
        pair of identical objects is equal unwalked, as in tuple
        comparison, and a pair that is not two nodes of one type is left
        to its own ``==``."""
        if type(other) is not type(self):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            x, y = todo.pop()
            for f in type(x).__match_args__:
                a, b = getattr(x, f), getattr(y, f)
                if a is b:
                    continue
                if isinstance(a, _Node) and type(b) is type(a):
                    todo.append((a, b))
                elif not a == b:
                    return False
        return True

    def __hash__(self):
        """The hash of the tuple of fields, taken in post-order.  The hash
        of a tuple reads only its elements' hashes, so a node stands in
        for itself in its parent's tuple: as its own tuple when every
        field is a leaf, hashed with the parent's, and otherwise as a
        ``_Hashed``, so the tuples built here nest at most one deep."""
        todo, out = [self], []
        while todo:
            v = todo.pop()
            if v is _END:
                # The node's fields, its children put on in field order:
                # the first one's stand-in came out last and is on top.
                vals = todo.pop()
                for i in range(len(vals)):
                    if isinstance(vals[i], _Node):
                        vals[i] = out.pop()
                out.append(_Hashed(hash(tuple(vals))))
                continue
            vals, leaf = [], True
            for f in type(v).__match_args__:
                c = getattr(v, f)
                vals.append(c)
                if isinstance(c, _Node):
                    if leaf:
                        todo += (vals, _END)
                        leaf = False
                    todo.append(c)
            if leaf:
                out.append(tuple(vals))
        return hash(out[0])

    def __repr__(self):
        """``Cls(field=value, ...)``, written in pre-order into one list.
        A node met again while its own repr is open, through a leaf that
        holds it, is written ``...``, as the generated repr's per-object
        guard did.  A node is open from its visit to the key that marks it
        in ``_REPR_OPEN``, put below its pieces, so on an error the keys
        left on the stack are those of the open nodes."""
        thread, out, todo = get_ident(), [], [self]
        try:
            while todo:
                v = todo.pop()
                if type(v) is tuple:
                    _REPR_OPEN.remove(v)
                elif not isinstance(v, _Node):
                    out.append(v)
                elif (key := (id(v), thread)) in _REPR_OPEN:
                    out.append("...")
                else:
                    _REPR_OPEN.add(key)
                    todo += (key, ")")
                    pieces, sep = [f"{type(v).__qualname__}("], ""
                    for f in type(v).__match_args__:
                        c = getattr(v, f)
                        pieces += (f"{sep}{f}=", c if isinstance(c, _Node) else repr(c))
                        sep = ", "
                    todo += reversed(pieces)
        finally:
            _REPR_OPEN.difference_update(v for v in todo if type(v) is tuple)
        return "".join(out)

    def __copy__(self):
        """A shallow copy: a new node over the same fields, built through
        the constructor, as ``copy.copy`` made of a dataclass."""
        return type(self)(*[getattr(self, f) for f in type(self).__match_args__])

    def __deepcopy__(self, memo):
        """A deep copy that keeps shared nodes shared and a value that
        holds itself through a leaf closed, as the generated dataclass's
        did: every node below this one is put into ``memo``, as a new
        object, before any leaf is copied, and is then built through its
        constructor, in post-order, first each node whose fields are all
        value types: so every term is built before a leaf's copy can build
        a new term over it."""
        order, todo = [], [self]
        while todo:
            v = todo.pop()
            if v is _END:
                order.append(todo.pop())
            elif isinstance(v, _Node) and id(v) not in memo:
                memo[id(v)] = object.__new__(type(v))
                todo += (v, _END, *[getattr(v, f) for f in type(v).__match_args__])
        order.sort(key=lambda v: any(not isinstance(getattr(v, f), _Value)
                                     for f in type(v).__match_args__))
        for v in order:
            memo[id(v)].__init__(*[deepcopy(getattr(v, f), memo) for f in type(v).__match_args__])
        return memo[id(self)]

    def __reduce__(self):
        """Pickle through a flat post-order code: a leaf is ``None`` with
        its value next in ``leaves``, a node its type, after its fields,
        and a node met before its index among the nodes, so shared
        subterms stay shared.  :func:`_rebuild` calls the constructors."""
        code, leaves, seen, todo = [], [], {}, [self]
        while todo:
            v = todo.pop()
            if v is _END:
                v = todo.pop()
                seen[id(v)] = len(seen)
                code.append(type(v))
            elif not isinstance(v, _Node):
                code.append(None)
                leaves.append(v)
            elif id(v) in seen:
                code.append(seen[id(v)])
            else:
                todo += (v, _END, *[getattr(v, f) for f in reversed(type(v).__match_args__)])
        return _rebuild, (tuple(code), tuple(leaves))


class _Hashed(int):
    """A stand-in whose hash is the int it holds: a node's hash, taken."""

    __slots__ = ()
    __hash__ = int.__int__


def _rebuild(code, leaves):
    """The value :meth:`_Node.__reduce__` encoded as ``code`` and ``leaves``."""
    leaves, out, nodes = iter(leaves), [], []
    for c in code:
        if c is None or type(c) is int:  # a leaf, or a node met before
            out.append(next(leaves) if c is None else nodes[c])
        else:
            k = len(out) - len(c.__match_args__)
            out[k:] = [c(*out[k:])]
            nodes.append(out[-1])
    return out[0]


class Name(_Value):
    """An atom, identified by a natural-number index.

    Its ``==``, ``hash`` and ordering are those of the one-field tuple
    ``(id,)``, against a name of the same class only, as the methods a
    dataclass generates with ``order=True`` compare.  The ``__init__``
    stores through the slot's own descriptor, which makes a name about
    twice as cheap to build as ``object.__setattr__`` would.
    """

    __slots__ = __match_args__ = ("id",)
    id: int

    def __init__(self, id: int) -> None:
        _name_id(self, id)

    def __eq__(self, other):
        return (self.id,) == (other.id,) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.id,))

    def __lt__(self, other):
        return (self.id,) < (other.id,) if other.__class__ is self.__class__ else NotImplemented

    def __le__(self, other):
        return (self.id,) <= (other.id,) if other.__class__ is self.__class__ else NotImplemented

    def __gt__(self, other):
        return (self.id,) > (other.id,) if other.__class__ is self.__class__ else NotImplemented

    def __ge__(self, other):
        return (self.id,) >= (other.id,) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"Name({self.id})"

    def __reduce__(self):
        return Name, (self.id,)


_name_id = Name.__dict__["id"].__set__

NameSet = frozenset[Name]


def fresh_for(avoid: NameSet) -> Name:
    """Return a name not in ``avoid``.

    Policy: one past the maximum index in ``avoid`` (index 0 for the empty
    set), so the result is deterministic and O(|avoid|) to compute.
    """
    return Name(max((n.id for n in avoid), default=-1) + 1)


def fresh_many(avoid: NameSet, k: int) -> tuple[Name, ...]:
    """Return ``k`` pairwise-distinct names, none of them in ``avoid``.

    Policy: the ``k`` consecutive indices starting at ``fresh_for(avoid)``,
    which is what drawing ``fresh_for`` ``k`` times, each time avoiding
    the names drawn so far, would give.
    """
    first = fresh_for(avoid).id
    return tuple(Name(first + i) for i in range(k))
