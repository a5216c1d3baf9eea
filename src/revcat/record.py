"""Frozen and interned value classes, declared by their annotations.

``frozen`` reads a class's fields once, in order, from the annotations of
its own body.  These are strings, since every module uses ``from __future__
import annotations``; ``ClassVar[...]`` ones are not fields, and a class
attribute of a field's name is its default.  The names are recorded on the
class as ``_fields``.  The class then gets each of these that its body does
not define:

- ``__init__``, taking the fields by position or keyword, then calling
  ``self.__post_init__()`` if the class has one, looked up when it runs;
- ``__repr__``, as ``QualName(field=value!r, ...)``;
- ``__eq__`` and ``__hash__`` over the tuple of the field values, leaving
  out the fields the class names in ``_uncompared``;
- ``__setattr__`` and ``__delattr__``, which raise ``FrozenInstanceError``;
- ``__reduce__``, which is ``reduce_fields``.

``interned`` reads the fields in the same way and makes the class's
constructor return the one instance with the given field values, so
instances compare and hash by identity (it installs no ``__eq__`` or
``__hash__``) and a copy is the original.  The table of instances is
``cls._interned``, keyed by the tuple of field values.  The constructor takes
the fields by position only.  It calls ``cls._check(*values)``, where the
class defines one, before the lookup: a value that is ``==`` to another and
hashes as it does (``2.0`` and ``2``) is refused there, not handed that
other's instance.  A new instance calls ``__post_init__()``, where the class
defines one, once, before it is published.  The class gets ``__new__``, the
refusing ``__setattr__`` and ``__delattr__``, and ``reduce_fields`` as
``__reduce__``.

Every method is a closure over the field names: no source is generated,
compiled or executed.  A class with ``__slots__`` in its body keeps its
fields in those slots.  Fields with defaults come last, and a call may leave
them out.  Nothing here imports from revcat.
"""
from operator import attrgetter

# The default of a field that has none.
REQUIRED = object()
# Writes an attribute past a class's own ``__setattr__``.  Updating the
# instance ``__dict__`` instead makes CPython (3.11 and later) build that
# dict, which measured slower, both to construct and to read.
_store = object.__setattr__


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a frozen value."""


def refuse(self, name, *value):
    """The ``__setattr__`` and ``__delattr__`` of a frozen value."""
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def reduce_fields(self):
    """The ``__reduce__`` of a value class: its class and field values, so a
    ``copy`` or ``pickle`` is built again by the constructor and its checks."""
    return type(self), tuple([getattr(self, name) for name in self._fields])


def fields(cls) -> dict:
    """Field name -> default (``REQUIRED`` where none), in the order the
    class body declares them; the names are recorded as ``cls._fields``.
    A field kept in a slot has no default: the slot is its class attribute."""
    own = vars(cls)
    slots = own.get("__slots__", ())
    declared = {
        name: REQUIRED if name in slots else own.get(name, REQUIRED)
        for name, kind in own.get("__annotations__", {}).items()
        if not kind.startswith("ClassVar[")
    }
    cls._fields = tuple(declared)
    return declared


def filler(cls):
    """``fill(obj, values)``: store ``values`` as the fields of ``obj``, a
    fresh instance of ``cls``, past its refusing ``__setattr__``: through the
    slot descriptors, bound here once, or by ``object.__setattr__``."""
    # Indexing the values takes about half the time of zipping them.
    if "__slots__" not in vars(cls):
        names = tuple(enumerate(cls._fields))

        def fill(obj, values):
            for i, name in names:
                _store(obj, name, values[i])
        return fill
    setters = tuple(enumerate(vars(cls)[name].__set__ for name in cls._fields))

    def fill(obj, values):
        for i, put in setters:
            put(obj, values[i])
    return fill


def frozen(cls):
    """Make ``cls`` a frozen value class, as the module docstring says."""
    declared = fields(cls)
    names = cls._fields
    count = len(names)
    defaults = tuple(default for default in declared.values() if default is not REQUIRED)
    least = count - len(defaults)
    fill = filler(cls)
    post_init = hasattr(cls, "__post_init__")

    def bind(args, kwargs):
        if not kwargs and least <= len(args) < count:
            return args + defaults[len(args) - least:]
        if len(args) > count:
            raise TypeError(f"{cls.__name__}() takes {count} field(s), got {len(args)}")
        values = list(args)
        for name in names[len(args):]:
            value = kwargs.pop(name, declared[name])
            if value is REQUIRED:
                raise TypeError(f"{cls.__name__}() is missing the field {name!r}")
            values.append(value)
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected or repeated field(s) {sorted(kwargs)}")
        return values

    def __init__(self, *args, **kwargs):
        fill(self, bind(args, kwargs) if kwargs or len(args) != count else args)
        if post_init:
            self.__post_init__()

    def __repr__(self):
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in names])
        return f"{type(self).__qualname__}({shown})"

    compared = [name for name in names if name not in getattr(cls, "_uncompared", ())]
    # attrgetter gives a tuple of two or more values, and one value alone.
    key = attrgetter(*compared) if compared else lambda obj: ()
    single = len(compared) == 1

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (key(self),) == (key(other),) if single else key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash((key(self),) if single else key(self))

    methods = {
        "__init__": __init__,
        "__repr__": __repr__,
        "__eq__": __eq__,
        "__hash__": __hash__,
        "__setattr__": refuse,
        "__delattr__": refuse,
        "__reduce__": reduce_fields,
    }
    for name, method in methods.items():
        # A body that defines ``__eq__`` alone has ``__hash__`` set to None.
        if vars(cls).get(name) is None:
            setattr(cls, name, method)
    return cls


def interned(cls):
    """Make ``cls`` an interned value class, as the module docstring says."""
    defaults = tuple(default for default in fields(cls).values() if default is not REQUIRED)
    count = len(cls._fields)
    least = count - len(defaults)
    fill = filler(cls)
    check = getattr(cls, "_check", None)
    post_init = getattr(cls, "__post_init__", None)
    table = cls._interned = {}
    new = object.__new__

    def __new__(cls, *values):
        if check is not None:
            check(*values)
        made = table.get(values)
        if made is None:
            if least <= len(values) < count:
                return __new__(cls, *values, *defaults[len(values) - least:])
            if len(values) != count:
                raise TypeError(f"{cls.__name__}() takes {count} field(s), got {len(values)}")
            made = new(cls)
            fill(made, values)
            if post_init is not None:
                post_init(made)
            # Published whole, and once: threads that race here share one object.
            made = table.setdefault(values, made)
        return made

    cls.__new__ = staticmethod(__new__)
    cls.__setattr__ = cls.__delattr__ = refuse
    cls.__reduce__ = reduce_fields
    return cls
