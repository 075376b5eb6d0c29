"""``record``: a ``dataclass`` whose methods are built without ``exec``.

``dataclass`` writes each method it adds as source text and
``exec``-compiles it, one to two milliseconds a class at every import, so
every value class in ``src/`` is a ``record``.  It asks ``dataclass`` only
for the field registry (``fields``, ``dataclasses.replace``, ``asdict``
and ``is_dataclass`` work) and installs closures that behave like the
generated methods: the same signature and ``TypeError`` s, ``__dict__`` in
field order, ``repr``, ``==``, ``hash`` and frozen writes.  A method the
class body defines is kept.  Fields are plain ones: no ``init=False``,
``InitVar`` or ``kw_only``.
"""

import dataclasses
import inspect
from operator import attrgetter

_MISSING = dataclasses.MISSING


def _getter(names):
    """``obj -> tuple`` of the named attributes."""
    if len(names) > 1:
        return attrgetter(*names)
    return lambda obj: tuple(getattr(obj, name) for name in names)


def _signature_default(field):
    """``field``'s default as ``dataclass``'s ``__init__`` signature
    shows it."""
    if field.default_factory is not _MISSING:
        return dataclasses._HAS_DEFAULT_FACTORY
    if field.default is _MISSING:
        return inspect.Parameter.empty
    return field.default


def _frozen(self, name, *value):
    """A frozen record's ``__setattr__`` and ``__delattr__``."""
    raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")


def record(cls=None, *, frozen=False):
    """``@record`` or ``@record(frozen=True)``: a dataclass, without exec."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    own = set(vars(cls))
    fields = dataclasses.fields(
        dataclasses.dataclass(cls, init=False, repr=False, eq=False))
    names = tuple(f.name for f in fields)
    template = {f.name: f.default for f in fields}
    required = [f.name for f in fields
                if f.default is f.default_factory is _MISSING]
    factories = [(f.name, f.default_factory) for f in fields
                 if f.default_factory is not _MISSING]
    post_init = getattr(cls, "__post_init__", None)
    kind = inspect.Parameter.POSITIONAL_OR_KEYWORD
    signature = inspect.Signature([inspect.Parameter("self", kind)] + [
        inspect.Parameter(f.name, kind, annotation=f.type,
                          default=_signature_default(f))
        for f in fields], return_annotation=None)

    def __init__(self, *args, **kwargs):
        values = self.__dict__
        values.update(template)  # all fields, in order, at their defaults
        values.update(zip(names, args))
        if kwargs:
            values.update(kwargs)
        if (len(values) > len(names) or len(args) > len(names)
                or kwargs and not kwargs.keys().isdisjoint(names[:len(args)])
                or len(args) < len(required) and any(
                    values[name] is _MISSING for name in required)):
            signature.bind(self, *args, **kwargs)  # raises the TypeError
        for name, factory in factories:
            if values[name] is _MISSING:
                values[name] = factory()
        if post_init is not None:
            post_init(self)

    __init__.__signature__ = signature
    shown = [f.name for f in fields if f.repr]
    compared = _getter([f.name for f in fields if f.compare])
    hashed = _getter([f.name for f in fields
                      if (f.compare if f.hash is None else f.hash)])

    def __repr__(self):
        shows = (f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{self.__class__.__qualname__}({', '.join(shows)})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return compared(self) == compared(other)
        return NotImplemented

    def __hash__(self):
        return hash(hashed(self))

    methods = {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__,
               "__hash__": __hash__ if frozen else None}
    if frozen:
        methods.update(__setattr__=_frozen, __delattr__=_frozen)
    for name, method in methods.items():
        if name not in own:
            setattr(cls, name, method)
    return cls
