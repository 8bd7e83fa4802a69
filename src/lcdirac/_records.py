"""Frozen value records: the one class decorator behind lcdirac's record types.

``@record`` does what ``@dataclass(frozen=True)`` does for these classes: the
annotated class attributes, in order, are the fields, a class attribute of
the same name is the field's default, and ``fresh(factory)`` gives a default
built anew for each instance. It adds ``__init__`` (by position or keyword,
then ``__post_init__`` if the class has one), a frozen ``__setattr__`` and
``__delattr__`` (an ``AttributeError``; ``__post_init__`` assigns through
``object.__setattr__``), and ``__eq__``, ``__hash__`` and ``__repr__`` over
the fields in order.

The methods are closures over the field names, made in microseconds;
``dataclasses`` compiles source text for each class, about 1 ms per class
at import, more than all of lcdirac's other import-time work together.
No ``__slots__``: instances keep a ``__dict__``, which
``SpinorField._evolved`` fills directly.
"""
from __future__ import annotations

from operator import attrgetter

_MISSING = object()


class fresh:
    """Default of a field whose value each instance builds by calling factory."""

    __slots__ = ("factory",)

    def __init__(self, factory):
        self.factory = factory


def record(cls):
    """Make cls a frozen record over its annotated fields; returns cls."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    spec = []
    for name in names:
        default = cls.__dict__.get(name, _MISSING)
        if default is _MISSING and spec and spec[-1][1] is not _MISSING:
            raise TypeError(f"non-default field {name!r} follows a default field in {cls.__qualname__}")
        if isinstance(default, fresh):
            delattr(cls, name)
        spec.append((name, default))
    spec = tuple(spec)
    n = len(names)
    post_init = hasattr(cls, "__post_init__")
    get = attrgetter(*names)
    key = get if n > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        if len(args) > n:
            raise TypeError(f"{cls.__qualname__}() takes {n} arguments but {len(args)} were given")
        values = list(args)
        for name, default in spec[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif default is _MISSING:
                raise TypeError(f"{cls.__qualname__}() missing required argument {name!r}")
            elif isinstance(default, fresh):
                values.append(default.factory())
            else:
                values.append(default)
        if kwargs:
            name = next(iter(kwargs))
            if name in names:
                raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
            raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
        self.__dict__.update(zip(names, values))
        if post_init:
            self.__post_init__()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {cls.__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {cls.__qualname__}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, key(self)))
        return f"{self.__class__.__qualname__}({fields})"

    for method in (__init__, __setattr__, __delattr__, __eq__, __hash__, __repr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
