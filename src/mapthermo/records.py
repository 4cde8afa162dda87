"""Record classes: annotated fields with a constructor, repr and comparison.

`record` turns a class whose body annotates its fields (in order, with
class-level defaults) into a record, as `dataclasses.dataclass` would: a
constructor taking the fields by position or keyword, then calling
`__post_init__` if the class has one; a repr naming each field; equality by
value or by identity; and no assignment or deletion of attributes
(`object.__setattr__` still sets them, and `cached_property` writes to the
instance dict). As with `dataclass`, whether the class has a
`__post_init__` is settled when it is decorated, and the constructor then
looks the method up on the instance each time. The methods are closures over the field names,
so defining a record compiles no code: `dataclass` builds each class's
methods from source with `exec`, about a millisecond a class, in every
process that imports it.

No record inherits fields from another; a record's fields are its own
annotations.
"""

from __future__ import annotations

MISSING = object()


class Field:
    """A record field: its name, and its default or MISSING."""

    __slots__ = ("name", "default")

    def __init__(self, name: str, default):
        self.name = name
        self.default = default


def fields(cls_or_record) -> tuple[Field, ...]:
    """The fields of a record class or instance, in declaration order."""
    return cls_or_record.__record_fields__


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls=None, /, *, eq: bool = True):
    """Make `cls` a record (module docstring). With eq, records of one
    class are equal, and hash alike, when their field values are; without,
    equality and hash are identity."""
    if cls is None:
        return lambda c: record(c, eq=eq)

    spec = tuple(Field(name, cls.__dict__.get(name, MISSING))
                 for name in cls.__annotations__)
    names = tuple(f.name for f in spec)
    has_post_init = hasattr(cls, "__post_init__")
    set_field = object.__setattr__

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} "
                            f"positional arguments but {len(args)} were given")
        for name, value in zip(names, args):
            set_field(self, name, value)
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__qualname__}() got an unexpected "
                                f"keyword argument {name!r}")
            if names.index(name) < len(args):
                raise TypeError(f"{cls.__qualname__}() got multiple values "
                                f"for argument {name!r}")
            set_field(self, name, value)
        for f in spec[len(args):]:
            if f.name not in kwargs:
                if f.default is MISSING:
                    raise TypeError(f"{cls.__qualname__}() missing required "
                                    f"argument {f.name!r}")
                set_field(self, f.name, f.default)
        if has_post_init:
            self.__post_init__()

    def values(self) -> tuple:
        return tuple(getattr(self, name) for name in names)

    def __repr__(self):
        return (f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(names, values(self)))
            + ")")

    cls.__record_fields__ = spec
    cls.__init__ = __init__
    cls.__repr__ = __repr__
    if eq:
        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return values(self) == values(other)

        cls.__eq__ = __eq__
        cls.__hash__ = lambda self: hash(values(self))
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls
