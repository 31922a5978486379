"""Records: classes whose annotated class attributes are their fields.

``class Point(Struct): x: int; y: int = 0`` gets an ``__init__`` taking the
class's own annotated names in order, positionally or by keyword, with
their defaults, and calling ``__post_init__`` when the class has one.  A
default of ``fresh(make)`` is made anew by ``make()`` for each instance.
Two records are equal when they are of the same class and their fields are
equal; ``repr`` leaves out the fields whose names start with an underscore.
A record is frozen, and hashable over its fields.

This is the part of ``dataclasses.dataclass`` the package uses.  Each class
costs one small compiled ``__init__``, so that construction is as fast as a
dataclass's and its signature and argument errors are the same; every other
method is shared.  Importing it loads neither ``dataclasses`` nor
``inspect``.
"""

from __future__ import annotations

from reprlib import recursive_repr

__all__ = ["Struct", "fresh", "replace"]


class fresh:
    """A field default made anew for each instance by calling ``make()``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __repr__(self) -> str:
        return "<factory>"


class Struct:
    """Base of the package's records; see the module docstring."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        namespace = cls.__dict__
        # The field names, which dataclasses also sets as __match_args__.
        fields = cls.__match_args__ = tuple(namespace.get("__annotations__", ()))
        defaults, factories, lines = [], {}, ["_d = self.__dict__"]
        for name in fields:
            value = name
            if name in namespace:
                default = namespace[name]
                defaults.append(default)
                if isinstance(default, fresh):
                    factories[f"_{name}_default"] = default
                    value = f"_{name}_default.make() if {name} is _{name}_default else {name}"
                    delattr(cls, name)
            elif defaults:
                raise TypeError(f"{cls.__name__}: field {name!r} without a default "
                                "follows one with a default")
            lines.append(f"_d[{name!r}] = {value}")
        cls.__setattr__, cls.__delattr__, cls.__hash__ = _refuse_set, _refuse_delete, _hash
        if hasattr(cls, "__post_init__"):
            lines.append("self.__post_init__()")
        body = "".join(f"\n    {line}" for line in lines)
        exec(f"def __init__(self, {', '.join(fields)}):{body}", factories)
        init = factories["__init__"]
        init.__defaults__ = tuple(defaults)
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def __eq__(self, other):
        # A record's __dict__ holds its fields, in field order.
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    @recursive_repr()
    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__match_args__ if not name.startswith("_"))
        return f"{self.__class__.__qualname__}({shown})"


def _hash(self) -> int:
    return hash(tuple(self.__dict__.values()))


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def replace(record, /, **changes):
    """A copy of ``record`` with ``changes`` applied, built and checked as a new one."""
    values = {name: getattr(record, name) for name in record.__match_args__}
    values.update(changes)
    return record.__class__(**values)
