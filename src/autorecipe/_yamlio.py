"""The one YAML loader every input goes through, the one dumper every
output goes through, and the one shape check.

``load_checked`` loads a document and checks it against a schema built
from the kinds below; ``check`` does the same for a document read some
other way, such as one JSON record.  The rules are the same for every file:

- a null value counts as an absent key, and a null document as an empty
  mapping;
- a record is closed: a key it does not name is a violation;
- a violation reads ``<source>: <path> must be <noun>, got <value>``, where
  the path is dotted, list positions count from 1, and the document itself
  is named by what it is meant to be.

Every violation found is raised at once, in one ``ValidationFailedError``.
The check only reads the document; a loader reads an absent optional key
as its default.

``dump_yaml`` writes what ``yaml.safe_dump`` writes, in PyYAML's pure-Python
emitter, so written files do not depend on which parser PyYAML was built
with.  The one difference is a string holding U+0085 (NEL): a YAML reader
takes that character as a line break and folds it into a space in a plain
or single-quoted scalar, so such a string is written double-quoted, with
the character escaped as ``\\N``.
"""

from __future__ import annotations

import reprlib
import sys

import yaml

from .errors import AutoRecipeError, ValidationFailedError

if yaml.__with_libyaml__:
    from yaml.composer import Composer
    from yaml.constructor import SafeConstructor
    from yaml.cyaml import CParser
    from yaml.resolver import Resolver

    class _Loader(Composer, CParser, SafeConstructor, Resolver):
        """libyaml's C scanner and parser under PyYAML's Python composer.

        Builds the same objects as ``yaml.SafeLoader``.  ``yaml.CSafeLoader``
        composes nodes by C recursion with no depth check, so a document of
        a few tens of thousands of nested brackets overflows the C stack;
        the Python composer raises RecursionError instead.
        """

        def __init__(self, stream):
            CParser.__init__(self, stream)
            Composer.__init__(self)
            SafeConstructor.__init__(self)
            Resolver.__init__(self)
else:
    _Loader = yaml.SafeLoader


def load_yaml(stream, source):
    """The document in ``stream`` (text, bytes or an open file), as ``yaml.safe_load``.

    A document nested too deeply for the composer, or an explicitly tagged
    scalar that PyYAML cannot build (``!!int ""``, ``!!bool x``), raises
    ``AutoRecipeError`` naming ``source``, the file path or a description
    of the document; other syntax errors stay ``yaml.YAMLError``.
    """
    try:
        return yaml.load(stream, Loader=_Loader)
    except RecursionError:
        raise AutoRecipeError(f"unreadable {source}: nested too deeply") from None
    except (LookupError, AttributeError, TypeError, ValueError) as exc:
        # SafeConstructor parses tagged scalars without checking them first.
        raise AutoRecipeError(f"unreadable {source}: bad tagged value ({exc!r})") from exc


class _Dumper(yaml.SafeDumper):
    def represent_str(self, data):
        if "\x85" in data:
            return self.represent_scalar("tag:yaml.org,2002:str", data, style='"')
        return super().represent_str(data)


_Dumper.add_representer(str, _Dumper.represent_str)


def dump_yaml(data) -> str:
    """``data`` as YAML text, keys in insertion order, any string read back unchanged."""
    return yaml.dump(data, Dumper=_Dumper, sort_keys=False, allow_unicode=True)


# --- schemas ---------------------------------------------------------------------
#
# Each kind appends (where, noun, value) to ``found`` for every place a value
# does not fit it.  ``path`` starts with the document's name, which stands in
# for the path only where the path is empty.

def _where(path: tuple) -> str:
    return ".".join(map(str, path[1:])) or path[0]


class _Kind:
    """Values of ``types``, called ``noun`` in a violation."""

    def __init__(self, noun: str, *types: type):
        self.noun, self.types = noun, types

    def check(self, value, path, found) -> None:
        # bool is a subclass of int, so only a bool kind takes true and false.
        if isinstance(value, self.types) and (bool in self.types or not isinstance(value, bool)):
            self.check_inside(value, path, found)
        else:
            found.append((_where(path), self.noun, value))

    def check_inside(self, value, path, found) -> None:
        """Checks the parts of a value of the right type; a scalar has none."""


class _Number(_Kind):
    def check_inside(self, value, path, found) -> None:
        # Every number is read as a float, which an int this large overflows.
        if type(value) is int and abs(value) > sys.float_info.max:
            found.append((_where(path), self.noun, value))


TEXT = _Kind("a string", str)
BOOL = _Kind("true or false", bool)
INT = _Kind("an integer", int)
NUMBER = _Number("a number", int, float)


class ListOf(_Kind):
    def __init__(self, item: _Kind):
        super().__init__("a list", list)
        self.item = item

    def check_inside(self, value, path, found) -> None:
        for position, item in enumerate(value, start=1):
            self.item.check(item, (*path, position), found)


class MapOf(_Kind):
    def __init__(self, key: _Kind, value: _Kind):
        super().__init__("a mapping", dict)
        self.key, self.value = key, value

    def check_inside(self, value, path, found) -> None:
        for key, item in value.items():
            self.key.check(key, (*path[:-1], f"{path[-1]} key"), found)
            self.value.check(item, (*path, key), found)


class Record(_Kind):
    """A mapping with fixed keys; ``required`` and ``optional`` map each key to its kind."""

    def __init__(self, required=None, optional=None):
        super().__init__("a mapping", dict)
        self.required = dict(required or {})
        self.fields = {**self.required, **(optional or {})}

    def check_inside(self, value, path, found) -> None:
        for key, item in value.items():
            if key not in self.fields:
                found.append((f"{_where(path)} key", "one of " + ", ".join(self.fields), key))
            elif item is not None:
                self.fields[key].check(item, (*path, key), found)
        for key, kind in self.required.items():
            if value.get(key) is None:
                found.append((_where((*path, key)), kind.noun, None))


# A violation can quote a whole document or a huge number, so values are
# shortened.
_brief = reprlib.Repr()
_brief.maxstring = _brief.maxother = 60


def check(doc, source, what: str, schema: Record) -> dict:
    """``doc``, read from ``source`` and meant to be ``what``, once it fits ``schema``.

    A null document is an empty mapping.  Raises ``ValidationFailedError``
    listing every violation.
    """
    doc = {} if doc is None else doc
    found: list[tuple[str, str, object]] = []
    schema.check(doc, (what,), found)
    if found:
        raise ValidationFailedError([
            f"{source}: {where} must be {noun}, got {_brief.repr(value)}"
            for where, noun, value in found
        ])
    return doc


def load_checked(stream, source, what: str, schema: Record) -> dict:
    """The YAML document in ``stream``, through ``load_yaml`` and then ``check``."""
    return check(load_yaml(stream, source), source, what, schema)
