"""The one YAML loader every input goes through, the one dumper every
output goes through, and the one shape check.

``load_file`` reads an input file's text once, and ``load_checked`` parses
text already in hand; both check the document against a schema built from
the kinds below, and ``check`` does the same for a document read some other
way, such as one JSON record.  A document that cannot be read at all (not
UTF-8 text, a YAML syntax error, nesting too deep, a bad tagged value) raises
``AutoRecipeError("unreadable <source>: <reason>")``.  The rules of the
check are the same for every file:

- a null value counts as an absent key, and a null document as an empty
  mapping;
- a record is closed: a key it does not name is a violation;
- a violation reads ``<source>: <path> must be <noun>, got <value>``, where
  the path is dotted, list positions count from 1, and the document itself
  is named by what it is meant to be.

Every violation found is raised at once, in one ``ValidationFailedError``.
The check only reads the document; a loader reads an absent optional key
as its default.

With libyaml, ``load_yaml`` builds a document straight from the parser's
events: mappings, sequences and scalars, each plain scalar resolved and
constructed as ``yaml.SafeLoader`` does it, once per distinct text, and
each scalar written with a null, bool, int, float, timestamp or str tag
constructed as that tag says.  Everything else goes to the composer route,
PyYAML's composer and ``SafeConstructor`` over the same parser, which reads
the document again from its start: an anchor or alias, any other tag, a
tag on a collection, a plain ``<<`` or ``=``, a collection used as a key, a
second document, nesting deeper than 64 levels, and every error.  So each
value, and each error message, is the composer route's.  Both routes parse
text, so a pipe is read once, like any other file, and the marks of an
error name the document's source.

``dump_yaml`` writes what ``yaml.safe_dump`` writes, in PyYAML's pure-Python
emitter, so written files do not depend on which parser PyYAML was built
with.  The one difference is a string holding U+0085 (NEL): a YAML reader
takes that character as a line break and folds it into a space in a plain
or single-quoted scalar, so such a string is written double-quoted, with
the character escaped as ``\\N``.
"""

from __future__ import annotations

import io
import reprlib
import sys

import yaml

from .errors import AutoRecipeError, ValidationFailedError

if yaml.__with_libyaml__:
    from yaml.composer import Composer
    from yaml.constructor import SafeConstructor
    from yaml.cyaml import CParser
    from yaml.events import (
        DocumentEndEvent,
        MappingEndEvent,
        MappingStartEvent,
        ScalarEvent,
        SequenceEndEvent,
        SequenceStartEvent,
        StreamEndEvent,
    )
    from yaml.nodes import ScalarNode
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

    _RESOLVER = Resolver()
    _CONSTRUCTOR = SafeConstructor()
    _STR = "tag:yaml.org,2002:str"
    # The other scalar tags the builder constructs itself, whether a plain
    # scalar resolves to one or it is written out ("!!int '3'", as safe_dump
    # writes with a quoting default_style).  The merge ("<<") and value ("=")
    # tags that plain scalars may resolve to are left to the composer route.
    _SCALARS = {
        tag: SafeConstructor.yaml_constructors[tag]
        for tag in (f"tag:yaml.org,2002:{kind}" for kind in ("null", "bool", "int", "float",
                                                              "timestamp"))
    }
    _MAX_DEPTH = 64
else:
    _Loader = yaml.SafeLoader


class _Unbuilt(Exception):
    """The document holds something only the composer route reads."""


_MISSING = object()


def _build(text: str):
    """The document in ``text``, built straight from libyaml's events.

    Raises ``_Unbuilt``, or whatever the parser or a constructor raises, on
    anything it does not read itself.
    """
    parser = CParser(text)
    try:
        get = parser.get_event
        get()  # stream start
        if type(get()) is StreamEndEvent:  # else a document start
            return None
        plain = {}  # text of a plain scalar -> its value
        stack = []  # open collections, innermost last
        keys = []  # for each, the key a mapping waits to store a value under
        while True:
            event = get()
            kind = type(event)
            if kind is ScalarEvent:
                if event.anchor is not None:
                    raise _Unbuilt
                text = event.value
                if event.tag is not None:
                    value = _scalar(event.tag, text)
                elif event.implicit[0]:
                    value = plain.get(text, _MISSING)
                    if value is _MISSING:
                        value = _scalar(_RESOLVER.resolve(ScalarNode, text, (True, False)), text)
                        if value == value:  # each .nan is its own object, as composed
                            plain[text] = value
                else:
                    value = text
            elif kind is MappingStartEvent or kind is SequenceStartEvent:
                # An anchor, a tag, nesting too deep, or a collection as a key.
                if (event.anchor is not None or event.tag is not None
                        or len(stack) == _MAX_DEPTH
                        or (stack and type(stack[-1]) is dict and keys[-1] is _MISSING)):
                    raise _Unbuilt
                stack.append({} if kind is MappingStartEvent else [])
                keys.append(_MISSING)
                continue
            elif kind is MappingEndEvent or kind is SequenceEndEvent:
                value = stack.pop()
                keys.pop()
            else:  # an alias
                raise _Unbuilt
            if not stack:
                break
            top = stack[-1]
            if type(top) is list:
                top.append(value)
            elif keys[-1] is _MISSING:
                keys[-1] = value
            else:
                top[keys[-1]] = value
                keys[-1] = _MISSING
        if type(get()) is not DocumentEndEvent or type(get()) is not StreamEndEvent:
            raise _Unbuilt  # a second document
        return value
    finally:
        parser.dispose()


def _scalar(tag: str, text: str):
    if tag == _STR:
        return text
    construct = _SCALARS.get(tag)
    if construct is None:
        raise _Unbuilt
    return construct(_CONSTRUCTOR, ScalarNode(tag, text))


def load_yaml(text: str, source):
    """The YAML document in ``text``, as ``yaml.safe_load`` builds it.

    Every failure raises ``AutoRecipeError("unreadable <source>: <reason>")``,
    where ``source`` is the file path or a description of the document: a
    syntax error, a document nested too deeply for the composer, text that
    UTF-8 cannot encode (a lone surrogate), or an explicitly tagged scalar
    that PyYAML cannot build (``!!int ""``, ``!!bool x``).
    """
    if yaml.__with_libyaml__:
        try:
            return _build(text)
        except (_Unbuilt, yaml.YAMLError, LookupError, AttributeError, TypeError, ValueError):
            pass
    return _compose(text, source)


def _compose(text: str, source):
    """``load_yaml`` through PyYAML's composer and constructor."""
    stream = io.StringIO(text)
    stream.name = source  # what the marks of an error name
    try:
        return yaml.load(stream, Loader=_Loader)
    except RecursionError:
        raise AutoRecipeError(f"unreadable {source}: nested too deeply") from None
    except yaml.YAMLError as exc:
        raise AutoRecipeError(f"unreadable {source}: {exc}") from exc
    except UnicodeEncodeError:
        # libyaml reads UTF-8, and a lone surrogate has none; the error
        # would quote the text.
        raise AutoRecipeError(f"unreadable {source}: text that UTF-8 cannot encode") from None
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


def load_checked(text: str, source, what: str, schema: Record) -> dict:
    """The YAML document in ``text``, through ``load_yaml`` and then ``check``."""
    return check(load_yaml(text, source), source, what, schema)


def load_file(path, what: str, schema: Record) -> dict:
    """The YAML file at ``path``, meant to be ``what``, through ``load_checked``.

    The file is read as UTF-8 text, once; the marks of a syntax error name it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise AutoRecipeError(f"unreadable {path}: not UTF-8 text") from None
    return load_checked(text, path, what, schema)
