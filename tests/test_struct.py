"""The package's records behave as the dataclasses they replaced.

Each record class is built again as a ``dataclasses.dataclass`` twin with the
same fields, defaults and ``__post_init__``, declared frozen, with
``Taxonomy._children`` hidden from ``repr``.  For random field values the record and
its twin must construct alike, fail alike and give the same ``repr``,
equality, hash, ``replace`` and attribute assignment.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autorecipe._struct import Struct, fresh, replace

MODULES = ("execution", "gateway", "metrics", "planning", "prompts", "recipe", "references",
           "refinement", "scoring", "taxonomy")
HIDDEN = {("Taxonomy", "_children")}

RECORDS = sorted(
    (value for name in MODULES
     for value in vars(importlib.import_module(f"autorecipe.{name}")).values()
     if isinstance(value, type) and issubclass(value, Struct)
     and value.__module__ == f"autorecipe.{name}"),
    key=lambda cls: cls.__name__,
)


def _twin(cls):
    """The dataclass that ``cls`` was: same name, fields, defaults and checks."""
    defaults = dict(zip(reversed(cls.__match_args__), reversed(cls.__init__.__defaults__ or ())))
    specs = []
    for name, kind in cls.__annotations__.items():
        options = {"repr": (cls.__name__, name) not in HIDDEN}
        if isinstance(defaults.get(name), fresh):
            options["default_factory"] = defaults[name].make
        elif name in defaults:
            options["default"] = defaults[name]
        specs.append((name, kind, dataclasses.field(**options)))
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, specs, namespace=namespace, frozen=True)


TWINS = {cls: _twin(cls) for cls in RECORDS}

# dataclasses' own __eq__ treats a NaN field differently across Python
# versions (a tuple comparison up to 3.12, field by field from 3.13), so no
# value here is NaN.  The words make the checked records valid now and then.
VALUES = st.one_of(
    st.sampled_from(["system", "user", "assistant", "question", "code", "export", "", " ",
                     0, 1, 2, 0.5, -1, math.inf, (), None]),
    st.integers(-2, 5),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.tuples(st.integers(0, 2)),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(0, 1), max_size=2),
)


def _outcome(action):
    """What ``action()`` returns, or the kind and text of what it raises; a
    ``FrozenInstanceError`` counts as the ``AttributeError`` it subclasses."""
    try:
        return "returned", action()
    except (TypeError, ValueError, AttributeError) as exc:
        kind = next(k for k in (TypeError, ValueError, AttributeError) if isinstance(exc, k))
        return kind.__name__, str(exc)


def _arguments(data, names):
    """Positional and keyword arguments: either a well-formed call that may
    leave out any field, or one that may repeat, misname or overrun them."""
    if data.draw(st.booleans()):
        count = data.draw(st.integers(0, len(names)))
        keywords = [name for name in names[count:] if data.draw(st.booleans())]
    else:
        count = data.draw(st.integers(0, len(names) + 1))
        keywords = data.draw(st.lists(st.sampled_from([*names, "bogus"]), unique=True))
    return ([data.draw(VALUES) for _ in range(count)],
            {name: data.draw(VALUES) for name in keywords})


def _both(cls, args, kwargs):
    """Each of the record and its twin built from the same arguments."""
    return (_outcome(lambda: cls(*args, **kwargs)),
            _outcome(lambda: TWINS[cls](*args, **kwargs)))


def test_every_record_class_has_a_twin():
    assert len(RECORDS) == 27
    assert {name for name, _ in HIDDEN} <= {cls.__name__ for cls in RECORDS}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_signature_matches_the_dataclass(cls):
    def parameters(target):
        return [(p.name, p.kind, repr(p.default))
                for p in inspect.signature(target).parameters.values()]

    assert parameters(cls) == parameters(TWINS[cls])
    assert cls.__match_args__ == TWINS[cls].__match_args__


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_record_behaves_as_its_dataclass_twin(cls, data):
    names = cls.__match_args__
    args, kwargs = _arguments(data, names)
    built, twin_built = _both(cls, args, kwargs)
    assert built[0] == twin_built[0]
    if built[0] != "returned":
        assert built == twin_built
        return
    record, twin = built[1], twin_built[1]
    assert repr(record) == repr(twin)
    assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(twin))

    # Equal to a record built from the same arguments, sharing every value
    # passed and none made by a default factory.
    again, twin_again = cls(*args, **kwargs), TWINS[cls](*args, **kwargs)
    assert (record == again, record != again) == (twin == twin_again, twin != twin_again)
    assert ([getattr(record, name) is getattr(again, name) for name in names]
            == [getattr(twin, name) is getattr(twin_again, name) for name in names])
    other, twin_other = _both(cls, *_arguments(data, names))
    if other[0] == twin_other[0] == "returned":
        other, twin_other = other[1], twin_other[1]
        assert (record == other, record != other) == (twin == twin_other, twin != twin_other)
    assert record != twin and twin != record

    changes = {name: data.draw(VALUES)
               for name in data.draw(st.lists(st.sampled_from([*names, "bogus"]), unique=True))}
    assert (_outcome(lambda: repr(replace(record, **changes)))
            == _outcome(lambda: repr(dataclasses.replace(twin, **changes))))

    # Every assignment and deletion is refused.
    name, value = data.draw(st.sampled_from([*names, "other"])), data.draw(VALUES)
    assert (_outcome(lambda: setattr(record, name, value))
            == _outcome(lambda: setattr(twin, name, value)))
    assert _outcome(lambda: delattr(record, name)) == _outcome(lambda: delattr(twin, name))
    assert _outcome(lambda: repr(record)) == _outcome(lambda: repr(twin))


SAME_FIELDS = [(a, b) for a in RECORDS for b in RECORDS
               if a is not b and a.__match_args__ == b.__match_args__]


def test_some_record_classes_share_their_fields():
    assert {(a.__name__, b.__name__) for a, b in SAME_FIELDS} >= {("Conjunction", "Disjunction")}


@pytest.mark.parametrize("pair", SAME_FIELDS, ids=lambda pair: f"{pair[0].__name__}-"
                                                              f"{pair[1].__name__}")
@given(data=st.data())
def test_records_of_different_classes_never_compare_equal(pair, data):
    a, b = pair
    values = [data.draw(VALUES) for _ in a.__match_args__]
    assert (a(*values) == b(*values), a(*values) != b(*values)) == (
        TWINS[a](*values) == TWINS[b](*values), TWINS[a](*values) != TWINS[b](*values))
    assert a(*values) != b(*values)
