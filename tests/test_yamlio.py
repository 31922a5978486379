"""The shared YAML loader and shape check.

The loader builds the same objects as PyYAML's SafeLoader and reports depth
errors as input errors.  The check applies the same three rules to every
input file: unknown keys are violations, null is an absent key, and each
violation names the file, the path and what was found.
"""

from __future__ import annotations

import contextlib
import os

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from autorecipe import _yamlio, cli, presets
from autorecipe._yamlio import (
    BOOL,
    INT,
    NUMBER,
    TEXT,
    ListOf,
    MapOf,
    Record,
    check,
    dump_yaml,
    load_checked,
    load_yaml,
)
from autorecipe.errors import AutoRecipeError, ValidationFailedError
from autorecipe.planning import Goal, generate_sequence_deterministic, serialize_sequence
from autorecipe.prompts import default_registry
from autorecipe.recipe import (
    _aggregation_to_mapping,
    _indicator_to_mapping,
    default_aggregation_config,
    default_indicator_config,
)
from autorecipe.taxonomy import parse_taxonomy
from conftest import THREE_PART_DOC

# Scalars a YAML writer has to quote or fold: unicode, line breaks, quotes,
# leading indicators, and strings that would otherwise resolve to other types.
_TEXT = st.one_of(
    st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=30),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",), whitelist_characters="\n\t"),
            max_size=30),
    st.sampled_from(["", " ", "yes", "null", "~", "1e3", "0x1f", "2024-01-01", "- item",
                     "a: b", "#x", "'q'", '"dq"', "line 1\nline 2\n", "trailing \n\n",
                     "é ü 中文 🙂", "\\", "%d", "@", "`", "!tag", "&a *a", "? k"]),
)
_NUMBER = st.one_of(st.integers(-10**6, 10**6),
                    st.floats(allow_nan=False, allow_infinity=False, width=64))


def _script_docs():
    return st.fixed_dictionaries({
        "strict": st.booleans(),
        "replies": st.lists(_TEXT, max_size=5),
        "by_key": st.dictionaries(st.text("0123456789abcdef", min_size=64, max_size=64),
                                  _TEXT, max_size=3),
        "default": st.one_of(st.none(), _TEXT),
    })


def _search_docs():
    hit = st.fixed_dictionaries({"url": _TEXT, "text": _TEXT, "error": _TEXT})
    return st.fixed_dictionaries({
        "strict": st.booleans(),
        "queries": st.dictionaries(_TEXT, st.lists(hit, max_size=3), max_size=3),
    })


def _nli_docs():
    pair = st.fixed_dictionaries({"premise": _TEXT, "hypothesis": _TEXT,
                                  "entailed": st.booleans()})
    return st.fixed_dictionaries({"strict": st.booleans(), "pairs": st.lists(pair, max_size=4)})


def _config_docs():
    bounds = st.fixed_dictionaries({"min": _NUMBER, "max": _NUMBER})
    sensor = st.fixed_dictionaries({
        "name": _TEXT, "unit": _TEXT,
        "ranges": st.fixed_dictionaries({c: bounds for c in ("poor", "medium", "good",
                                                              "excellent")}),
    })
    indicator = st.fixed_dictionaries({"sensors": st.lists(sensor, max_size=3)})
    aggregation = st.fixed_dictionaries({
        "method": st.sampled_from(["weighted", "ahp"]),
        "category_scores": st.dictionaries(_TEXT, _NUMBER, max_size=4),
        "weights": st.dictionaries(_TEXT, _NUMBER, max_size=3),
        "sensors": st.lists(_TEXT, max_size=3),
        "pairwise": st.lists(st.lists(_NUMBER, max_size=3), max_size=3),
    })
    gateway = st.fixed_dictionaries({
        "endpoint": _TEXT, "model": _TEXT, "timeout_seconds": _NUMBER,
        "max_retries": st.integers(0, 10), "max_parallel": st.integers(1, 8),
    })
    return st.one_of(indicator, aggregation, gateway)


def _plan_docs():
    step = st.fixed_dictionaries({
        "index": st.integers(1, 20),
        "kind": st.sampled_from(["question", "code", "export"]),
        "body": _TEXT,
    })
    goal = st.fixed_dictionaries({"kpi": _TEXT, "target_node": _TEXT,
                                  "method_phrase": _TEXT, "text": _TEXT})
    return st.fixed_dictionaries({
        "steps": st.lists(step, max_size=4),
        "execution_order": _TEXT,
        "goal": goal,
        "bindings": st.dictionaries(_TEXT, _TEXT, max_size=3),
    })


@st.composite
def _documents(draw):
    """Documents of the input shapes, written by safe_dump in any of its styles."""
    data = draw(st.one_of(_script_docs(), _search_docs(), _nli_docs(), _config_docs(),
                          _plan_docs()))
    return yaml.safe_dump(
        data,
        sort_keys=draw(st.booleans()),
        allow_unicode=draw(st.booleans()),
        default_flow_style=draw(st.sampled_from([False, True, None])),
        default_style=draw(st.sampled_from([None, '"', "'", "|", ">"])),
        width=draw(st.sampled_from([20, 80, 10_000])),
    )


def _fixture_documents() -> list[str]:
    health = parse_taxonomy(presets.ASSET_HEALTH_TAXONOMY)
    goal = Goal(kpi="asset health", target_node="asset profile")
    sensors = ["vibration", "winding temperature"]
    return [
        presets.ASSET_HEALTH_TAXONOMY,
        presets.ASSET_SUSTAINABILITY_TAXONOMY,
        serialize_sequence(generate_sequence_deterministic(health, goal)),
        yaml.safe_dump(
            {"templates": [{"id": t.id, "role": t.role, "body": t.body}
                           for t in default_registry().templates.values()]},
            sort_keys=False, allow_unicode=True,
        ),
        dump_yaml(_indicator_to_mapping(default_indicator_config(sensors))),
        dump_yaml(_aggregation_to_mapping(default_aggregation_config(sensors))),
        dump_yaml(_aggregation_to_mapping(default_aggregation_config(sensors, "ahp"))),
        dump_yaml({"strict": True, "replies": ["Confidence: 90%", THREE_PART_DOC]}),
        "endpoint: https://e\nmodel: m\nmax_retries: 5\n",
        "",
        "# comment only\n",
    ]


_FIXTURES = _fixture_documents()


def _with_examples(test):
    for text in _FIXTURES:
        test = example(text=text)(test)
    return test


@contextlib.contextmanager
def _composer_calls():
    """The sources ``load_yaml`` hands to the composer route meanwhile
    (hypothesis tests take no monkeypatch fixture)."""
    calls = []
    compose = _yamlio._compose

    def spy(stream, source):
        calls.append(source)
        return compose(stream, source)

    _yamlio._compose = spy
    try:
        yield calls
    finally:
        _yamlio._compose = compose


@settings(max_examples=400, deadline=None)
@given(text=_documents())
@_with_examples
def test_load_yaml_builds_what_the_safe_loader_builds(text):
    with _composer_calls() as calls:
        assert load_yaml(text, "doc") == yaml.load(text, Loader=yaml.SafeLoader)
    # Every document of the input shapes is built from events, not composed.
    assert calls == ([] if yaml.__with_libyaml__ else ["doc"])


# Top-level entries that only the composer route reads, some of them errors.
_UNBUILT = [
    "a: &x [1, {b: 2}]\nc: *x\n",
    "base: &b {k: 1, j: 0}\nm:\n  <<: *b\n  j: 2\n",
    "m: {<<: {k: 1}, j: 2}\n",
    "m: {<<: [{k: 1}, {k: 2}]}\n",
    "v: =\n",
    "t: !!binary aGVsbG8=\n",
    "t: !!set {a, b}\n",
    "t: !!omap [{a: 1}, {b: 2}]\n",
    "t: ! 12\n",
    "t: !!bool x\n",
    "t: !!int ''\n",
    "? {a: 1}\n: v\n",
    "? [a, b]\n: v\n",
    "{[1]: x}: y\n",
    "d: 2024-02-30\n",
    "d: 2024-02-30\ne: [unclosed\n",
    "first: 1\n---\nsecond: document\n",
    "first: 1\n...\n---\n- x\n",
    "t: !!str [a]\n",
]


@st.composite
def _unbuilt_documents(draw):
    """Plain entries around at least one entry the builder leaves to the composer."""
    plain = st.sampled_from(["kpi: health\n", "n: [1, 2.5, ~, yes, 2024-01-01]\n",
                             "s: 'quoted'\n", "f: {x: y}\n"])
    entries = draw(st.lists(plain, max_size=2))
    depth = draw(st.integers(90, 400))
    unbuilt = draw(st.one_of(st.sampled_from(_UNBUILT),
                             st.just(f"deep: {'[' * depth}{']' * depth}\n")))
    entries.insert(draw(st.integers(0, len(entries))), unbuilt)
    return "".join(entries)


def _value_or_message(load):
    try:
        return load()
    except AutoRecipeError as exc:
        return f"error: {exc}"


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@settings(max_examples=200, deadline=None)
@given(text=_unbuilt_documents())
def test_load_yaml_composes_what_it_does_not_build(text):
    with _composer_calls() as calls:
        got = _value_or_message(lambda: load_yaml(text, "doc"))
    assert calls == ["doc"]
    # The value, or the error message, of the composer route on its own.
    assert got == _value_or_message(lambda: _yamlio._compose(text, "doc"))
    if not str(got).startswith("error: "):
        try:
            expected = yaml.load(text, Loader=yaml.SafeLoader)
        except RecursionError:  # the pure-Python parser may need a few more frames
            return
        assert got == expected


def test_load_yaml_reads_an_open_file_again_for_the_composer(tmp_path):
    path = tmp_path / "doc.yaml"
    path.write_text("a: &x 1\nb: *x\n", encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        assert load_yaml(fh, str(path)) == {"a": 1, "b": 1}
    path.write_text("a: 1\nb: [2\n", encoding="utf-8")
    with open(path, encoding="utf-8") as fh, pytest.raises(AutoRecipeError) as info:
        load_yaml(fh, str(path))
    # The composer route read the file from its start: its marks name the file.
    assert f'in "{path}", line 3' in str(info.value)


@pytest.mark.parametrize("text", ["a: 1\nb: [x, 2.5]\n", "a: &x 1\nb: *x\n"])
def test_load_yaml_reads_a_pipe_once(text):
    # A pipe cannot be read twice, so it goes straight to the composer route.
    read_end, write_end = os.pipe()
    with open(write_end, "w", encoding="utf-8") as out:
        out.write(text)
    with open(read_end, encoding="utf-8") as fh:
        assert load_yaml(fh, "pipe") == yaml.safe_load(text)


def test_load_yaml_reads_open_files_as_text(tmp_path):
    path = tmp_path / "doc.yaml"
    path.write_text(_FIXTURES[0], encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        assert load_yaml(fh, str(path)) == yaml.safe_load(_FIXTURES[0])


def test_load_yaml_deep_nesting_names_the_source():
    with pytest.raises(AutoRecipeError, match="^unreadable deep.yaml: nested too deeply$"):
        load_yaml("[" * 3000 + "]" * 3000, "deep.yaml")


@pytest.mark.parametrize("text", ['!!int ""\n', "!!bool x\n", "!!timestamp x\n",
                                  "!!timestamp 2024-02-30\n", "kpi: !!float x\n"])
def test_load_yaml_bad_tagged_scalar_names_the_source(text):
    with pytest.raises(AutoRecipeError, match="^unreadable doc.yaml: bad tagged value"):
        load_yaml(text, "doc.yaml")


def test_load_yaml_syntax_error_names_the_source():
    with pytest.raises(AutoRecipeError, match="^unreadable broken.yaml: while parsing"):
        load_yaml("a: [1, 2\n", "broken.yaml")


@pytest.mark.parametrize("text", ["- a\n- b\n", "just text\n", "42\n"])
def test_load_checked_rejects_other_documents_naming_the_source(text):
    with pytest.raises(ValidationFailedError) as info:
        load_checked(text, "doc.yaml", "search script", Record())
    got = repr(yaml.safe_load(text))
    assert info.value.violations == [f"doc.yaml: search script must be a mapping, got {got}"]


_ALL_KINDS = Record(
    required={"name": TEXT},
    optional={"on": BOOL, "count": INT, "size": NUMBER,
              "tags": ListOf(TEXT), "weights": MapOf(TEXT, NUMBER)},
)


def test_check_reports_every_violation_with_its_path():
    doc = {"on": 1, "count": True, "size": "2", "tags": ["a", 3],
           "weights": {"x": 1, 5: 2.5, "y": False}, "colour": "red"}
    with pytest.raises(ValidationFailedError) as info:
        check(doc, "f.yaml", "doc", _ALL_KINDS)
    assert info.value.violations == [
        "f.yaml: on must be true or false, got 1",
        "f.yaml: count must be an integer, got True",
        "f.yaml: size must be a number, got '2'",
        "f.yaml: tags.2 must be a string, got 3",
        "f.yaml: weights key must be a string, got 5",
        "f.yaml: weights.y must be a number, got False",
        "f.yaml: doc key must be one of name, on, count, size, tags, weights, got 'colour'",
        "f.yaml: name must be a string, got None",
    ]


def test_check_takes_null_as_absent_and_returns_the_document_unchanged():
    doc = {"name": "n", "on": None, "size": 2, "tags": None}
    assert check(doc, "f.yaml", "doc", _ALL_KINDS) is doc
    assert check(None, "f.yaml", "doc", Record()) == {}
    with pytest.raises(ValidationFailedError, match="name must be a string, got None"):
        check({"name": None}, "f.yaml", "doc", _ALL_KINDS)


def test_check_shortens_long_values_and_rejects_ints_too_large_for_a_float():
    with pytest.raises(ValidationFailedError) as info:
        check({"name": "n", "size": 10**400, "tags": "x" * 500}, "f.yaml", "doc", _ALL_KINDS)
    size, tags = info.value.violations
    assert size.startswith("f.yaml: size must be a number, got 1000")
    assert tags.startswith("f.yaml: tags must be a list, got 'xxx")
    assert len(size) < 120 and len(tags) < 120
    assert check({"name": "n", "size": 10**300}, "f.yaml", "doc", _ALL_KINDS)


# --- the rules that changed when every loader took the one check ------------------

def test_unknown_keys_are_rejected_in_every_file(tmp_path, capsys):
    # A misspelt key used to be ignored: the script below ran with an empty
    # queue and failed at the first gateway call (exit 3).
    script = tmp_path / "script.yaml"
    script.write_text("repiles:\n  - A motor.\n", encoding="utf-8")
    taxonomy = tmp_path / "taxonomy.yaml"
    taxonomy.write_text(presets.ASSET_HEALTH_TAXONOMY, encoding="utf-8")
    rc = cli.main(["plan", "--taxonomy", str(taxonomy), "--kpi", "asset health",
                   "--script", str(script)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: validation failed:\n- {script}: script key must be one of replies, by_key, "
        "strict, default, got 'repiles'\n"
    )
    with pytest.raises(ValidationFailedError, match=(
        "^validation failed:\n- taxonomy document: edges.1 key must be one of parent, "
        "relation, child, got 'label'$"
    )):
        parse_taxonomy("kpi: a\nedges:\n  - {parent: a, relation: has, child: b, label: x}\n")
    search = tmp_path / "search.yaml"
    search.write_text("quries: {}\n", encoding="utf-8")
    from autorecipe.references import ScriptedSearchClient

    with pytest.raises(ValidationFailedError) as info:
        ScriptedSearchClient.from_file(search)
    assert info.value.violations == [
        f"{search}: search script key must be one of queries, strict, got 'quries'"
    ]


def test_configs_need_real_numbers(tmp_path):
    from autorecipe.recipe import load_aggregation_config, load_indicator_config

    indicator = tmp_path / "indicator.yaml"
    indicator.write_text("sensors:\n  - name: v\n    unit: percent\n"
                         "    ranges: {poor: {min: '0.5', max: 1}}\n", encoding="utf-8")
    with pytest.raises(ValidationFailedError) as info:
        load_indicator_config(indicator)
    assert info.value.violations == [
        f"{indicator}: sensors.1.ranges.poor.min must be a number, got '0.5'"
    ]
    aggregation = tmp_path / "aggregation.yaml"
    aggregation.write_text("method: weighted\nweights: {v: true}\n", encoding="utf-8")
    with pytest.raises(ValidationFailedError) as info:
        load_aggregation_config(aggregation)
    assert info.value.violations == [f"{aggregation}: weights.v must be a number, got True"]


@pytest.mark.parametrize("label, got", [
    ("0x10", "16"), ("yes", "True"), ("1_000", "1000"), ("[a, b]", "['a', 'b']"),
])
def test_taxonomy_labels_must_be_yaml_strings(label, got):
    # str() used to turn these into the nodes "16", "True", "1000" and "['a', 'b']".
    text = f"kpi: a\nedges:\n  - {{parent: a, relation: has, child: {label}}}\n"
    with pytest.raises(ValidationFailedError) as info:
        parse_taxonomy(text)
    assert info.value.violations == [
        f"taxonomy document: edges.1.child must be a string, got {got}"
    ]


def test_null_is_absent_for_every_optional_key(tmp_path):
    from autorecipe.gateway import ScriptedGateway
    from autorecipe.references import ScriptedNliClient, ScriptedSearchClient

    script = tmp_path / "script.yaml"
    script.write_text("strict: ~\nreplies: ~\ndefault: ~\nby_key: ~\n", encoding="utf-8")
    gateway = ScriptedGateway.from_file(script)
    assert (gateway.strict, gateway.default, gateway.by_key) == (True, None, {})
    search = tmp_path / "search.yaml"
    search.write_text("strict: ~\nqueries: ~\n", encoding="utf-8")
    client = ScriptedSearchClient.from_file(search)
    assert (client.strict, client.results) == (True, {})
    nli = tmp_path / "nli.yaml"
    nli.write_text("strict: ~\npairs:\n  - {premise: p, hypothesis: h, entailed: ~}\n",
                   encoding="utf-8")
    judge = ScriptedNliClient.from_file(nli)
    assert (judge.strict, judge.pairs) == (False, {("p", "h"): False})

