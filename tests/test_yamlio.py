"""The shared YAML loader: same objects as PyYAML's SafeLoader, depth errors as input errors."""

from __future__ import annotations

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from autorecipe import presets
from autorecipe._yamlio import load_mapping, load_yaml
from autorecipe.errors import AutoRecipeError, ValidationFailedError
from autorecipe.planning import Goal, generate_sequence_deterministic, serialize_sequence
from autorecipe.prompts import default_registry
from autorecipe.recipe import (
    _aggregation_to_mapping,
    _dump_yaml,
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
        _dump_yaml(_indicator_to_mapping(default_indicator_config(sensors))),
        _dump_yaml(_aggregation_to_mapping(default_aggregation_config(sensors))),
        _dump_yaml(_aggregation_to_mapping(default_aggregation_config(sensors, "ahp"))),
        _dump_yaml({"strict": True, "replies": ["Confidence: 90%", THREE_PART_DOC]}),
        "endpoint: https://e\nmodel: m\nmax_retries: 5\n",
        "",
        "# comment only\n",
    ]


_FIXTURES = _fixture_documents()


def _with_examples(test):
    for text in _FIXTURES:
        test = example(text=text)(test)
    return test


@settings(max_examples=400, deadline=None)
@given(text=_documents())
@_with_examples
def test_load_yaml_builds_what_the_safe_loader_builds(text):
    assert load_yaml(text, "doc") == yaml.load(text, Loader=yaml.SafeLoader)


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


def test_load_yaml_keeps_syntax_errors_as_yaml_errors():
    with pytest.raises(yaml.YAMLError):
        load_yaml("a: [1, 2\n", "broken.yaml")


@pytest.mark.parametrize("text", ["- a\n- b\n", "just text\n", "42\n"])
def test_load_mapping_rejects_other_documents_naming_the_source(text):
    with pytest.raises(ValidationFailedError) as info:
        load_mapping(text, "doc.yaml", "search script")
    assert info.value.violations == ["doc.yaml: search script must be a mapping"]
