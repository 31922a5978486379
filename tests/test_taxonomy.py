from __future__ import annotations

import contextlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from autorecipe import _yamlio, presets, taxonomy
from autorecipe.errors import AutoRecipeError, CycleDetectedError, MultipleRootsError
from autorecipe.taxonomy import (
    descendant_mentions,
    normalize_name,
    parse_taxonomy,
    render_statements,
    traverse_top_down,
)

SMALL = """\
kpi: asset health
edges:
  - {parent: asset health, relation: analyzed, child: component quality}
  - {parent: component quality, relation: measured, child: vibration sensor}
"""


def test_normalize_name_collapses_case_and_whitespace():
    assert normalize_name("  Asset\t Health ") == "asset health"
    assert normalize_name("ASSET HEALTH") == normalize_name("asset health")


def test_parse_small_document():
    tax = parse_taxonomy(SMALL)
    assert tax.root == "asset health"
    assert tax.root_label == "asset health"
    assert len(tax.nodes) == 3
    assert tax.children("asset health") == ("component quality",)
    assert tax.children("vibration sensor") == ()


def test_node_identity_is_case_insensitive():
    text = SMALL.replace("component quality, relation: measured", "Component  QUALITY, relation: measured")
    tax = parse_taxonomy(text)
    assert len(tax.nodes) == 3
    # first-seen spelling wins for display
    assert tax.nodes[tax.node_id("COMPONENT QUALITY")].label == "component quality"


def test_empty_documents_rejected():
    with pytest.raises(AutoRecipeError, match="^taxonomy document is empty$"):
        parse_taxonomy("")
    with pytest.raises(AutoRecipeError, match="^taxonomy document is empty$"):
        parse_taxonomy("   \n \n")
    with pytest.raises(AutoRecipeError, match="^taxonomy document declares no kpi root$"):
        parse_taxonomy("edges: []\n")
    with pytest.raises(AutoRecipeError, match="^unreadable taxonomy document: "):
        parse_taxonomy("kpi: {broken\n")


def test_edge_records_must_be_complete():
    with pytest.raises(AutoRecipeError, match="^edge 1 has no relation$"):
        parse_taxonomy("kpi: a\nedges:\n  - {parent: a, child: b}\n")
    with pytest.raises(AutoRecipeError, match="^edge 1 has no child$"):
        parse_taxonomy("kpi: a\nedges:\n  - {parent: a, relation: has}\n")


def test_cycle_detection_names_the_cycle():
    text = """\
kpi: a
edges:
  - {parent: a, relation: has, child: b}
  - {parent: b, relation: has, child: c}
  - {parent: c, relation: has, child: b}
"""
    with pytest.raises(CycleDetectedError) as excinfo:
        parse_taxonomy(text)
    cycle = excinfo.value.cycle
    assert cycle[0] == cycle[-1]
    assert set(cycle) == {"b", "c"}


def test_self_loop_is_a_cycle():
    with pytest.raises(CycleDetectedError):
        parse_taxonomy("kpi: a\nedges:\n  - {parent: a, relation: has, child: a}\n")


def test_multiple_roots_rejected():
    text = """\
kpi: a
edges:
  - {parent: a, relation: has, child: b}
  - {parent: x, relation: has, child: y}
"""
    with pytest.raises(MultipleRootsError, match="^multiple root candidates: a, x$"):
        parse_taxonomy(text)


def test_unreachable_island_rejected():
    # b and c point at each other's subtree but never connect to the root
    text = """\
kpi: a
edges:
  - {parent: a, relation: has, child: a2}
  - {parent: b, relation: has, child: c}
"""
    with pytest.raises(MultipleRootsError, match="^multiple root candidates: a, b$"):
        parse_taxonomy(text)


def test_shared_subtree_allowed():
    text = """\
kpi: a
edges:
  - {parent: a, relation: has, child: b}
  - {parent: a, relation: has, child: c}
  - {parent: b, relation: has, child: shared}
  - {parent: c, relation: has, child: shared}
"""
    tax = parse_taxonomy(text)
    assert len(tax.nodes) == 4
    assert traverse_top_down(tax, "a") == ["a", "b", "shared", "c"]


def test_builtin_taxonomy_sizes(health_tax, sustainability_tax):
    assert len(health_tax.nodes) == 18
    assert len(sustainability_tax.nodes) == 11
    assert health_tax.root_label == "asset health"
    assert sustainability_tax.root_label == "asset sustainability"


def test_render_statements(health_tax):
    lines = render_statements(health_tax)
    assert lines[0] == "asset health is root node"
    assert lines[1] == "asset health is analyzed by component quality"
    assert "mechanical issue is measured by on-demand inspection" in lines
    assert len(lines) == 1 + len(health_tax.edges)


def test_kinds_derived_from_leaf_relations(health_tax):
    assert health_tax.kind("asset health") == "kpi-root"
    assert health_tax.kind("component quality") == "factor"
    # leaves under measured/recorded/sampled/source relations
    assert health_tax.kind("on-demand inspection") == "measurement"
    assert health_tax.kind("age") == "measurement"
    assert health_tax.kind("repair history") == "measurement"
    assert health_tax.kind("insulation") == "measurement"


def test_interior_node_never_measurement(sustainability_tax):
    assert sustainability_tax.kind("greenhouse impact") == "factor"
    assert sustainability_tax.kind("co2-equivalent emissions") == "measurement"
    assert sustainability_tax.kind("non-renewable resources") == "factor"


def test_traverse_preorder(health_tax):
    assert traverse_top_down(health_tax, "component quality") == [
        "component quality",
        "mechanical issue",
        "on-demand inspection",
        "continuous sensors",
        "periodic chemical sampling",
        "electrical issue",
        "insulation",
        "thermal health issue",
        "chemical health issue",
    ]


def test_traverse_unknown_start(health_tax):
    with pytest.raises(AutoRecipeError, match="^unknown node: 'no such node'$"):
        traverse_top_down(health_tax, "no such node")


def test_descendant_mentions(health_tax):
    assert descendant_mentions(health_tax, "component quality", "sensor") is True
    assert descendant_mentions(health_tax, "asset profile", "sensor") is False
    # strict descendants only: the start node's own label never counts
    assert descendant_mentions(health_tax, "continuous sensors", "sensor") is False
    assert descendant_mentions(health_tax, "component quality", "SENSOR") is True


def test_descendant_mentions_matches_brute_force(health_tax, sustainability_tax):
    for tax in (health_tax, sustainability_tax):
        for nid in tax.nodes:
            expected = any(
                "sensor" in label.casefold()
                for label in traverse_top_down(tax, nid)[1:]
            )
            assert descendant_mentions(tax, nid, "sensor") is expected


def test_random_trees_round_trip_and_traverse_once():
    rng = random.Random(20240814)
    for _ in range(25):
        n = rng.randint(2, 12)
        lines = ["kpi: n0", "edges:"]
        for i in range(1, n):
            parent = rng.randrange(i)
            lines.append(f"  - {{parent: n{parent}, relation: has, child: n{i}}}")
        tax = parse_taxonomy("\n".join(lines) + "\n")
        assert len(tax.nodes) == n
        order = traverse_top_down(tax, "n0")
        assert len(order) == len(set(order)) == n


# --- loaders ----------------------------------------------------------------------

# The shared input loader (libyaml-backed when PyYAML has it) and the pure-Python one.
LOADERS = list(dict.fromkeys([_yamlio._Loader, yaml.SafeLoader]))
C_LOADERS = [_yamlio._Loader, yaml.CSafeLoader] if yaml.__with_libyaml__ else []


def _unbuilt(stream):
    raise _yamlio._Unbuilt


@contextlib.contextmanager
def _loading_with(loader):
    """parse_taxonomy through another loader class, the event builder left out
    (hypothesis tests take no fixtures)."""
    original, build = _yamlio._Loader, _yamlio._build
    _yamlio._Loader, _yamlio._build = loader, _unbuilt
    try:
        yield
    finally:
        _yamlio._Loader, _yamlio._build = original, build


_TOO_DEEP = "^unreadable taxonomy document: nested too deeply$"


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
def test_deep_nesting_is_a_taxonomy_error(monkeypatch, loader):
    monkeypatch.setattr(_yamlio, "_Loader", loader)
    with pytest.raises(AutoRecipeError, match=_TOO_DEEP):
        parse_taxonomy("kpi: a\nedges: " + "[" * 500 + "]" * 500 + "\n")


def test_very_deep_nesting_exits_as_input_error(tmp_path):
    # Far past the C stack a recursive C composer can use: must not crash.
    deep = tmp_path / "deep.yaml"
    deep.write_text("kpi: a\nedges: " + "[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
    src = str(Path(taxonomy.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-m", "autorecipe.cli", "plan", "--taxonomy", str(deep), "--kpi", "a"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "nested too deeply" in proc.stderr


_LABEL = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=12
).filter(lambda s: s.split())
_RELATION = st.sampled_from(["analyzed", "measured", "Recorded by", "sampled", "impacted", "source"])


@st.composite
def _taxonomy_documents(draw):
    """Valid taxonomy documents: random DAGs, with labels quoted by safe_dump."""
    labels = draw(st.lists(_LABEL, min_size=1, max_size=8, unique_by=normalize_name))
    edges = []
    for i in range(1, len(labels)):
        for parent in draw(st.sets(st.integers(0, i - 1), min_size=1, max_size=2)):
            edges.append({"parent": labels[parent], "relation": draw(_RELATION),
                          "child": labels[i]})
    flow = draw(st.booleans())
    return yaml.safe_dump({"kpi": labels[0], "edges": edges}, sort_keys=False,
                          allow_unicode=draw(st.booleans()), default_flow_style=flow or None)


@pytest.mark.skipif(not C_LOADERS, reason="PyYAML built without libyaml")
@pytest.mark.parametrize("loader", C_LOADERS, ids=lambda c: c.__name__)
@settings(max_examples=150, deadline=None)
@given(text=_taxonomy_documents())
@example(text=presets.ASSET_HEALTH_TAXONOMY)
@example(text=presets.ASSET_SUSTAINABILITY_TAXONOMY)
def test_libyaml_and_python_loaders_build_equal_taxonomies(loader, text):
    assert yaml.load(text, Loader=loader) == yaml.load(text, Loader=yaml.SafeLoader)
    with _loading_with(yaml.SafeLoader):
        expected = parse_taxonomy(text)
    with _loading_with(loader):
        got = parse_taxonomy(text)
    # Taxonomy equality covers root, nodes with their kinds, edges and children.
    assert got == expected
    assert parse_taxonomy(text) == expected  # through the event builder


def _node_kind_brute_force(tax, nid):
    """The definition: a leaf is a measurement when any incoming relation has a stem."""
    if nid == tax.root:
        return "kpi-root"
    relations = [e.relation.casefold() for e in tax.edges if e.child == nid]
    stems = ("measur", "record", "sampl", "source")
    if not tax.children(nid) and any(s in r for r in relations for s in stems):
        return "measurement"
    return "factor"


@settings(max_examples=100, deadline=None)
@given(text=_taxonomy_documents())
def test_node_kinds_match_brute_force(text):
    tax = parse_taxonomy(text)
    for nid, node in tax.nodes.items():
        assert node.kind == _node_kind_brute_force(tax, nid)


_YAMLISH = st.lists(
    st.sampled_from(["kpi:", "edges:", "-", " ", "\n", "  ", "[", "]", "{", "}", ",", ":",
                     "parent:", "relation:", "child:", "a", "b", "&x", "*x", "!!str", "'",
                     '"', "#", "?", "|", ">", "%YAML 1.1", "---", "...", "\t", "1e400",
                     "2024-02-30", "!!binary", "~", "\x00", "\ud800", "é"]),
    max_size=40,
).map("".join)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(max_size=200), _YAMLISH))
def test_parse_taxonomy_fuzz_raises_only_package_or_value_errors(loader, text):
    with _loading_with(loader), contextlib.suppress(AutoRecipeError, ValueError):
        parse_taxonomy(text)
    with contextlib.suppress(AutoRecipeError, ValueError):
        parse_taxonomy(text)  # through the event builder


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_restores_the_garbage_collector_state(enabled):
    import gc

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        parse_taxonomy(SMALL)
        with pytest.raises(AutoRecipeError, match=_TOO_DEEP):
            parse_taxonomy("kpi: a\nedges: " + "[" * 5000 + "]" * 5000 + "\n")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
