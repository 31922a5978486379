"""Plan parsing, execution-order algebra, code-step resolution, and the
deterministic generator."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autorecipe.errors import AutoRecipeError
from autorecipe.execution import execute
from autorecipe.gateway import ScriptedGateway
from autorecipe.planning import (
    Conjunction,
    Disjunction,
    Goal,
    PromptStep,
    StepRef,
    _find_named_node,
    bind_goal,
    build_planning_context,
    classify_step,
    format_execution_order,
    generate_sequence_deterministic,
    is_all_and,
    materialize_sequence,
    order_indices,
    parse_execution_order,
    parse_plan,
    parse_sequence,
    resolve_code_steps,
    serialize_sequence,
)
from autorecipe.presets import (
    ASSET_PROFILE_PLAN,
    COMPONENT_HEALTH_DEMONSTRATION,
    ENVIRONMENTAL_IMPACT_PLAN,
    PLANNER_CONSTRAINTS,
    PLANNER_TASK_INTRO,
)
from autorecipe.prompts import default_registry
from autorecipe.taxonomy import Taxonomy, TaxonNode, normalize_name
from conftest import THREE_PART_DOC


# --- step and order primitives -------------------------------------------------

def test_prompt_step_rejects_bad_kind_index_and_body():
    with pytest.raises(ValueError):
        PromptStep(1, "musing", "Ask something.")
    with pytest.raises(ValueError):
        PromptStep(0, "question", "Ask something.")
    with pytest.raises(ValueError):
        PromptStep(1, "question", "   ")


def test_classify_step_variants():
    assert classify_step("Can you give me detailed guidelines?") == "question"
    assert classify_step("Generate a Python code that takes a node.") == "code"
    assert classify_step("Generate a single Python function as an entry point.") == "code"
    assert classify_step("Please write a script that walks the tree.") == "code"
    assert classify_step("Please help me export a markdown output as guidelines.") == "export"


def test_classify_step_export_wins_over_code_mention():
    body = "Please help me export a markdown output; also generate a Python code sample."
    assert classify_step(body) == "export"


def test_parse_execution_order_all_and():
    expr = parse_execution_order("(Step 1 AND Step 2 AND Step 3) Goal completed!")
    assert expr == Conjunction((StepRef(1), StepRef(2), StepRef(3)))
    assert is_all_and(expr)
    assert order_indices(expr) == [1, 2, 3]


def test_parse_execution_order_and_binds_tighter_than_or():
    expr = parse_execution_order("Step 1 OR Step 2 AND Step 3")
    assert expr == Disjunction((StepRef(1), Conjunction((StepRef(2), StepRef(3)))))
    assert not is_all_and(expr)
    assert order_indices(expr) == [1, 2, 3]


def test_parse_execution_order_nested_parens_round_trip():
    text = "((Step 1 AND Step 2) OR Step 3) AND Step 4"
    expr = parse_execution_order(text)
    assert parse_execution_order(format_execution_order(expr)) == expr


def test_parse_execution_order_errors():
    with pytest.raises(AutoRecipeError, match="^no execution order expression in"):
        parse_execution_order("no references here")
    with pytest.raises(AutoRecipeError, match="^unbalanced parenthesis in execution order$"):
        parse_execution_order("(Step 1 AND Step 2")
    with pytest.raises(AutoRecipeError, match="^trailing tokens in execution order"):
        parse_execution_order("Step 1 )")
    with pytest.raises(AutoRecipeError, match="^unexpected token 'AND' in execution order$"):
        parse_execution_order("AND Step 2")


def _chained_order(depth: int) -> str:
    """(Step 1 AND (Step 2 AND ... Step depth+1)), parentheses ``depth`` deep."""
    return "(Step {} AND " * depth + f"Step {depth + 1}" + ")" * depth


def test_parse_execution_order_at_the_depth_bound():
    depth = 100
    expr = parse_execution_order(_chained_order(depth).format(*range(1, depth + 1)))
    assert order_indices(expr) == list(range(1, depth + 2))
    assert is_all_and(expr)
    assert parse_execution_order(format_execution_order(expr)) == expr


@pytest.mark.parametrize("depth", [101, 400, 100_000])
def test_parse_execution_order_rejects_deep_nesting(depth):
    chained = _chained_order(depth).format(*range(1, depth + 1))
    redundant = "(" * depth + "Step 1 AND Step 2" + ")" * depth
    for text in (chained, redundant):
        with pytest.raises(AutoRecipeError, match="more than 100 deep"):
            parse_execution_order(text)


@pytest.mark.parametrize("depth", [400, 100_000])
def test_parse_plan_rejects_deeply_nested_order(depth):
    text = "Step 1: Ask.\nStep 2: Ask again.\nExecution Order: "
    text += "(" * depth + "Step 1 AND Step 2" + ")" * depth + " Goal completed!\n"
    with pytest.raises(AutoRecipeError, match="more than 100 deep"):
        parse_plan(text)


# --- plan parsing ---------------------------------------------------------------

def test_parse_demonstration_plan(health_tax):
    seq = parse_plan(COMPONENT_HEALTH_DEMONSTRATION)
    assert len(seq.steps) == 11
    assert [s.index for s in seq.steps] == list(range(1, 12))
    kinds = [s.kind for s in seq.steps]
    assert kinds == ["question"] * 9 + ["code", "export"]
    assert is_all_and(seq.execution_order)
    assert order_indices(seq.execution_order) == list(range(1, 12))
    assert seq.placeholders == frozenset({"asset_class", "asset_description"})
    for step in seq.steps:
        assert "Think" not in step.body


def test_parse_plan_keeps_a_line_separator_inside_a_step():
    seq = parse_plan("Step 1: Describe the asset\u2028in detail.\r\nStep 2: Ask again.\r"
                     "Execution Order: Step 1 AND Step 2 Goal completed!\n")
    assert [s.body for s in seq.steps] == ["Describe the asset\u2028in detail.", "Ask again."]


def test_parse_demonstration_multiline_export_body():
    seq = parse_plan(COMPONENT_HEALTH_DEMONSTRATION)
    export = seq.steps[11 - 1]
    assert export.kind == "export"
    assert "Part 1:" in export.body
    assert "Part 3 (optional)" in export.body


def test_parse_fixture_plans():
    profile = parse_plan(ASSET_PROFILE_PLAN)
    assert len(profile.steps) == 9
    assert [s.kind for s in profile.steps] == ["question"] * 8 + ["export"]
    assert is_all_and(profile.execution_order)

    impact = parse_plan(ENVIRONMENTAL_IMPACT_PLAN)
    assert len(impact.steps) == 10
    assert [s.kind for s in impact.steps] == ["question"] * 9 + ["export"]
    assert is_all_and(impact.execution_order)
    assert order_indices(impact.execution_order) == list(range(1, 11))


def test_parse_plan_discards_think_commentary():
    text = (
        "Step 1: Ask about the fleet.\n"
        "# Think: private commentary\n"
        "this continuation belongs to the think block and is dropped\n"
        "Step 2: Ask again.\n"
        "Execution Order: Step 1 AND Step 2\n"
    )
    seq = parse_plan(text)
    assert seq.steps[1 - 1].body == "Ask about the fleet."
    assert seq.steps[2 - 1].body == "Ask again."


def test_parse_plan_accepts_bold_markers_and_case():
    text = (
        "**Step 1**: Ask the first question.\n"
        "step 2: Ask the second question.\n"
        "**Execution Order**: (Step 1 AND Step 2) Goal completed!\n"
    )
    seq = parse_plan(text)
    assert len(seq.steps) == 2
    assert seq.execution_order == Conjunction((StepRef(1), StepRef(2)))


def test_parse_plan_keeps_goal():
    goal = Goal("asset health", "asset profile")
    seq = parse_plan(ASSET_PROFILE_PLAN, goal=goal)
    assert seq.goal == goal


def test_parse_plan_error_no_steps():
    with pytest.raises(AutoRecipeError, match="^model output declares no steps$"):
        parse_plan("Execution Order: Step 1\n")


def test_parse_plan_error_no_execution_order():
    with pytest.raises(AutoRecipeError, match="^model output declares no execution order$"):
        parse_plan("Step 1: Ask a question.\n")


def test_parse_plan_error_non_contiguous():
    text = "Step 1: Ask.\nStep 3: Ask more.\nExecution Order: Step 1 AND Step 3\n"
    with pytest.raises(
        AutoRecipeError, match=r"^step indices are not contiguous from 1: \[1, 3\]$"
    ):
        parse_plan(text)


def test_parse_plan_error_duplicate_step():
    text = "Step 1: Ask.\nStep 1: Ask again.\nExecution Order: Step 1\n"
    with pytest.raises(AutoRecipeError, match="^step 1 is declared twice$"):
        parse_plan(text)


def test_parse_plan_error_order_references_undeclared_step():
    text = "Step 1: Ask.\nStep 2: Ask more.\nExecution Order: Step 1 AND Step 2 AND Step 5\n"
    with pytest.raises(AutoRecipeError, match="^execution order references undeclared step 5$"):
        parse_plan(text)


def test_parse_plan_error_order_repeats_step():
    text = "Step 1: Ask.\nStep 2: Ask more.\nExecution Order: Step 1 AND Step 2 AND Step 1\n"
    with pytest.raises(AutoRecipeError, match="^execution order references step 1 twice$"):
        parse_plan(text)


def test_parse_plan_error_order_omits_step():
    text = "Step 1: Ask.\nStep 2: Ask more.\nExecution Order: Step 1\n"
    with pytest.raises(AutoRecipeError, match="^execution order never references step 2$"):
        parse_plan(text)


# --- planning context ------------------------------------------------------------

def test_bind_goal_picks_matching_taxonomy(health_tax, sustainability_tax):
    taxonomies = [health_tax, sustainability_tax]
    assert bind_goal(taxonomies, Goal("asset health", "component quality")) is health_tax
    assert (
        bind_goal(taxonomies, Goal("Asset Sustainability", "environmental impact"))
        is sustainability_tax
    )


def test_bind_goal_errors(health_tax, sustainability_tax):
    taxonomies = [health_tax, sustainability_tax]
    with pytest.raises(AutoRecipeError, match="^no provided taxonomy has root 'fleet throughput'$"):
        bind_goal(taxonomies, Goal("fleet throughput", "component quality"))
    with pytest.raises(
        AutoRecipeError,
        match="^target node 'air pollution' is not in the asset health taxonomy$",
    ):
        bind_goal(taxonomies, Goal("asset health", "air pollution"))


def test_goal_text_defaults_and_override():
    assert Goal("asset health", "asset profile").goal_text == "Analyze the asset health"
    assert (
        Goal("asset health", "asset profile", method_phrase="using the asset profile").goal_text
        == "Analyze the asset health using the asset profile"
    )
    assert Goal("asset health", "asset profile", text="Do the thing.").goal_text == "Do the thing."


def test_build_planning_context_layout(health_tax, sustainability_tax):
    goal = Goal("asset health", "asset profile", method_phrase="using the asset profile")
    messages = build_planning_context(
        [health_tax, sustainability_tax], COMPONENT_HEALTH_DEMONSTRATION, goal
    )
    assert [m.role for m in messages] == ["system", "user"]
    system = messages[0].content
    assert PLANNER_TASK_INTRO in system
    assert PLANNER_CONSTRAINTS in system
    assert "Here is the asset health taxonomy." in system
    assert "Here is the asset sustainability taxonomy." in system
    assert "asset health is analyzed by asset profile" in system
    assert COMPONENT_HEALTH_DEMONSTRATION.strip() in system
    assert messages[1].content == "Goal: Analyze the asset health using the asset profile"


def test_build_planning_context_rejects_empty_inputs(health_tax):
    goal = Goal("asset health", "asset profile")
    with pytest.raises(ValueError):
        build_planning_context([health_tax], "   ", goal)
    with pytest.raises(ValueError):
        build_planning_context([], COMPONENT_HEALTH_DEMONSTRATION, goal)
    with pytest.raises(
        AutoRecipeError, match="^target node 'decibel' is not in the asset health taxonomy$"
    ):
        build_planning_context(
            [health_tax], COMPONENT_HEALTH_DEMONSTRATION, Goal("asset health", "decibel")
        )


# --- code-step resolution ----------------------------------------------------------

def test_resolve_rewrites_code_step_when_sensors_downstream(health_tax, registry):
    seq = parse_plan(COMPONENT_HEALTH_DEMONSTRATION)
    resolved = resolve_code_steps(seq, health_tax, registry)
    assert len(resolved.steps) == 11
    assert all(s.kind != "code" for s in resolved.steps)
    rewritten = resolved.steps[10 - 1]
    assert rewritten.kind == "question"
    assert "component quality" in rewritten.body
    assert "sensor" in rewritten.body.casefold()
    # everything else is untouched
    for index in (1, 2, 3, 9, 11):
        assert resolved.steps[index - 1].body == seq.steps[index - 1].body


def test_resolve_drops_code_step_without_sensor_descendants(health_tax):
    text = (
        "Step 1: Ask about the asset profile factors.\n"
        "Step 2: Generate a Python code that takes the asset profile as an input node.\n"
        "Step 3: Please help me export a markdown output as guidelines.\n"
        "Execution Order: (Step 1 AND Step 2 AND Step 3) Goal completed!\n"
    )
    seq = parse_plan(text)
    assert seq.steps[2 - 1].kind == "code"
    resolved = resolve_code_steps(seq, health_tax)
    assert [s.index for s in resolved.steps] == [1, 2]
    assert [s.kind for s in resolved.steps] == ["question", "export"]
    assert resolved.steps[2 - 1].body == seq.steps[3 - 1].body
    assert resolved.execution_order == Conjunction((StepRef(1), StepRef(2)))


def test_resolve_unresolvable_code_step(health_tax):
    text = (
        "Step 1: Generate a Python code that prints numbers.\n"
        "Step 2: Please help me export a markdown output as guidelines.\n"
        "Execution Order: Step 1 AND Step 2\n"
    )
    with pytest.raises(AutoRecipeError, match="^code step names no taxonomy node: "):
        resolve_code_steps(parse_plan(text), health_tax)


def test_resolve_refuses_empty_result(health_tax):
    text = (
        "Step 1: Generate a Python code that takes the asset profile as an input node.\n"
        "Execution Order: Step 1\n"
    )
    with pytest.raises(AutoRecipeError, match="^resolving code steps left an empty plan$"):
        resolve_code_steps(parse_plan(text), health_tax)


def _find_named_node_by_regex(body: str, tax: Taxonomy) -> str:
    """The code-step matcher as first written: one regex per label and per word."""
    low = body.casefold()
    labeled = [(nid, node.label.casefold()) for nid, node in tax.nodes.items()]
    for nid, label in sorted(labeled, key=lambda item: -len(item[1])):
        if re.search(rf"\b{re.escape(label)}\b", low):
            return nid

    best: tuple[int, int, int] | None = None  # (-score, first_pos, declaration_order)
    best_nid = None
    declaration = {nid: i for i, nid in enumerate(tax.nodes)}
    for nid, label in labeled:
        positions = []
        for word in set(label.split()):
            match = re.search(rf"\b{re.escape(word)}\b", low)
            if match:
                positions.append(match.start())
        if not positions:
            continue
        key = (-len(positions), min(positions), declaration[nid])
        if best is None or key < best:
            best = key
            best_nid = nid
    if best_nid is None:
        raise AutoRecipeError(f"code step names no taxonomy node: {body[:80]!r}")
    return best_nid


# Word pieces whose \b boundaries are edge cases: punctuation at either end,
# underscores, digits, and letters whose case-fold changes length.
_FRAGMENTS = ["pump", "Pump", "motor", "(x)", "x", "a/b", "a", "b", "x-", "-", "_", "a_b",
              "ß", "SS", "ss", "straße", "1", "12", "é"]
_WORDS = st.lists(st.sampled_from(_FRAGMENTS), min_size=1, max_size=3).map("".join)
_LABELS = st.lists(_WORDS, min_size=1, max_size=3).map(" ".join)


@st.composite
def _code_steps(draw):
    labels = draw(st.lists(_LABELS, min_size=1, max_size=6))
    nodes = {}
    for label in labels:
        nodes.setdefault(normalize_name(label), TaxonNode(label, "factor"))
    root = next(iter(nodes))
    tax = Taxonomy(root=root, nodes=nodes, edges=())
    words = [word for label in labels for word in label.split()]
    pieces = st.one_of(st.sampled_from(labels), st.sampled_from(words),
                       st.sampled_from(_FRAGMENTS), st.sampled_from([" ", ", ", "(", ")", "."]))
    body = draw(st.lists(pieces, max_size=8).map(" ".join))
    return draw(st.sampled_from([body, body.upper()])), tax


@settings(max_examples=500, deadline=None)
@given(case=_code_steps())
def test_find_named_node_matches_the_regex_matcher(case):
    body, tax = case
    try:
        expected = _find_named_node_by_regex(body, tax)
    except AutoRecipeError as exc:
        with pytest.raises(AutoRecipeError, match="^code step names no taxonomy node: ") as info:
            _find_named_node(body, tax)
        assert str(info.value) == str(exc)
    else:
        assert _find_named_node(body, tax) == expected


# --- deterministic generation -------------------------------------------------------

def test_deterministic_asset_profile_plan(health_tax):
    goal = Goal("asset health", "asset profile")
    seq = generate_sequence_deterministic(health_tax, goal)
    assert len(seq.steps) == 9
    assert [s.kind for s in seq.steps] == ["question"] * 7 + ["code", "export"]
    assert is_all_and(seq.execution_order)
    assert order_indices(seq.execution_order) == list(range(1, 10))
    assert seq.goal == goal
    first = seq.steps[1 - 1].body
    assert "1. age" in first and "2. operating hours" in first and "3. idle hours" in first
    for step in seq.steps:
        assert classify_step(step.body) == step.kind


def test_deterministic_plan_resolution_drops_sensorless_code_step(health_tax):
    seq = generate_sequence_deterministic(health_tax, Goal("asset health", "asset profile"))
    resolved = resolve_code_steps(seq, health_tax)
    assert len(resolved.steps) == 8
    assert [s.kind for s in resolved.steps] == ["question"] * 7 + ["export"]


def test_deterministic_component_quality_plan(health_tax):
    seq = generate_sequence_deterministic(health_tax, Goal("asset health", "component quality"))
    assert len(seq.steps) == 10
    assert [s.kind for s in seq.steps] == ["question"] * 8 + ["code", "export"]
    resolved = resolve_code_steps(seq, health_tax)
    assert len(resolved.steps) == 10
    assert all(s.kind != "code" for s in resolved.steps)


def test_deterministic_environmental_impact_plan(sustainability_tax):
    seq = generate_sequence_deterministic(
        sustainability_tax, Goal("asset sustainability", "environmental impact")
    )
    # no measurement descendants here, so no code step is generated
    assert len(seq.steps) == 10
    assert [s.kind for s in seq.steps] == ["question"] * 9 + ["export"]
    assert "asset sustainability" in seq.steps[1 - 1].body


def test_deterministic_leaf_target_plan(health_tax):
    seq = generate_sequence_deterministic(health_tax, Goal("asset health", "age"))
    assert len(seq.steps) == 5
    assert [s.kind for s in seq.steps] == ["question"] * 4 + ["export"]
    assert "age" in seq.steps[1 - 1].body


def test_deterministic_generation_errors(health_tax):
    with pytest.raises(
        AutoRecipeError,
        match="^goal KPI 'asset sustainability' does not match the asset health taxonomy$",
    ):
        generate_sequence_deterministic(health_tax, Goal("asset sustainability", "age"))
    with pytest.raises(
        AutoRecipeError, match="^target node 'decibel' is not in the asset health taxonomy$"
    ):
        generate_sequence_deterministic(health_tax, Goal("asset health", "decibel"))


# --- materialization -----------------------------------------------------------------

def test_materialize_fills_asset_slots(health_tax):
    seq = generate_sequence_deterministic(health_tax, Goal("asset health", "asset profile"))
    done = materialize_sequence(seq, "electric motor", "a 75 kW induction motor")
    assert done.placeholders == frozenset()
    assert done.bindings == {
        "asset_class": "electric motor",
        "asset_description": "a 75 kW induction motor",
    }
    assert any("electric motor" in s.body for s in done.steps)
    assert all("${" not in s.body for s in done.steps)


def test_materialize_missing_description(health_tax):
    seq = generate_sequence_deterministic(health_tax, Goal("asset health", "asset profile"))
    with pytest.raises(AutoRecipeError, match=r"^missing bindings in step \d+: asset_description$"):
        materialize_sequence(seq, "electric motor")


def test_materialize_without_optional_slots():
    text = (
        "Step 1: Describe the ${asset_class} fleet.\n"
        "Step 2: Please help me export a markdown output as guidelines.\n"
        "Execution Order: Step 1 AND Step 2\n"
    )
    done = materialize_sequence(parse_plan(text), "wind turbine")
    assert done.steps[1 - 1].body == "Describe the wind turbine fleet."
    assert done.bindings == {"asset_class": "wind turbine"}


def test_materialize_rejects_blank_asset_class():
    text = "Step 1: Ask a question.\nExecution Order: Step 1\n"
    with pytest.raises(ValueError):
        materialize_sequence(parse_plan(text), "  ")


_TEXT = ["Compare the ", "${asset_class}", " with ", "${asset_description}", ".",
         " cost $5 {est}"]
_VALUE = ["$", "{", "}", "${asset_class}", "${asset_description}", "${HOME}", "\\", "\\1",
          "\\g<0>", "pump", " "]

# Values are never blank: materialization reads a blank value as missing.
_values = st.lists(st.sampled_from(_VALUE), min_size=1, max_size=5).map("".join).filter(str.strip)


def _fill_by_hand(body: str, values: dict[str, str]) -> str:
    """Each ``${name}`` of ``body`` replaced by its value, left to right, in one pass."""
    out = []
    while True:
        found = [(body.find("${%s}" % name), name) for name in values if "${%s}" % name in body]
        if not found:
            return "".join(out) + body
        at, name = min(found)
        out.append(body[:at] + values[name])
        body = body[at + len(name) + 3:]


@settings(max_examples=150, deadline=None)
@given(body=st.lists(st.sampled_from(_TEXT), min_size=1, max_size=6).map("".join),
       asset_class=_values, description=_values)
def test_materialize_inserts_values_verbatim_and_execute_accepts_them(
        body, asset_class, description):
    """Placeholders are read in the plan's text only: ``${...}``, braces and
    backslashes in a value go in as they are and are not read again."""
    export = "Please help me export a markdown output as guidelines."
    seq = parse_plan(f"Step 1: {body}\nStep 2: {export}\nExecution Order: Step 1 AND Step 2\n")
    done = materialize_sequence(seq, asset_class, description)
    values = {"asset_class": asset_class, "asset_description": description}
    assert [s.body for s in done.steps] == [_fill_by_hand(s.body, values) for s in seq.steps]
    registry = default_registry()
    _, transcript = execute(done, "allq", registry.role("domain-expert"),
                            ScriptedGateway([THREE_PART_DOC]), registry)
    assert done.steps[0].body in transcript.user_turns()[0].content


# --- persistence ---------------------------------------------------------------------

def test_serialize_sequence_round_trip(health_tax):
    goal = Goal("asset health", "asset profile", method_phrase="using the asset profile")
    seq = generate_sequence_deterministic(health_tax, goal)
    seq = materialize_sequence(seq, "electric motor", "a mid-size motor")
    again = parse_sequence(serialize_sequence(seq))
    assert again == seq


def test_parse_sequence_rejects_non_documents():
    with pytest.raises(AutoRecipeError, match=(
        "^validation failed:\n- sequence document: sequence must be a mapping, "
        "got 'just a string'$"
    )):
        parse_sequence("just a string\n")


_ONE_STEP = "steps: [{index: 1, kind: question, body: Ask.}]\n"
_SHAPE = "validation failed:\n- sequence document: "


@pytest.mark.parametrize("text, message", [
    ("steps: 5\nexecution_order: Step 1\n", _SHAPE + "steps must be a list, got 5"),
    ("steps: [1]\nexecution_order: Step 1\n", _SHAPE + "steps.1 must be a mapping, got 1"),
    ("steps: [{index: x}]\nexecution_order: Step 1\n",
     _SHAPE + "steps.1.index must be an integer, got 'x'\n"
     "- sequence document: steps.1.kind must be a string, got None\n"
     "- sequence document: steps.1.body must be a string, got None"),
    ("steps: [{index: 1, kind: musing, body: Ask.}]\nexecution_order: Step 1\n",
     "sequence step 1: step kind must be one of ('question', 'code', 'export'), got 'musing'"),
    (_ONE_STEP, _SHAPE + "execution_order must be a string, got None"),
    (_ONE_STEP + "execution_order: 1\n", _SHAPE + "execution_order must be a string, got 1"),
    (_ONE_STEP + "execution_order: Step 1\ngoal: 5\n", _SHAPE + "goal must be a mapping, got 5"),
    (_ONE_STEP + "execution_order: Step 1\ngoal: {kpi: k}\n",
     _SHAPE + "goal.target_node must be a string, got None"),
    (_ONE_STEP + "execution_order: Step 1\nbindings: [1]\n",
     _SHAPE + "bindings must be a mapping, got [1]"),
    ("steps: [\n", "unreadable sequence document"),
    (_ONE_STEP.replace("kind: question", "kind: 5") + "execution_order: Step 1\n",
     _SHAPE + "steps.1.kind must be a string, got 5"),
    (_ONE_STEP.replace("body: Ask.", "body: 5") + "execution_order: Step 1\n",
     _SHAPE + "steps.1.body must be a string, got 5"),
    (_ONE_STEP + "execution_order: Step 1\ngoal: {kpi: 5, target_node: t}\n",
     _SHAPE + "goal.kpi must be a string, got 5"),
    (_ONE_STEP + "execution_order: Step 1\ngoal: {kpi: k, target_node: t, method_phrase: 5}\n",
     _SHAPE + "goal.method_phrase must be a string, got 5"),
    (_ONE_STEP + "execution_order: Step 1\ngoal: {kpi: k, target_node: t, text: 5}\n",
     _SHAPE + "goal.text must be a string, got 5"),
    (_ONE_STEP + "execution_order: Step 1\nbindings: {5: v}\n",
     _SHAPE + "bindings key must be a string, got 5"),
    (_ONE_STEP + "execution_order: Step 1\nbindings: {k: 5}\n",
     _SHAPE + "bindings.k must be a string, got 5"),
], ids=["steps-scalar", "step-scalar", "step-without-kind", "step-bad-kind",
        "no-order", "order-not-text", "goal-scalar", "goal-without-target",
        "bindings-list", "not-yaml", "kind-not-text", "body-not-text", "goal-kpi-not-text",
        "method-phrase-not-text", "goal-text-not-text", "binding-name-not-text",
        "binding-not-text"])
def test_parse_sequence_rejects_malformed_shapes(text, message):
    with pytest.raises(AutoRecipeError) as info:
        parse_sequence(text)
    # A YAML syntax error's own text follows its message.
    assert str(info.value) == message or str(info.value).startswith(message + ": ")


def test_random_plans_survive_format_parse_cycle():
    rng = random.Random(20240814)
    vocabulary = ["alpha", "beta", "gamma", "delta", "motor", "fleet", "turbine"]
    for _ in range(30):
        count = rng.randint(1, 12)
        steps = [
            PromptStep(
                i,
                "question",
                f"Ask about {rng.choice(vocabulary)} {rng.choice(vocabulary)} item {i}.",
            )
            for i in range(1, count + 1)
        ]
        indices = list(range(1, count + 1))
        rng.shuffle(indices)
        order = (
            StepRef(indices[0])
            if count == 1
            else Conjunction(tuple(StepRef(i) for i in indices))
        )
        again = parse_sequence(serialize_sequence(
            parse_plan(
                "\n".join(f"Step {s.index}: {s.body}" for s in steps)
                + f"\nExecution Order: {format_execution_order(order)}\n"
            )
        ))
        text = "\n".join(f"Step {s.index}: {s.body}" for s in again.steps) + (
            f"\nExecution Order: {format_execution_order(again.execution_order)} Goal completed!\n"
        )
        seq = parse_plan(text)
        assert [s.body for s in seq.steps] == [s.body for s in steps]
        assert order_indices(seq.execution_order) == indices
