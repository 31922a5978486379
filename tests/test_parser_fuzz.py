"""Parsers of model output and plan documents fail only with the package's
own errors or ValueError, whatever text they are given."""

from __future__ import annotations

import warnings

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from autorecipe.errors import AutoRecipeError, ValidationFailedError
from autorecipe.execution import parse_react_reply, split_parts
from autorecipe.planning import STEP_KINDS, parse_plan, parse_sequence, serialize_sequence
from autorecipe.refinement import split_confidence

ALLOWED = (AutoRecipeError, ValueError)

# Pieces of the syntax each parser looks for, so random text reaches past
# the first check of each.
_FRAGMENTS = st.sampled_from([
    "\n", " ", "Step 1: ", "Step 2:", "**Step 3**: ", "Step 0: ", "Step 99999999999999999999: ",
    "# Think: ", "Execution Order: ", "(", ")", " AND ", " OR ", "Step 1", "Step 2",
    " Goal completed!", "Part 1", "Part 2: ", "# ", "## Heading", "**Part 3**",
    "Question: ", "Thought: ", "Answer: ", "Thought: Now I know", "Final Answer: ",
    "Confidence: ", "50%", "150%", "Confidence: 99.5%", "Confidence: **80**%",
    "steps:", "\n- ", "{index: 1, kind: question, body: Ask.}", "index: ", "kind: ",
    "body: ", "execution_order: ", "goal: ", "bindings: ", "kpi: ", "[", "]", "{", "}",
    ": ", "- ", "'", '"', "&a ", "*a", "!!int ", "!!python/name:os.system", "~", "null",
    "2024-02-30", "\t", "\r\n", "export a markdown output", "generate python code",
])
_TEXTS = st.lists(st.one_of(_FRAGMENTS, st.text(max_size=12)), max_size=16).map("".join)

_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6,
)
_STEPS = st.one_of(
    _VALUES,
    st.lists(st.one_of(_VALUES, st.fixed_dictionaries({}, optional={
        "index": st.one_of(st.integers(-1, 4), _VALUES),
        "kind": st.one_of(st.sampled_from(STEP_KINDS), _VALUES),
        "body": st.one_of(st.text(max_size=10), _VALUES),
    })), max_size=4),
)
_ORDERS = st.one_of(
    st.sampled_from(["Step 1", "(Step 1 AND Step 2)", "Step 1 OR Step 2", "Step 2 AND Step 1",
                     "(Step 1", "Step 1 AND", ""]),
    _VALUES,
)
_GOALS = st.one_of(_VALUES, st.fixed_dictionaries({}, optional={
    key: st.one_of(st.text(max_size=6), _VALUES)
    for key in ("kpi", "target_node", "method_phrase", "text")
}))
_SEQUENCE_DOCS = st.one_of(_VALUES, st.fixed_dictionaries({}, optional={
    "steps": _STEPS,
    "execution_order": _ORDERS,
    "goal": _GOALS,
    "bindings": st.one_of(st.dictionaries(st.text(max_size=6), st.text(max_size=6),
                                          max_size=2), _VALUES),
}))


@settings(max_examples=500, deadline=None)
@given(text=_TEXTS)
def test_text_parsers_raise_only_package_errors(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for parse in (parse_plan, split_parts, parse_react_reply, split_confidence,
                      parse_sequence):
            try:
                parse(text)
            except ALLOWED:
                pass


@settings(max_examples=500, deadline=None)
@given(doc=_SEQUENCE_DOCS)
def test_parse_sequence_raises_plan_error_on_any_document_shape(doc):
    text = yaml.safe_dump(doc, sort_keys=False, allow_unicode=True)
    try:
        seq = parse_sequence(text)
    except AutoRecipeError as exc:
        assert type(exc) in (AutoRecipeError, ValidationFailedError)
        return
    assert parse_sequence(serialize_sequence(seq)) == seq
