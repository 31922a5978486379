"""Strategy execution, reply splitting, and transcript bookkeeping."""

from __future__ import annotations

import random
import warnings

import pytest

from autorecipe.errors import AutoRecipeError, GatewayError, MissingBindingError, NoPartsWarning
from autorecipe.execution import (
    PART_LABELS,
    STRATEGIES,
    ManualClock,
    Transcript,
    TranscriptMessage,
    execute,
    parse_react_reply,
    render_knowledge,
    split_parts,
    wrap_react,
)
from autorecipe.gateway import ScriptedGateway
from autorecipe.planning import (
    Goal,
    PromptSequence,
    PromptStep,
    StepRef,
    generate_sequence_deterministic,
    materialize_sequence,
    parse_plan,
    resolve_code_steps,
)
from autorecipe.presets import COT_SUFFIX, REACT_FORMAT_BLOCK, REACT_HEADER
from conftest import THREE_PART_DOC


class _EchoGateway:
    """Serves canned replies while keeping every session it was shown."""

    def __init__(self, replies):
        self._replies = list(replies)
        self.sessions = []

    def complete(self, session):
        self.sessions.append(list(session))
        return self._replies.pop(0)


def _materialized(health_tax, target="asset profile"):
    seq = generate_sequence_deterministic(health_tax, Goal("asset health", target))
    seq = resolve_code_steps(seq, health_tax)
    return materialize_sequence(seq, "electric motor", "a 75 kW induction motor")


# --- clock ----------------------------------------------------------------------

def test_manual_clock_progression():
    clock = ManualClock()
    assert [clock(), clock(), clock()] == [0.0, 1.0, 2.0]
    offset = ManualClock(start=10.0, step=0.5)
    assert [offset(), offset()] == [10.0, 10.5]


# --- knowledge splitting -----------------------------------------------------------

def test_split_parts_three_labeled_parts(three_part_doc):
    kd = split_parts(three_part_doc)
    assert [p.label for p in kd.parts] == list(PART_LABELS)
    assert kd.preamble == ""
    assert "electric motor" in kd.part("asset-description").body
    assert "accelerometer" in kd.part("measurement").body
    assert render_knowledge(kd) == three_part_doc


def test_split_parts_markdown_headings():
    text = "# Overview\nintro text\n## Health\nkpi text\n## Sensors\nsensor text\n"
    kd = split_parts(text)
    assert len(kd.parts) == 3
    assert kd.part("kpi-explanation").heading == "## Health\n"
    assert render_knowledge(kd) == text


def test_split_parts_keeps_preamble_and_extra_markers():
    text = (
        "Sure, here is the document.\n\n"
        "Part 1: intro\nalpha\n"
        "Part 2: body\nbeta\n"
        "Part 3: sensors\ngamma\n"
        "Part 4: overflow stays inside part three\ndelta\n"
    )
    kd = split_parts(text)
    assert kd.preamble == "Sure, here is the document.\n\n"
    assert len(kd.parts) == 3
    assert "Part 4" in kd.part("measurement").body
    assert render_knowledge(kd) == text


def test_split_parts_bold_markers():
    text = "**Part 1:** intro\nalpha\n**Part 2:** body\nbeta\n"
    kd = split_parts(text)
    assert len(kd.parts) == 2
    assert render_knowledge(kd) == text


def test_split_parts_headingless_text_warns():
    with pytest.warns(NoPartsWarning):
        kd = split_parts("plain prose with no headings at all\nsecond line\n")
    assert len(kd.parts) == 1
    assert kd.parts[0].label == "asset-description"
    assert render_knowledge(kd) == "plain prose with no headings at all\nsecond line\n"


def test_split_parts_rejects_empty_text():
    with pytest.raises(AutoRecipeError, match="^knowledge text is empty$"):
        split_parts("   \n ")


def test_split_parts_reconstruction_property():
    rng = random.Random(20240814)
    fillers = ["alpha beta", "gamma delta", "- bullet item", "plain sentence here."]
    headings = ["# Title", "## Section", "Part 1: intro", "Part 2: body", "Part 3: tail"]
    for _ in range(60):
        lines = []
        for _ in range(rng.randint(1, 14)):
            pool = headings if rng.random() < 0.3 else fillers
            lines.append(rng.choice(pool))
        text = "\n".join(lines) + ("\n" if rng.random() < 0.7 else "")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NoPartsWarning)
            kd = split_parts(text)
        assert render_knowledge(kd) == text
        assert 1 <= len(kd.parts) <= 3


# --- reasoning scaffold ------------------------------------------------------------

def test_wrap_react_layout(health_tax):
    seq = _materialized(health_tax)
    prompt = wrap_react(seq)
    assert prompt.startswith(REACT_HEADER)
    assert REACT_FORMAT_BLOCK in prompt
    for step in seq.steps[:-1]:
        assert f"Question {step.index}: {step.body}" in prompt
    assert seq.steps[-1].body in prompt


def test_wrap_react_needs_two_steps():
    lone = PromptSequence(
        (PromptStep(1, "export", "Please help me export a markdown output."),), StepRef(1)
    )
    with pytest.raises(AutoRecipeError, match="^the reasoning scaffold needs at least two steps$"):
        wrap_react(lone)


def test_parse_react_reply_skips_the_scaffold():
    reply = (
        "Question: What factors matter?\n"
        "Thought: consider the taxonomy\n"
        "Answer: age and operating hours\n"
        "Question: Anything else?\n"
        "Thought: check sensors\n"
        "Answer: vibration data\n"
        "Thought: Now I know how to answer the final request\n"
        "Final Answer: " + THREE_PART_DOC
    )
    assert parse_react_reply(reply) == THREE_PART_DOC.strip()


def test_parse_react_reply_last_marker_wins():
    reply = "Final Answer: draft\nmore scaffolding\nFinal Answer: the real text"
    assert parse_react_reply(reply) == "the real text"


def test_parse_react_reply_requires_marker():
    with pytest.raises(AutoRecipeError, match="^reply has no Final Answer marker$"):
        parse_react_reply("Thought: no conclusion yet")


# --- execute: validation ------------------------------------------------------------

def test_execute_rejects_unknown_strategy(health_tax, registry):
    seq = _materialized(health_tax)
    with pytest.raises(ValueError):
        execute(seq, "zigzag", registry.role("domain-expert"), ScriptedGateway(["x"]), registry)


def test_execute_rejects_unbound_placeholders(health_tax, registry):
    seq = resolve_code_steps(
        generate_sequence_deterministic(health_tax, Goal("asset health", "asset profile")),
        health_tax,
    )
    with pytest.raises(ValueError, match="placeholders"):
        execute(seq, "allq", registry.role("domain-expert"), ScriptedGateway(["x"]), registry)


def test_execute_requires_trailing_export(health_tax, registry):
    seq = _materialized(health_tax)
    trimmed = type(seq)(seq.steps[:-1], seq.execution_order, seq.goal, seq.bindings)
    with pytest.raises(ValueError, match="export"):
        execute(trimmed, "allq", registry.role("domain-expert"), ScriptedGateway(["x"]), registry)


# --- execute: strategies -------------------------------------------------------------

def test_single_turn_strategies_ask_once(health_tax, registry):
    seq = _materialized(health_tax)
    for strategy in ("lastq", "allq", "allqcot"):
        gateway = _EchoGateway([THREE_PART_DOC])
        kd, transcript = execute(seq, strategy, registry.role("domain-expert"), gateway, registry)
        assert len(transcript.user_turns()) == 1
        assert len(transcript.replies()) == 1
        assert len(kd.parts) == 3
        assert transcript.strategy == strategy


def test_lastq_sends_only_the_export_step(health_tax, registry):
    seq = _materialized(health_tax)
    gateway = _EchoGateway([THREE_PART_DOC])
    execute(seq, "lastq", registry.role("domain-expert"), gateway, registry)
    session = gateway.sessions[0]
    assert [m.role for m in session] == ["system", "user"]
    assert session[1].content == seq.steps[-1].body


def test_allqcot_is_allq_plus_fixed_suffix(health_tax, registry):
    seq = _materialized(health_tax)
    plain = _EchoGateway([THREE_PART_DOC])
    suffixed = _EchoGateway([THREE_PART_DOC])
    execute(seq, "allq", registry.role("domain-expert"), plain, registry)
    execute(seq, "allqcot", registry.role("domain-expert"), suffixed, registry)
    base = plain.sessions[0][1].content
    assert suffixed.sessions[0][1].content == base + "\n\n" + COT_SUFFIX
    for step in seq.steps:
        assert f"Step {step.index}: {step.body}" in base


def test_allqreact_unwraps_final_answer(health_tax, registry):
    seq = _materialized(health_tax)
    reply = (
        "Question: q\nThought: t\nAnswer: a\n"
        "Thought: Now I know how to answer the final request\n"
        "Final Answer: " + THREE_PART_DOC
    )
    gateway = _EchoGateway([reply])
    kd, transcript = execute(seq, "allqreact", registry.role("domain-expert"), gateway, registry)
    assert len(transcript.user_turns()) == 1
    assert len(kd.parts) == 3
    assert gateway.sessions[0][1].content == wrap_react(seq)


def test_allqreact_rejects_empty_final_answer(health_tax, registry):
    seq = _materialized(health_tax)
    gateway = _EchoGateway(["Thought: done\nFinal Answer: "])
    with pytest.raises(AutoRecipeError, match="^Final Answer marker carries no text$"):
        execute(seq, "allqreact", registry.role("domain-expert"), gateway, registry)


def test_gitq_asks_once_per_step_with_growing_session(health_tax, registry):
    seq = _materialized(health_tax)
    count = len(seq.steps)
    replies = [f"Intermediate answer {i}." for i in range(1, count)] + [THREE_PART_DOC]
    gateway = _EchoGateway(replies)
    kd, transcript = execute(seq, "gitq", registry.role("domain-expert"), gateway, registry)
    assert len(transcript.user_turns()) == count
    assert len(transcript.replies()) == count
    assert len(kd.parts) == 3
    for k, session in enumerate(gateway.sessions, start=1):
        # system + alternating user/assistant, ending on the k-th user turn
        assert len(session) == 2 * k
        assert session[0].role == "system"
        assert session[-1].role == "user"
        assert session[-1].content == seq.steps[k - 1].body
    # the final reply is the document that was split
    assert render_knowledge(kd) == THREE_PART_DOC


def test_strategy_turn_counts_match_contract(health_tax, registry):
    seq = _materialized(health_tax)
    count = len(seq.steps)
    expected = {"lastq": 1, "allq": 1, "allqcot": 1, "allqreact": 1, "gitq": count}
    react_reply = "Thought: done\nFinal Answer: " + THREE_PART_DOC
    for strategy in STRATEGIES:
        if strategy == "gitq":
            replies = ["filler."] * (count - 1) + [THREE_PART_DOC]
        elif strategy == "allqreact":
            replies = [react_reply]
        else:
            replies = [THREE_PART_DOC]
        _, transcript = execute(
            seq, strategy, registry.role("domain-expert"), _EchoGateway(replies), registry
        )
        assert len(transcript.user_turns()) == expected[strategy], strategy


# --- execute: bookkeeping ------------------------------------------------------------

def test_execute_timestamps_are_monotonic(health_tax, registry):
    seq = _materialized(health_tax)
    replies = ["filler."] * (len(seq.steps) - 1) + [THREE_PART_DOC]
    _, transcript = execute(
        seq, "gitq", registry.role("domain-expert"), _EchoGateway(replies), registry,
        clock=ManualClock(),
    )
    stamps = [m.timestamp for m in transcript.messages]
    assert stamps == sorted(stamps)
    assert stamps == list(range(len(stamps)))
    assert transcript.messages[0].role == "system"


def test_execute_empty_reply_fails(health_tax, registry):
    seq = _materialized(health_tax)
    with pytest.raises(
        AutoRecipeError, match=r"^gateway returned an empty reply for step\(s\) \(1, "
    ):
        execute(seq, "allq", registry.role("domain-expert"), _EchoGateway(["   "]), registry)


def test_execute_attaches_step_index_to_gateway_errors(health_tax, registry):
    seq = _materialized(health_tax)
    gateway = ScriptedGateway(replies=[], strict=True)
    with pytest.raises(GatewayError, match="^no scripted reply for session ") as info:
        execute(seq, "gitq", registry.role("domain-expert"), gateway, registry)
    assert info.value.step_index == 1


def test_execute_system_role_with_bindings(health_tax, registry):
    seq = _materialized(health_tax)
    gateway = _EchoGateway([THREE_PART_DOC])
    execute(seq, "allq", registry.role("data-scientist"), gateway, registry)
    system = gateway.sessions[0][0]
    assert system.role == "system"
    assert "electric motor" in system.content
    assert "75 kW induction motor" in system.content


def test_execute_system_role_missing_binding(registry):
    text = (
        "Step 1: Describe the ${asset_class} fleet.\n"
        "Step 2: Please help me export a markdown output as guidelines.\n"
        "Execution Order: Step 1 AND Step 2\n"
    )
    seq = materialize_sequence(parse_plan(text), "electric motor")
    with pytest.raises(MissingBindingError):
        execute(seq, "allq", registry.role("data-scientist"), _EchoGateway(["x"]), registry)


# --- transcripts -------------------------------------------------------------------

def test_transcript_filters():
    transcript = Transcript(strategy="allq", messages=[
        TranscriptMessage("system", "s", (), 0.0),
        TranscriptMessage("user", "u", (1,), 1.0),
        TranscriptMessage("assistant", "a", (1,), 2.0),
    ])
    assert [m.content for m in transcript.user_turns()] == ["u"]
    assert [m.content for m in transcript.replies()] == ["a"]
