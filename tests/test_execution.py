"""Strategy execution, reply splitting, and transcript bookkeeping."""

from __future__ import annotations

import hashlib
import random
import warnings

import pytest

from autorecipe import presets
from autorecipe._struct import replace
from autorecipe.errors import AutoRecipeError, GatewayError, NoPartsWarning
from autorecipe.execution import (
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


# --- knowledge splitting -----------------------------------------------------------

def test_split_parts_three_labeled_parts(three_part_doc):
    kd = split_parts(three_part_doc)
    assert len(kd.parts) == 3
    assert kd.preamble == ""
    assert "electric motor" in kd.parts[0].body
    assert "accelerometer" in kd.parts[2].body
    assert render_knowledge(kd) == three_part_doc


def test_split_parts_markdown_headings():
    text = "# Overview\nintro text\n## Health\nkpi text\n## Sensors\nsensor text\n"
    kd = split_parts(text)
    assert len(kd.parts) == 3
    assert kd.parts[1].heading == "## Health\n"
    assert render_knowledge(kd) == text


def test_split_parts_cuts_lines_only_at_line_ends():
    # U+2028 does not end a Markdown line, so the "heading" after it is text.
    text = "Intro line\u2028## Part 1: Not a heading in markdown\nbody\n\n## Part 2: Real\nmore\n"
    kd = split_parts(text)
    assert kd.preamble == "Intro line\u2028## Part 1: Not a heading in markdown\nbody\n\n"
    assert [(p.heading, p.body) for p in kd.parts] == [("## Part 2: Real\n", "more\n")]
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
    assert "Part 4" in kd.parts[2].body
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
        assert [m.role for m in transcript.messages] == ["system", "user", "assistant"]
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


# The one user turn allqreact sends for each preset plan and for the
# deterministic plan.  Session keys hash it, so a changed scaffold makes every
# recorded allqreact store miss.
ALLQREACT_TURN_SHA256 = {
    "ASSET_PROFILE_PLAN": "262562116bf1da1531e439286c388c055c712a8f46d4e24d3f4aa3e489552952",
    "ENVIRONMENTAL_IMPACT_PLAN": "ba48dd2627efc990980683d9dcde75e1af3051f37bfa23360e117ca1ae7079c0",
    "deterministic": "85eb039ab195edcc6ab7ec43163de0597e835ce3cb2aba9e3bfcb9e884100354",
}


def test_allqreact_user_turn_is_pinned(health_tax, registry):
    plans = {name: parse_plan(getattr(presets, name))
             for name in ("ASSET_PROFILE_PLAN", "ENVIRONMENTAL_IMPACT_PLAN")}
    plans["deterministic"] = resolve_code_steps(
        generate_sequence_deterministic(health_tax, Goal("asset health", "asset profile")),
        health_tax,
    )
    reply = "Thought: done\nFinal Answer: " + THREE_PART_DOC
    turns = {}
    for name, seq in plans.items():
        done = materialize_sequence(seq, "electric motor", "a 75 kW induction motor")
        _, transcript = execute(done, "allqreact", registry.role("domain-expert"),
                                ScriptedGateway([reply]), registry)
        [turn] = transcript.user_turns()
        turns[name] = hashlib.sha256(turn.content.encode("utf-8")).hexdigest()
    assert turns == ALLQREACT_TURN_SHA256


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
    assert [m.role for m in transcript.messages[1:]] == ["user", "assistant"] * count
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


# --- execute: the late hook ------------------------------------------------------------

def _replies_for(strategy, count):
    if strategy == "gitq":
        return ["filler."] * (count - 1) + [THREE_PART_DOC]
    if strategy == "allqreact":
        return ["Thought: done\nFinal Answer: " + THREE_PART_DOC]
    return [THREE_PART_DOC]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_late_hook_fills_each_step_right_before_its_turn(health_tax, registry, strategy):
    seq = _materialized(health_tax)
    stand_in = replace(seq, steps=tuple(replace(s, body=f"stand-in {s.index}") for s in seq.steps))
    plain = _EchoGateway(_replies_for(strategy, len(seq.steps)))
    execute(seq, strategy, registry.role("domain-expert"), plain, registry)
    hooked = _EchoGateway(_replies_for(strategy, len(seq.steps)))
    passed = []  # (step index, turns sent before the hook saw the step)

    def late(step):
        passed.append((step.index, len(hooked.sessions)))
        return seq.steps[step.index - 1]

    execute(stand_in, strategy, registry.role("domain-expert"), hooked, registry, late=late)
    # What the hook returns is what goes out, byte for byte.
    assert hooked.sessions == plain.sessions
    indices = [s.index for s in seq.steps]
    if strategy == "gitq":
        assert passed == [(i, i - 1) for i in indices]
    elif strategy == "lastq":
        assert passed == [(indices[-1], 0)]
    else:
        assert passed == [(i, 0) for i in indices]


def test_late_hook_error_stops_before_the_next_turn(health_tax, registry):
    seq = _materialized(health_tax)
    gateway = _EchoGateway(_replies_for("gitq", len(seq.steps)))

    def late(step):
        if step.index == 3:
            raise RuntimeError("stop here")
        return step

    with pytest.raises(RuntimeError, match="stop here"):
        execute(seq, "gitq", registry.role("domain-expert"), gateway, registry, late=late)
    assert len(gateway.sessions) == 2


def test_late_hook_runs_after_the_sequence_checks(health_tax, registry):
    unbound = resolve_code_steps(
        generate_sequence_deterministic(health_tax, Goal("asset health", "asset profile")),
        health_tax,
    )
    seen = []
    with pytest.raises(ValueError, match="placeholders"):
        execute(unbound, "gitq", registry.role("domain-expert"), ScriptedGateway(["x"]),
                registry, late=seen.append)
    assert seen == []


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


def test_execute_gateway_failure_propagates(health_tax, registry):
    seq = _materialized(health_tax)
    gateway = ScriptedGateway(replies=[], strict=True)
    with pytest.raises(GatewayError, match="^no scripted reply for session "):
        execute(seq, "gitq", registry.role("domain-expert"), gateway, registry)
    assert len(gateway.calls) == 1


# --- transcripts -------------------------------------------------------------------

def test_transcript_filters():
    transcript = Transcript(strategy="allq", messages=[
        TranscriptMessage("system", "s", (), 0.0),
        TranscriptMessage("user", "u", (1,), 1.0),
        TranscriptMessage("assistant", "a", (1,), 2.0),
    ])
    assert [m.content for m in transcript.user_turns()] == ["u"]
