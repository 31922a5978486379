"""Confidence parsing and the iterative refinement loop."""

from __future__ import annotations

import random

import pytest

from autorecipe.errors import (
    AutoRecipeError,
    GatewayError,
    NoConfidenceError,
    NoConfidenceWarning,
)
from autorecipe.gateway import ScriptedGateway
from autorecipe.refinement import (
    STOP_REASONS,
    iteration_metrics,
    parse_confidence,
    refine,
    strip_confidence,
)

QUESTION = "Describe a wind turbine, and its components."

BETTERMENT = "Generate better solutions in terms of readability, accuracy, and completeness."


class _Recorder:
    """Canned replies plus a copy of every session that was sent."""

    def __init__(self, replies):
        self._replies = list(replies)
        self.sessions = []

    def complete(self, session):
        self.sessions.append(list(session))
        return self._replies.pop(0)


# --- confidence markers ------------------------------------------------------------

def test_parse_confidence_forms():
    assert parse_confidence("Answer.\nConfidence: 85%") == 85.0
    assert parse_confidence("Answer. confidence : 72.5 %") == 72.5
    assert parse_confidence("Answer.\nConfidence: **90%**") == 90.0
    assert parse_confidence("Answer.\nConfidence: 0%") == 0.0


def test_parse_confidence_last_marker_wins():
    text = "Draft. Confidence: 40%\nRevised. Confidence: 80%"
    assert parse_confidence(text) == 80.0


def test_parse_confidence_errors():
    with pytest.raises(NoConfidenceError):
        parse_confidence("no marker anywhere")
    with pytest.raises(AutoRecipeError, match=r"^confidence 150\.0% is outside \[0, 100\]$"):
        parse_confidence("Confidence: 150%")


def test_strip_confidence_trailing_line():
    assert strip_confidence("Answer text.\nConfidence: 90%") == "Answer text."


def test_strip_confidence_inline_marker():
    assert strip_confidence("Answer text. Confidence: 90%") == "Answer text."


def test_strip_confidence_takes_same_line_notes():
    assert strip_confidence("Body.\nConfidence: 90% (TOKENSTOP)") == "Body."


def test_strip_confidence_keeps_following_lines():
    text = "Intro\nConfidence: 88% note\nPostscript"
    assert strip_confidence(text) == "Intro\n\nPostscript"


def test_strip_confidence_only_last_marker():
    text = "Early guess. Confidence: 10%\nBody\nConfidence: 90%"
    assert strip_confidence(text) == "Early guess. Confidence: 10%\nBody"


def test_strip_confidence_without_marker():
    assert strip_confidence("  plain text  ") == "plain text"


# --- refinement loop -----------------------------------------------------------------

def test_refine_fixed_point(registry):
    gateway = _Recorder([
        "A wind turbine captures wind energy.\nConfidence: 90%",
        "A wind turbine captures wind energy.\nConfidence: 95%",
    ])
    result = refine(gateway, registry.role("domain-expert"), QUESTION, max_rounds=10)
    assert result.stop_reason == "fixed-point"
    assert result.rounds == 2
    assert result.final_answer == "A wind turbine captures wind energy."
    assert all(r.accepted for r in result.records)


def test_refine_low_confidence_keeps_last_accepted(registry):
    gateway = _Recorder([
        "Good answer about turbines.\nConfidence: 80%",
        "Weak answer.\nConfidence: 30%",
    ])
    result = refine(gateway, registry.role("domain-expert"), QUESTION, max_rounds=10)
    assert result.stop_reason == "low-confidence"
    assert result.rounds == 2
    assert result.final_answer == "Good answer about turbines."
    assert result.records[1].accepted is False
    assert result.records[1].answer == "Weak answer."


def test_refine_max_rounds(registry):
    gateway = _Recorder([
        "First pass.\nConfidence: 60%",
        "Second pass.\nConfidence: 70%",
        "Third pass.\nConfidence: 80%",
    ])
    result = refine(gateway, registry.role("domain-expert"), QUESTION, max_rounds=3)
    assert result.stop_reason == "max-rounds"
    assert result.rounds == 3
    assert result.final_answer == "Third pass."


def test_refine_first_round_drop_returns_nothing(registry):
    gateway = _Recorder(["Bad answer.\nConfidence: 10%"])
    result = refine(gateway, registry.role("domain-expert"), QUESTION)
    assert result.stop_reason == "low-confidence"
    assert result.final_answer == ""
    assert result.records[0].answer == "Bad answer."


def test_refine_threshold_is_inclusive(registry):
    gateway = _Recorder(["Edge answer.\nConfidence: 50%"])
    result = refine(
        gateway, registry.role("domain-expert"), QUESTION,
        max_rounds=1, confidence_threshold=50.0,
    )
    assert result.records[0].accepted
    assert result.final_answer == "Edge answer."


def test_refine_question_construction(registry):
    gateway = _Recorder([
        "First.\nConfidence: 70%",
        "Second.\nConfidence: 70%",
        "Second.\nConfidence: 70%",
    ])
    result = refine(gateway, registry.role("domain-expert"), QUESTION, max_rounds=10)
    assert result.records[0].question == QUESTION
    assert result.records[1].question == f"{QUESTION} {BETTERMENT}"
    assert gateway.sessions[0][1].content == QUESTION
    assert gateway.sessions[1][1].content == f"{QUESTION} {BETTERMENT}"


def test_refine_system_carries_qa_history(registry):
    gateway = _Recorder([
        "First answer.\nConfidence: 70%",
        "Second answer.\nConfidence: 30%",
    ])
    refine(gateway, registry.role("domain-expert"), QUESTION, max_rounds=5)
    base = registry.resolve_role(registry.role("domain-expert")).body
    first_system = gateway.sessions[0][0].content
    second_system = gateway.sessions[1][0].content
    assert first_system == base
    assert second_system.startswith(base)
    assert f"Question: {QUESTION}\nAnswer: First answer." in second_system


def test_refine_missing_marker_warns_and_drops(registry):
    gateway = _Recorder(["an unmarked reply"])
    with pytest.warns(NoConfidenceWarning):
        result = refine(gateway, registry.role("domain-expert"), QUESTION)
    assert result.records[0].confidence == 0.0
    assert result.stop_reason == "low-confidence"


def test_refine_out_of_range_confidence_raises(registry):
    gateway = _Recorder(["Sure. Confidence: 120%"])
    with pytest.raises(AutoRecipeError, match=r"^confidence 120\.0% is outside \[0, 100\]$"):
        refine(gateway, registry.role("domain-expert"), QUESTION)


def test_refine_argument_validation(registry):
    with pytest.raises(ValueError):
        refine(_Recorder([]), registry.role("domain-expert"), QUESTION, max_rounds=0)
    with pytest.raises(ValueError):
        refine(_Recorder([]), registry.role("domain-expert"), "   ")


def test_refine_gateway_failure_attaches_partial_records(registry):
    gateway = ScriptedGateway(replies=["First.\nConfidence: 90%"], strict=True)
    with pytest.raises(GatewayError, match="^no scripted reply for session ") as info:
        refine(gateway, registry.role("domain-expert"), QUESTION, max_rounds=3)
    partial = info.value.partial_records
    assert len(partial) == 1
    assert partial[0].answer == "First."


def test_refine_answer_length_uses_token_count(registry):
    gateway = _Recorder(["Alpha beta gamma.\nConfidence: 90%"])
    result = refine(gateway, registry.role("domain-expert"), QUESTION, max_rounds=1)
    assert result.records[0].answer_length == 3


def test_refine_never_returns_a_dropped_answer(registry):
    rng = random.Random(20240814)
    role = registry.role("domain-expert")
    for _ in range(50):
        max_rounds = 5
        replies = []
        bodies = []
        previous_body = None
        for i in range(max_rounds):
            if previous_body is not None and rng.random() < 0.25:
                body = previous_body
            else:
                body = f"Answer variant {i} {rng.choice(['a', 'b', 'c'])}."
            confidence = rng.choice([10, 30, 50, 70, 90])
            replies.append(f"{body}\nConfidence: {confidence}%")
            bodies.append((body, confidence))
            previous_body = body
        result = refine(
            _Recorder(replies), role, QUESTION,
            max_rounds=max_rounds, confidence_threshold=50.0,
        )
        assert result.stop_reason in STOP_REASONS
        assert result.rounds <= max_rounds
        accepted = [r.answer for r in result.records if r.accepted]
        dropped = [r.answer for r in result.records if not r.accepted]
        if accepted:
            assert result.final_answer == accepted[-1]
        else:
            assert result.final_answer == ""
        if dropped:
            # a drop always ends the loop
            assert result.records[-1].accepted is False
            assert len(dropped) == 1
        for answer in dropped:
            if answer not in accepted:
                assert result.final_answer != answer


# --- reporting ------------------------------------------------------------------------

def test_iteration_metrics_rows(registry):
    gateway = _Recorder([
        "alpha beta gamma.\nConfidence: 60%",
        "alpha beta gamma delta.\nConfidence: 70%",
    ])
    result = refine(gateway, registry.role("domain-expert"), QUESTION, max_rounds=2)
    rows = iteration_metrics(result.records)
    assert [row["round"] for row in rows] == [1, 2]
    assert rows[0]["coverage_vs_first"] == pytest.approx(100.0)
    assert rows[0]["similarity_vs_first"] == pytest.approx(1.0)
    assert rows[1]["coverage_vs_first"] == pytest.approx(100.0)
    assert 0.0 <= rows[1]["similarity_vs_first"] <= 1.0
    assert rows[1]["answer_length"] == 4


def test_iteration_metrics_empty():
    assert iteration_metrics([]) == []

