"""Confidence parsing and the iterative refinement loop."""

from __future__ import annotations

import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autorecipe.errors import (
    AutoRecipeError,
    GatewayError,
    NoConfidenceWarning,
)
from autorecipe import metrics
from autorecipe.gateway import ScriptedGateway
from autorecipe.refinement import (
    IterationRecord,
    iteration_metrics,
    refine,
    split_confidence,
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
    assert split_confidence("Answer.\nConfidence: 85%") == ("Answer.", 85.0)
    assert split_confidence("Answer. confidence : 72.5 %") == ("Answer.", 72.5)
    assert split_confidence("Answer.\nConfidence: **90%**") == ("Answer.", 90.0)
    assert split_confidence("Answer.\nConfidence: 0%") == ("Answer.", 0.0)


def test_parse_confidence_last_marker_wins():
    text = "Draft. Confidence: 40%\nRevised. Confidence: 80%"
    assert split_confidence(text)[1] == 80.0


def test_parse_confidence_errors():
    assert split_confidence("no marker anywhere") == ("no marker anywhere", None)
    with pytest.raises(AutoRecipeError, match=r"^confidence 150\.0% is outside \[0, 100\]$"):
        split_confidence("Confidence: 150%")


def test_strip_confidence_trailing_line():
    assert split_confidence("Answer text.\nConfidence: 90%")[0] == "Answer text."


def test_strip_confidence_inline_marker():
    assert split_confidence("Answer text. Confidence: 90%")[0] == "Answer text."


def test_strip_confidence_takes_same_line_notes():
    assert split_confidence("Body.\nConfidence: 90% (TOKENSTOP)")[0] == "Body."


def test_strip_confidence_keeps_following_lines():
    text = "Intro\nConfidence: 88% note\nPostscript"
    assert split_confidence(text)[0] == "Intro\n\nPostscript"


def test_strip_confidence_only_last_marker():
    text = "Early guess. Confidence: 10%\nBody\nConfidence: 90%"
    assert split_confidence(text)[0] == "Early guess. Confidence: 10%\nBody"


def test_strip_confidence_without_marker():
    assert split_confidence("  plain text  ") == ("plain text", None)


# The two functions split_confidence replaces, as they were: each scanned
# the reply for its markers on its own.
_ORACLE_MARKER = re.compile(r"Confidence\s*:\s*\**\s*(\d+(?:\.\d+)?)\s*%", re.IGNORECASE)


def _oracle_parse_confidence(text):
    matches = list(_ORACLE_MARKER.finditer(text))
    if not matches:
        return None
    value = float(matches[-1].group(1))
    if value > 100.0:
        raise AutoRecipeError(f"confidence {value}% is outside [0, 100]")
    return value


def _oracle_strip_confidence(text):
    matches = list(_ORACLE_MARKER.finditer(text))
    if not matches:
        return text.strip()
    start = matches[-1].start()
    end = text.find("\n", matches[-1].end())
    end = len(text) if end < 0 else end
    return (text[:start] + text[end:]).strip()


_PROSE = st.text(alphabet=st.sampled_from("ab %:*.\n\tConfidence0123456789"), max_size=12)


@st.composite
def _replies(draw):
    """Prose with 0-3 markers, each of 0-150 in any of its written forms."""
    parts = [draw(_PROSE)]
    for _ in range(draw(st.integers(0, 3))):
        value = draw(st.one_of(st.integers(0, 150).map(str),
                               st.floats(0, 150).map(lambda v: f"{v:.2f}")))
        stars = draw(st.sampled_from(["", "**"]))
        label = draw(st.sampled_from(["Confidence", "confidence", "CONFIDENCE"]))
        space = draw(st.sampled_from(["", " ", "\t"]))
        parts.append(f"{label}{space}:{space}{stars}{value}{space}%{stars}")
        parts.append(draw(st.sampled_from(["", " (TOKENSTOP)", " note", "\n"])) + draw(_PROSE))
    return "".join(parts)


@settings(max_examples=300, deadline=None)
@given(text=_replies())
def test_split_confidence_equals_the_two_scans_it_replaces(text):
    try:
        expected = (_oracle_strip_confidence(text), _oracle_parse_confidence(text))
    except AutoRecipeError as exc:
        with pytest.raises(AutoRecipeError, match=f"^{re.escape(str(exc))}$"):
            split_confidence(text)
    else:
        assert split_confidence(text) == expected


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
    refine(gateway, registry.role("domain-expert"), QUESTION, max_rounds=10)
    assert [session[1].content for session in gateway.sessions] == [
        QUESTION, f"{QUESTION} {BETTERMENT}", f"{QUESTION} {BETTERMENT}",
    ]


def test_refine_system_carries_qa_history(registry):
    gateway = _Recorder([
        "First answer.\nConfidence: 70%",
        "Second answer.\nConfidence: 30%",
    ])
    refine(gateway, registry.role("domain-expert"), QUESTION, max_rounds=5)
    base = registry.get(registry.role("domain-expert"))
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


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf"), 100.5])
def test_refine_refuses_a_threshold_no_confidence_can_meet(registry, threshold):
    gateway = _Recorder(["Answer.\nConfidence: 100%"])
    with pytest.raises(ValueError, match="^confidence_threshold must be a finite number at most 100"):
        refine(gateway, registry.role("domain-expert"), QUESTION, confidence_threshold=threshold)
    assert gateway.sessions == []


@pytest.mark.parametrize("threshold", [-5.0, 100.0])
def test_refine_accepts_a_threshold_a_confidence_can_meet(registry, threshold):
    result = refine(_Recorder(["Answer.\nConfidence: 100%"]), registry.role("domain-expert"),
                    QUESTION, max_rounds=1, confidence_threshold=threshold)
    assert (result.final_answer, result.stop_reason) == ("Answer.", "max-rounds")


def test_refine_gateway_failure_propagates(registry):
    gateway = ScriptedGateway(replies=["First.\nConfidence: 90%"], strict=True)
    with pytest.raises(GatewayError, match="^no scripted reply for session "):
        refine(gateway, registry.role("domain-expert"), QUESTION, max_rounds=3)
    assert len(gateway.calls) == 2


def test_refine_answer_length_uses_token_count(registry):
    gateway = _Recorder(["Alpha beta gamma.\nConfidence: 90%"])
    result = refine(gateway, registry.role("domain-expert"), QUESTION, max_rounds=1)
    assert [row["answer_length"] for row in iteration_metrics(result.records)] == [3]


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
        assert result.stop_reason in ("low-confidence", "fixed-point", "max-rounds")
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


def _rows_one_by_one(records, weighted):
    """The rows as each was computed from the texts themselves."""
    base = records[0].answer
    return [{
        "round": record.round,
        "confidence": record.confidence,
        "accepted": record.accepted,
        "answer_length": metrics.tokenize(record.answer).total,
        "coverage_vs_first": metrics.coverage(base, record.answer, weighted=weighted),
        "similarity_vs_first": metrics.similarity(base, record.answer),
    } for record in records]


def _outcome(rows):
    try:
        return rows()
    except AutoRecipeError as exc:
        return str(exc)


_ANSWER = st.lists(st.sampled_from(["motor", "Motor", "stator", "rotor", "é", "ß", "  ", ".",
                                    "\u2019s", "x2", "_"]), max_size=8).map(" ".join)


@given(answers=st.lists(_ANSWER, min_size=1, max_size=5), weighted=st.booleans())
def test_iteration_metrics_rows_equal_the_row_by_row_formula(answers, weighted):
    records = [IterationRecord(n, answer, 60.0, True)
               for n, answer in enumerate(answers, start=1)]
    expected = _outcome(lambda: _rows_one_by_one(records, weighted))
    tokenized = []
    real_tokenize = metrics.tokenize

    def tokenize(text):
        tokenized.append(text)
        return real_tokenize(text)

    with mock.patch.object(metrics, "tokenize", tokenize):
        assert _outcome(lambda: iteration_metrics(records, weighted)) == expected
    # Each answer is tokenized once, the round-1 answer included.
    assert tokenized == answers

