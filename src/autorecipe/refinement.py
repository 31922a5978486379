"""Confidence-gated iterative answer refinement.

The same question is asked for up to ``max_rounds`` rounds.  Later
rounds carry the full Q/A history in the system context and append a
betterment suffix to the question.  Every reply should end with a
"Confidence: X%" marker, which ``split_confidence`` finds and cuts off in
one scan; a reply with none scores 0% and warns.  An answer below the
threshold is dropped and stops the loop, and two identical accepted
answers in a row mean a fixed point was reached.
"""

from __future__ import annotations

import math
import re
import warnings

from ._struct import Struct
from .errors import AutoRecipeError, NoConfidenceWarning
from .gateway import ChatMessage
from .prompts import PromptRegistry, default_registry

__all__ = [
    "IterationRecord",
    "RefinementResult",
    "split_confidence",
    "refine",
    "iteration_metrics",
]

_CONFIDENCE = re.compile(r"Confidence\s*:\s*\**\s*(\d+(?:\.\d+)?)\s*%", re.IGNORECASE)


def split_confidence(text: str) -> tuple[str, float | None]:
    """The reply without its last Confidence marker, and that marker's percentage.

    Anything after the marker on its line (token-limit notes and the like)
    goes with it.  With no marker the percentage is None and the answer is
    the whole reply.  A percentage above 100 raises AutoRecipeError.
    """
    last = None
    for last in _CONFIDENCE.finditer(text):
        pass
    if last is None:
        return text.strip(), None
    value = float(last.group(1))
    if value > 100.0:
        raise AutoRecipeError(f"confidence {value}% is outside [0, 100]")
    end = text.find("\n", last.end())
    end = len(text) if end < 0 else end
    return (text[:last.start()] + text[end:]).strip(), value


class IterationRecord(Struct):
    round: int
    answer: str  # reply with the confidence line removed; kept even when dropped
    confidence: float
    accepted: bool


class RefinementResult(Struct):
    records: list[IterationRecord]
    final_answer: str  # empty when no answer was accepted
    stop_reason: str  # "low-confidence", "fixed-point" or "max-rounds"

    @property
    def rounds(self) -> int:
        return len(self.records)


def refine(
    gateway,
    role: str,
    question: str,
    max_rounds: int = 10,
    confidence_threshold: float = 50.0,
    registry: PromptRegistry | None = None,
) -> RefinementResult:
    """Iterate the question until a stop condition fires.

    The final answer is always the most recent accepted answer; a
    dropped (below-threshold) answer is never returned.  A reply with no
    confidence marker counts as 0% and warns.

    ``role`` is the id of the system prompt that the Q/A history is
    appended to; its text is sent as it stands.  The threshold must be a
    finite number at most 100, and ``max_rounds`` at least 1; anything
    else raises ValueError before the first call.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    if not (math.isfinite(confidence_threshold) and confidence_threshold <= 100.0):
        raise ValueError(
            f"confidence_threshold must be a finite number at most 100, got {confidence_threshold}"
        )
    if not question.strip():
        raise ValueError("refinement needs a non-empty question")
    registry = registry or default_registry()
    betterment_suffix = registry.get("refinement.betterment")
    base_system = registry.get(role)

    records: list[IterationRecord] = []
    qa_log: list[tuple[str, str]] = []
    final_answer = ""
    stop_reason = "max-rounds"

    for round_no in range(1, max_rounds + 1):
        system = base_system + "".join(
            f"\n\nQuestion: {q}\nAnswer: {a}" for q, a in qa_log
        )
        user = question if round_no == 1 else f"{question} {betterment_suffix}"
        reply = gateway.complete([ChatMessage("system", system), ChatMessage("user", user)])
        answer, confidence = split_confidence(reply)
        if confidence is None:
            warnings.warn(NoConfidenceWarning(f"round {round_no}: no confidence marker"))
            confidence = 0.0
        accepted = confidence >= confidence_threshold
        records.append(IterationRecord(round_no, answer, confidence, accepted))
        if not accepted:
            stop_reason = "low-confidence"
            break
        if answer == final_answer and round_no > 1:
            stop_reason = "fixed-point"
            break
        final_answer = answer
        qa_log.append((user, answer))
    return RefinementResult(records, final_answer, stop_reason)


def iteration_metrics(records: list[IterationRecord], weighted: bool = False) -> list[dict]:
    """Per-round token count, coverage and similarity against the round-1
    answer; each answer is tokenized once."""
    from .metrics import coverage, similarity, tokenize  # generate never loads it

    profiles = [tokenize(record.answer) for record in records]
    return [
        {
            "round": record.round,
            "confidence": record.confidence,
            "accepted": record.accepted,
            "answer_length": profile.total,
            "coverage_vs_first": coverage(profiles[0], profile, weighted=weighted),
            "similarity_vs_first": similarity(profiles[0], profile),
        }
        for record, profile in zip(records, profiles)
    ]
