"""Confidence-gated iterative answer refinement.

The same question is asked for up to ``max_rounds`` rounds.  Later
rounds carry the full Q/A history in the system context and append a
betterment suffix to the question.  Every reply must end with a
"Confidence: X%" marker; an answer below the threshold is dropped and
stops the loop, and two identical accepted answers in a row mean a
fixed point was reached.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field

from . import metrics
from .errors import AutoRecipeError, GatewayError, NoConfidenceError, NoConfidenceWarning
from .gateway import ChatMessage
from .prompts import PromptRegistry, RoleProfile, default_registry

__all__ = [
    "STOP_REASONS",
    "IterationRecord",
    "RefinementResult",
    "parse_confidence",
    "strip_confidence",
    "refine",
    "iteration_metrics",
]

STOP_REASONS = ("low-confidence", "fixed-point", "max-rounds")

_CONFIDENCE = re.compile(r"Confidence\s*:\s*\**\s*(\d+(?:\.\d+)?)\s*%", re.IGNORECASE)


def parse_confidence(text: str) -> float:
    """Percentage from the last Confidence marker; trailing notes are ignored."""
    matches = list(_CONFIDENCE.finditer(text))
    if not matches:
        raise NoConfidenceError("reply carries no Confidence marker")
    value = float(matches[-1].group(1))
    if value > 100.0:
        raise AutoRecipeError(f"confidence {value}% is outside [0, 100]")
    return value


def strip_confidence(text: str) -> str:
    """Remove the last Confidence marker; anything after it on the same
    line (token-limit notes and the like) goes with it."""
    matches = list(_CONFIDENCE.finditer(text))
    if not matches:
        return text.strip()
    start = matches[-1].start()
    end = text.find("\n", matches[-1].end())
    end = len(text) if end < 0 else end
    return (text[:start] + text[end:]).strip()


@dataclass(frozen=True)
class IterationRecord:
    round: int
    question: str  # the user content actually sent this round
    answer: str  # reply with the confidence line removed; kept even when dropped
    confidence: float
    accepted: bool
    answer_length: int  # token count under the shared tokenizer


@dataclass
class RefinementResult:
    records: list[IterationRecord] = field(default_factory=list)
    final_answer: str = ""
    stop_reason: str = ""

    @property
    def rounds(self) -> int:
        return len(self.records)


def refine(
    gateway,
    role: RoleProfile,
    question: str,
    max_rounds: int = 10,
    confidence_threshold: float = 50.0,
    registry: PromptRegistry | None = None,
) -> RefinementResult:
    """Iterate the question until a stop condition fires.

    The final answer is always the most recent accepted answer; a
    dropped (below-threshold) answer is never returned.  A reply with no
    confidence marker counts as 0% and warns.  A gateway failure raises
    with the partial records attached to the exception.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    if not question.strip():
        raise ValueError("refinement needs a non-empty question")
    registry = registry or default_registry()
    betterment_suffix = registry.get("refinement.betterment").body
    base_system = registry.resolve_role(role).body

    result = RefinementResult()
    qa_log: list[tuple[str, str]] = []
    previous_accepted: str | None = None

    for round_no in range(1, max_rounds + 1):
        system = base_system + "".join(
            f"\n\nQuestion: {q}\nAnswer: {a}" for q, a in qa_log
        )
        user = question if round_no == 1 else f"{question} {betterment_suffix}"
        try:
            reply = gateway.complete([ChatMessage("system", system), ChatMessage("user", user)])
        except GatewayError as exc:
            exc.partial_records = list(result.records)
            raise
        try:
            confidence = parse_confidence(reply)
        except NoConfidenceError:
            warnings.warn(NoConfidenceWarning(f"round {round_no}: no confidence marker"))
            confidence = 0.0
        answer = strip_confidence(reply)
        accepted = confidence >= confidence_threshold
        result.records.append(IterationRecord(
            round=round_no,
            question=user,
            answer=answer,
            confidence=confidence,
            accepted=accepted,
            answer_length=metrics.tokenize(answer).total,
        ))
        if not accepted:
            result.stop_reason = "low-confidence"
            break
        result.final_answer = answer
        qa_log.append((user, answer))
        if previous_accepted == answer:
            result.stop_reason = "fixed-point"
            break
        previous_accepted = answer
    else:
        result.stop_reason = "max-rounds"
    return result


def iteration_metrics(records: list[IterationRecord], weighted: bool = False) -> list[dict]:
    """Per-round length, coverage and similarity against the round-1 answer."""
    if not records:
        return []
    base = records[0].answer
    rows = []
    for record in records:
        rows.append({
            "round": record.round,
            "confidence": record.confidence,
            "accepted": record.accepted,
            "answer_length": record.answer_length,
            "coverage_vs_first": metrics.coverage(base, record.answer, weighted=weighted),
            "similarity_vs_first": metrics.similarity(base, record.answer),
        })
    return rows
