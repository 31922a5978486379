"""Strategies for running a materialized prompt sequence against a gateway.

Five strategies are supported: the last question alone (lastq), all
questions in one turn (allq), the same with a chain-of-thought suffix
(allqcot), a scripted reasoning scaffold (allqreact), and one guided
turn per step (gitq).  Whatever the strategy, the final reply is split
into a knowledge document of one to three labeled parts.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field

from .errors import AutoRecipeError, GatewayError, MissingBindingError, NoPartsWarning
from .gateway import ChatMessage
from .planning import PromptSequence
from .presets import COT_SUFFIX, REACT_FINAL_BLOCK, REACT_FORMAT_BLOCK, REACT_HEADER, STRATEGIES
from .prompts import PromptRegistry, RoleProfile, default_registry, instantiate

__all__ = [
    "STRATEGIES",
    "PART_LABELS",
    "ManualClock",
    "TranscriptMessage",
    "Transcript",
    "KnowledgePart",
    "KnowledgeDocument",
    "wrap_react",
    "parse_react_reply",
    "split_parts",
    "render_knowledge",
    "execute",
]

PART_LABELS = ("asset-description", "kpi-explanation", "measurement")


class ManualClock:
    """Deterministic logical clock; default for scripted and replayed runs."""

    def __init__(self, start: float = 0.0, step: float = 1.0):
        self._now = start
        self._step = step

    def __call__(self) -> float:
        now = self._now
        self._now += self._step
        return now


@dataclass(frozen=True)
class TranscriptMessage:
    role: str
    content: str
    steps: tuple[int, ...]  # sequence steps this message carries or answers
    timestamp: float


@dataclass
class Transcript:
    strategy: str
    messages: list[TranscriptMessage] = field(default_factory=list)

    def user_turns(self) -> list[TranscriptMessage]:
        return [m for m in self.messages if m.role == "user"]

    def replies(self) -> list[TranscriptMessage]:
        return [m for m in self.messages if m.role == "assistant"]


# --- knowledge documents ------------------------------------------------------

@dataclass(frozen=True)
class KnowledgePart:
    label: str
    heading: str  # raw heading line including its newline; empty when headingless
    body: str

    @property
    def text(self) -> str:
        return self.heading + self.body


@dataclass(frozen=True)
class KnowledgeDocument:
    parts: tuple[KnowledgePart, ...]
    preamble: str = ""

    def part(self, label: str) -> KnowledgePart:
        for p in self.parts:
            if p.label == label:
                return p
        raise KeyError(label)


_HEADING_LINE = re.compile(r"^(?:#{1,2}\s+\S.*|(?:\*\*)?Part\s*[1-9]\d*\b.*)$", re.IGNORECASE)


def split_parts(text: str) -> KnowledgeDocument:
    """Split reply markdown into at most three labeled parts.

    Boundaries are "Part N" marker lines or the first three H1/H2
    headings, in order of appearance.  Heading-free text becomes a
    single asset-description part, with a warning.  The original text is
    reconstructable from preamble + parts.
    """
    if not text or not text.strip():
        raise AutoRecipeError("knowledge text is empty")
    lines = text.splitlines(keepends=True)
    boundaries = [
        i for i, line in enumerate(lines) if _HEADING_LINE.match(line.rstrip("\r\n"))
    ][:3]
    if not boundaries:
        warnings.warn(NoPartsWarning("no part headings found; treating text as one part"))
        return KnowledgeDocument(parts=(KnowledgePart(PART_LABELS[0], "", text),))
    preamble = "".join(lines[: boundaries[0]])
    parts = []
    for n, start in enumerate(boundaries):
        end = boundaries[n + 1] if n + 1 < len(boundaries) else len(lines)
        parts.append(KnowledgePart(
            label=PART_LABELS[n],
            heading=lines[start],
            body="".join(lines[start + 1 : end]),
        ))
    return KnowledgeDocument(parts=tuple(parts), preamble=preamble)


def render_knowledge(kd: KnowledgeDocument) -> str:
    return kd.preamble + "".join(p.text for p in kd.parts)


# --- strategy plumbing -----------------------------------------------------------

def wrap_react(seq: PromptSequence) -> str:
    """Single user prompt: enumerated questions, the reasoning format block,
    and the final request framed as a Final Answer."""
    if len(seq.steps) < 2:
        raise AutoRecipeError("the reasoning scaffold needs at least two steps")
    questions = "\n".join(
        f"Question {s.index}: {s.body}" for s in seq.steps[:-1]
    )
    final = REACT_FINAL_BLOCK.format(final_request=seq.steps[-1].body)
    return "\n\n".join([REACT_HEADER, questions, REACT_FORMAT_BLOCK, final])


_FINAL_ANSWER = re.compile(r"Final Answer:\s*", re.IGNORECASE)


def parse_react_reply(text: str) -> str:
    """The text after the last Final Answer marker."""
    markers = list(_FINAL_ANSWER.finditer(text))
    if not markers:
        raise AutoRecipeError("reply has no Final Answer marker")
    return text[markers[-1].end():].strip()


# --- execution --------------------------------------------------------------------

def _system_content(seq: PromptSequence, role: RoleProfile, registry: PromptRegistry) -> str:
    template = registry.resolve_role(role)
    needed = template.required_placeholders
    if not needed:
        return template.body
    missing = needed - seq.bindings.keys()
    if missing:
        raise MissingBindingError(missing, context=template.id)
    return instantiate(template, {k: seq.bindings[k] for k in needed})


def execute(
    seq: PromptSequence,
    strategy: str,
    role: RoleProfile,
    gateway,
    registry: PromptRegistry | None = None,
    clock=None,
) -> tuple[KnowledgeDocument, Transcript]:
    """Run the sequence under one strategy and split the outcome into a
    knowledge document.

    The sequence must be fully materialized and must end with an export
    step.  With a scripted gateway the transcript is deterministic.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if not seq.steps:
        raise ValueError("cannot execute an empty sequence")
    if seq.placeholders:
        raise ValueError(
            "sequence still has unbound placeholders: " + ", ".join(sorted(seq.placeholders))
        )
    if seq.steps[-1].kind != "export":
        raise ValueError("the last step must be an export step")

    registry = registry or default_registry()
    clock = clock or ManualClock()
    system = ChatMessage("system", _system_content(seq, role, registry))
    transcript = Transcript(strategy=strategy)
    transcript.messages.append(TranscriptMessage("system", system.content, (), clock()))
    all_steps = tuple(s.index for s in seq.steps)

    def ask(session: list[ChatMessage], steps: tuple[int, ...]) -> str:
        transcript.messages.append(
            TranscriptMessage("user", session[-1].content, steps, clock())
        )
        try:
            reply = gateway.complete(session)
        except GatewayError as exc:
            exc.step_index = steps[-1] if steps else None
            raise
        if not reply.strip():
            raise AutoRecipeError(f"gateway returned an empty reply for step(s) {steps}")
        transcript.messages.append(TranscriptMessage("assistant", reply, steps, clock()))
        return reply

    if strategy == "lastq":
        content = seq.steps[-1].body
        reply = ask([system, ChatMessage("user", content)], (seq.steps[-1].index,))
        answer = reply
    elif strategy in ("allq", "allqcot"):
        content = "\n\n".join(f"Step {s.index}: {s.body}" for s in seq.steps)
        if strategy == "allqcot":
            content = content + "\n\n" + COT_SUFFIX
        reply = ask([system, ChatMessage("user", content)], all_steps)
        answer = reply
    elif strategy == "allqreact":
        content = wrap_react(seq)
        reply = ask([system, ChatMessage("user", content)], all_steps)
        answer = parse_react_reply(reply)
        if not answer:
            raise AutoRecipeError("Final Answer marker carries no text")
    else:  # gitq
        session: list[ChatMessage] = [system]
        reply = ""
        for step in seq.steps:
            session.append(ChatMessage("user", step.body))
            reply = ask(session, (step.index,))
            session.append(ChatMessage("assistant", reply))
        answer = reply

    return split_parts(answer), transcript
