"""Strategies for running a materialized prompt sequence against a gateway.

Five strategies are supported: the last question alone (lastq), all
questions in one turn (allq), the same with a chain-of-thought suffix
(allqcot), a scripted reasoning scaffold (allqreact), and one guided
turn per step (gitq).  Whatever the strategy, the final reply is split
into a knowledge document of one to three parts.
"""

from __future__ import annotations

import re
import warnings

from ._struct import Struct, fresh, replace
from .errors import AutoRecipeError, NoPartsWarning
from .gateway import ChatMessage, _reply_lines
from .planning import PromptSequence
from .presets import COT_SUFFIX, REACT_FINAL_BLOCK, REACT_FORMAT_BLOCK, REACT_HEADER, STRATEGIES
from .prompts import PromptRegistry, default_registry, fill

__all__ = [
    "STRATEGIES",
    "ManualClock",
    "TranscriptMessage",
    "Transcript",
    "KnowledgePart",
    "KnowledgeDocument",
    "check_sequence",
    "wrap_react",
    "parse_react_reply",
    "split_parts",
    "render_knowledge",
    "execute",
]

class ManualClock:
    """Deterministic logical clock; default for scripted and replayed runs."""

    def __init__(self):
        self._now = 0.0

    def __call__(self) -> float:
        now = self._now
        self._now += 1.0
        return now


class TranscriptMessage(Struct):
    role: str
    content: str
    steps: tuple[int, ...]  # sequence steps this message carries or answers
    timestamp: float


class Transcript(Struct):
    strategy: str
    messages: list[TranscriptMessage] = fresh(list)

    def user_turns(self) -> list[TranscriptMessage]:
        return [m for m in self.messages if m.role == "user"]


# --- knowledge documents ------------------------------------------------------

class KnowledgePart(Struct):
    heading: str  # raw heading line including its newline; empty when headingless
    body: str

    @property
    def text(self) -> str:
        return self.heading + self.body


class KnowledgeDocument(Struct):
    parts: tuple[KnowledgePart, ...]
    preamble: str = ""


_HEADING_LINE = re.compile(r"^(?:#{1,2}\s+\S.*|(?:\*\*)?Part\s*[1-9]\d*\b.*)$", re.IGNORECASE)


def split_parts(text: str) -> KnowledgeDocument:
    """Split reply markdown into one to three parts.

    Boundaries are "Part N" marker lines or the first three H1/H2
    headings, in order of appearance.  Heading-free text becomes a
    single part, with a warning.  The original text is
    reconstructable from preamble + parts.
    """
    if not text or not text.strip():
        raise AutoRecipeError("knowledge text is empty")
    lines = _reply_lines(text)
    boundaries = [
        i for i, line in enumerate(lines) if _HEADING_LINE.match(line.rstrip("\r\n"))
    ][:3]
    if not boundaries:
        warnings.warn(NoPartsWarning("no part headings found; treating text as one part"))
        return KnowledgeDocument(parts=(KnowledgePart("", text),))
    parts = tuple(
        KnowledgePart(heading=lines[start], body="".join(lines[start + 1 : end]))
        for start, end in zip(boundaries, boundaries[1:] + [len(lines)])
    )
    return KnowledgeDocument(parts=parts, preamble="".join(lines[: boundaries[0]]))


def render_knowledge(kd: KnowledgeDocument) -> str:
    return kd.preamble + "".join(p.text for p in kd.parts)


# --- strategy plumbing -----------------------------------------------------------

def _check_react(seq: PromptSequence) -> None:
    if len(seq.steps) < 2:
        raise AutoRecipeError("the reasoning scaffold needs at least two steps")


def wrap_react(seq: PromptSequence) -> str:
    """Single user prompt: enumerated questions, the reasoning format block,
    and the final request framed as a Final Answer."""
    _check_react(seq)
    questions = "\n".join(
        f"Question {s.index}: {s.body}" for s in seq.steps[:-1]
    )
    final = fill(REACT_FINAL_BLOCK, {"final_request": seq.steps[-1].body}, "REACT_FINAL_BLOCK")
    return "\n\n".join([REACT_HEADER, questions, REACT_FORMAT_BLOCK, final])


_FINAL_ANSWER = re.compile(r"Final Answer:\s*", re.IGNORECASE)


def parse_react_reply(text: str) -> str:
    """The text after the last Final Answer marker."""
    markers = list(_FINAL_ANSWER.finditer(text))
    if not markers:
        raise AutoRecipeError("reply has no Final Answer marker")
    return text[markers[-1].end():].strip()


# --- execution --------------------------------------------------------------------

def check_sequence(seq: PromptSequence, strategy: str) -> None:
    """Raises as ``execute`` does before its first call: on an unknown strategy,
    an empty sequence, placeholders that ``materialize_sequence`` did not
    bind, a last step that is not an export step, or one step for allqreact."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if not seq.steps:
        raise ValueError("cannot execute an empty sequence")
    if not seq.bindings and seq.placeholders:
        raise ValueError(
            "sequence still has unbound placeholders: " + ", ".join(sorted(seq.placeholders))
        )
    if seq.steps[-1].kind != "export":
        raise ValueError("the last step must be an export step")
    if strategy == "allqreact":
        _check_react(seq)


def execute(
    seq: PromptSequence,
    strategy: str,
    role: str,
    gateway,
    registry: PromptRegistry | None = None,
    clock=None,
    late=None,
) -> tuple[KnowledgeDocument, Transcript]:
    """Run the sequence under one strategy and split the outcome into a
    knowledge document.

    ``role`` is the id of the system prompt, which opens every session as
    it stands.  The sequence must pass ``check_sequence``; the text that
    materialization's values brought in is sent verbatim, and ``${...}`` in
    it is not read again.  With a scripted gateway the transcript is
    deterministic.

    ``late``, when given, is called with each step right before the turn
    that carries its text is sent, and the step it returns is sent in its
    place.  A caller uses it to fill in a step whose text is not known yet
    while the steps before it are already out, or to stop with an error
    before the next turn.  The sequence's own checks run on ``seq``, before
    the first call.
    """
    check_sequence(seq, strategy)
    registry = registry or default_registry()
    clock = clock or ManualClock()
    system = ChatMessage("system", registry.get(role))
    transcript = Transcript(strategy=strategy)
    transcript.messages.append(TranscriptMessage("system", system.content, (), clock()))
    all_steps = tuple(s.index for s in seq.steps)

    sent = late or (lambda step: step)

    def ask(session: list[ChatMessage], steps: tuple[int, ...]) -> str:
        transcript.messages.append(
            TranscriptMessage("user", session[-1].content, steps, clock())
        )
        reply = gateway.complete(session)
        if not reply.strip():
            raise AutoRecipeError(f"gateway returned an empty reply for step(s) {steps}")
        transcript.messages.append(TranscriptMessage("assistant", reply, steps, clock()))
        return reply

    if strategy == "lastq":
        last = sent(seq.steps[-1])
        reply = ask([system, ChatMessage("user", last.body)], (last.index,))
        answer = reply
    elif strategy in ("allq", "allqcot"):
        content = "\n\n".join(f"Step {s.index}: {s.body}" for s in map(sent, seq.steps))
        if strategy == "allqcot":
            content = content + "\n\n" + COT_SUFFIX
        reply = ask([system, ChatMessage("user", content)], all_steps)
        answer = reply
    elif strategy == "allqreact":
        content = wrap_react(replace(seq, steps=tuple(map(sent, seq.steps))))
        reply = ask([system, ChatMessage("user", content)], all_steps)
        answer = parse_react_reply(reply)
        if not answer:
            raise AutoRecipeError("Final Answer marker carries no text")
    else:  # gitq
        session: list[ChatMessage] = [system]
        reply = ""
        for step in seq.steps:
            step = sent(step)
            session.append(ChatMessage("user", step.body))
            reply = ask(session, (step.index,))
            session.append(ChatMessage("assistant", reply))
        answer = reply

    return split_parts(answer), transcript
