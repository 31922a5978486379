"""Chat-model gateway: HTTP client plus scripted, recording and replay variants.

Every variant exposes one operation, ``complete(session) -> str``.
Sessions are keyed by a canonical hash that ignores line-ending and
trailing-whitespace noise but nothing else, so a recorded run can be
replayed byte-for-byte offline.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from dataclasses import dataclass, field, fields

from ._yamlio import load_mapping
from .errors import (
    GatewayError,
    GatewayTimeoutError,
    ReplayMissError,
    ReplayStoreError,
    ScriptMissError,
    TransportError,
    ValidationFailedError,
)

__all__ = [
    "ChatMessage",
    "GatewayConfig",
    "canonical_content",
    "session_key",
    "ScriptedGateway",
    "HttpGateway",
    "RecordingGateway",
    "ReplayGateway",
    "load_gateway_config",
]

logger = logging.getLogger(__name__)

_ROLES = ("system", "user", "assistant")

# Environment variable holding the endpoint credential; never stored in files.
API_KEY_ENV = "AUTORECIPE_API_KEY"


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in _ROLES:
            raise ValueError(f"message role must be one of {_ROLES}, got {self.role!r}")
        if self.role != "system" and not self.content.strip():
            raise ValueError(f"{self.role} message content must be non-empty")


@dataclass(frozen=True)
class GatewayConfig:
    endpoint: str = ""
    model: str = ""
    timeout_seconds: float = 30.0
    max_retries: int = 2
    temperature: float = 0.0
    max_tokens: int = 2048
    max_parallel: int = 4
    backoff_seconds: float = 0.5

    def __post_init__(self):
        if self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_parallel < 1:
            raise ValueError("max_parallel must be >= 1")


# field name -> its annotation, "str", "float" or "int"
_CONFIG_TYPES = {f.name: f.type for f in fields(GatewayConfig)}
# A float field takes an int too; no field takes a bool.
_ACCEPTED = {"str": (str,), "float": (int, float), "int": (int,)}
_TYPE_NAMES = {"str": "a string", "float": "a number", "int": "an integer"}


def load_gateway_config(path) -> GatewayConfig:
    with open(path, encoding="utf-8") as fh:
        doc = load_mapping(fh, path, "gateway config")
    unknown = sorted(str(key) for key in doc.keys() - _CONFIG_TYPES.keys())
    if unknown:
        raise ValidationFailedError(
            [f"{path}: unknown gateway config key(s): {', '.join(unknown)}"]
        )
    wrong = [
        f"{path}: {key} must be {_TYPE_NAMES[_CONFIG_TYPES[key]]}, got {value!r}"
        for key, value in doc.items()
        if isinstance(value, bool) or not isinstance(value, _ACCEPTED[_CONFIG_TYPES[key]])
    ]
    if wrong:
        raise ValidationFailedError(wrong)
    return GatewayConfig(**doc)


def canonical_content(text: str) -> str:
    """Normalize line endings and strip per-line trailing whitespace, nothing else."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return "\n".join(line.rstrip() for line in lines).rstrip("\n")


def session_key(session: list[ChatMessage]) -> str:
    """Stable hash of a whole session under canonical content."""
    payload = json.dumps(
        [[m.role, canonical_content(m.content)] for m in session],
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _check_session(session: list[ChatMessage]) -> None:
    if not session:
        raise GatewayError("session is empty")
    if session[-1].role != "user":
        raise GatewayError("session must end with a user message")


class ScriptedGateway:
    """Replies from a fixed script: an ordered queue and/or a session-key map.

    In strict mode a prompt with no scripted reply raises ScriptMissError;
    otherwise the configured default reply is served.
    """

    def __init__(
        self,
        replies: list[str] | None = None,
        by_key: dict[str, str] | None = None,
        strict: bool = True,
        default: str | None = None,
    ):
        self._queue = list(replies or [])
        self._cursor = 0
        self.by_key = dict(by_key or {})
        self.strict = strict
        self.default = default
        self.calls: list[str] = []  # session keys in arrival order

    @classmethod
    def from_file(cls, path) -> "ScriptedGateway":
        with open(path, encoding="utf-8") as fh:
            doc = load_mapping(fh, path, "script")
        return cls(
            replies=doc.get("replies"),
            by_key=doc.get("by_key"),
            strict=bool(doc.get("strict", True)),
            default=doc.get("default"),
        )

    def complete(self, session: list[ChatMessage]) -> str:
        _check_session(session)
        key = session_key(session)
        self.calls.append(key)
        if key in self.by_key:
            return self.by_key[key]
        if self._cursor < len(self._queue):
            reply = self._queue[self._cursor]
            self._cursor += 1
            return reply
        if not self.strict and self.default is not None:
            return self.default
        preview = session[-1].content[:80]
        raise ScriptMissError(f"no scripted reply for session {key[:12]} ({preview!r})")


class HttpGateway:
    """JSON chat-completion client with bounded retries and a parallelism cap."""

    def __init__(self, config: GatewayConfig, post=None, sleep=time.sleep):
        if not config.endpoint:
            raise ValueError("HttpGateway needs a configured endpoint")
        if post is None:
            import requests  # only HTTP runs pay for importing it

            post = requests.post
        self.config = config
        self._post = post
        self._sleep = sleep
        self._slots = threading.Semaphore(config.max_parallel)
        self.last_attempts = 0

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        return headers

    def complete(self, session: list[ChatMessage]) -> str:
        import requests  # for its exception types, which an injected post raises too

        _check_session(session)
        payload = {
            "model": self.config.model,
            "messages": [{"role": m.role, "content": m.content} for m in session],
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }
        last_error: GatewayError | None = None
        attempts = self.config.max_retries + 1
        for attempt in range(1, attempts + 1):
            self.last_attempts = attempt
            try:
                with self._slots:
                    response = self._post(
                        self.config.endpoint,
                        json=payload,
                        headers=self._headers(),
                        timeout=self.config.timeout_seconds,
                    )
                return self._parse_response(response)
            except requests.exceptions.Timeout as exc:
                last_error = GatewayTimeoutError(f"request timed out: {exc}")
            except requests.exceptions.RequestException as exc:
                last_error = TransportError(f"transport failure: {exc}")
            except (GatewayTimeoutError, TransportError) as exc:
                last_error = exc
            if attempt <= self.config.max_retries:
                logger.info("gateway attempt %d/%d failed; retrying", attempt, attempts)
                self._sleep(self.config.backoff_seconds * attempt)
        assert last_error is not None
        raise last_error

    @staticmethod
    def _parse_response(response) -> str:
        status = getattr(response, "status_code", 200)
        if status != 200:
            raise TransportError(f"endpoint returned HTTP {status}")
        try:
            body = response.json()
            return body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion payload: {exc}") from exc


@dataclass
class RecordingGateway:
    """Wraps a live gateway and appends (session, reply) records to a store file."""

    inner: object
    path: str
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def complete(self, session: list[ChatMessage]) -> str:
        reply = self.inner.complete(session)
        record = {
            "key": session_key(session),
            "session": [{"role": m.role, "content": m.content} for m in session],
            "reply": reply,
        }
        with self._lock, open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
        return reply


class ReplayGateway:
    """Serves recorded replies only; an unknown session is an error, never a guess."""

    def __init__(self, path: str):
        self.path = path
        self._replies: dict[str, str] = {}
        with open(path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ReplayStoreError(f"{path}:{number}: not a JSON record: {exc}") from None
                if not (
                    isinstance(record, dict)
                    and isinstance(record.get("key"), str)
                    and isinstance(record.get("reply"), str)
                ):
                    raise ReplayStoreError(f"{path}:{number}: record needs string key and reply")
                self._replies[record["key"]] = record["reply"]

    def complete(self, session: list[ChatMessage]) -> str:
        _check_session(session)
        key = session_key(session)
        try:
            return self._replies[key]
        except KeyError:
            preview = session[-1].content[:80]
            raise ReplayMissError(
                f"no recorded reply for session {key[:12]} ({preview!r})"
            ) from None
