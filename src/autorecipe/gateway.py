"""Chat-model gateway: HTTP client plus scripted, recording and replay variants.

Every variant exposes one operation, ``complete(session) -> str``.
Sessions are keyed by a canonical hash that ignores line-ending and
trailing-whitespace noise but nothing else, so a recorded run can be
replayed byte-for-byte offline.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from dataclasses import dataclass, field, fields

from ._yamlio import BOOL, INT, NUMBER, TEXT, ListOf, MapOf, Record, check, load_file
from .errors import AutoRecipeError, GatewayError, TransportError

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
        # An infinite or NaN number would reach the socket, the sleep or the request body.
        for name in ("timeout_seconds", "backoff_seconds", "temperature"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_parallel < 1:
            raise ValueError("max_parallel must be >= 1")


# One optional key per field; a float field takes an int too.
_CONFIG = Record(optional={
    f.name: {"str": TEXT, "float": NUMBER, "int": INT}[f.type] for f in fields(GatewayConfig)
})


def load_gateway_config(path) -> GatewayConfig:
    doc = load_file(path, "gateway config", _CONFIG)
    return GatewayConfig(**{key: value for key, value in doc.items() if value is not None})


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


_SCRIPT = Record(optional={
    "replies": ListOf(TEXT), "by_key": MapOf(TEXT, TEXT), "strict": BOOL, "default": TEXT,
})


class ScriptedGateway:
    """Replies from a fixed script: an ordered queue and/or a session-key map.

    In strict mode a prompt with no scripted reply raises GatewayError;
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
        doc = load_file(path, "script", _SCRIPT)
        return cls(replies=doc.get("replies"), by_key=doc.get("by_key"),
                   strict=doc.get("strict") is not False, default=doc.get("default"))

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
        raise GatewayError(f"no scripted reply for session {key[:12]} ({preview!r})")


def _urllib_post(url, body: bytes, headers, timeout) -> tuple[int, bytes]:
    """POST ``body`` through ``urllib.request``, which honours the *_PROXY variables.

    Returns the status and the response body; an HTTP error status is a
    reply like any other.  Connection and timeout failures raise
    ``OSError``, and a malformed response ``TransportError``.
    """
    import http.client
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.read()
    except http.client.HTTPException as exc:
        raise TransportError(f"transport failure: {exc!r}") from exc


class HttpGateway:
    """JSON chat-completion client with bounded retries.

    ``post(url, body, headers, timeout)`` sends one request and returns
    ``(status, body)``; the default is a standard-library ``urllib`` client.
    Timeouts, transport failures, HTTP 429 and 5xx are retried; any other
    non-200 status, and a 200 whose body is not a completion, fails at once.
    ``max_parallel`` is the most calls a caller should overlap.
    """

    def __init__(self, config: GatewayConfig, post=None, sleep=time.sleep):
        if not config.endpoint:
            raise ValueError("HttpGateway needs a configured endpoint")
        # urllib would also open file: and ftp: URLs, which are no chat endpoints.
        if not config.endpoint.lower().startswith(("http://", "https://")):
            raise ValueError(f"HttpGateway endpoint must be an http(s) URL, got {config.endpoint!r}")
        self.config = config
        self.max_parallel = config.max_parallel
        self._post = post or _urllib_post
        self._sleep = sleep
        self._local = threading.local()

    @property
    def last_attempts(self) -> int:
        """Attempts made by the calling thread's last ``complete``; 0 before its first."""
        return getattr(self._local, "attempts", 0)

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        return headers

    def complete(self, session: list[ChatMessage]) -> str:
        _check_session(session)
        body = json.dumps({
            "model": self.config.model,
            "messages": [{"role": m.role, "content": m.content} for m in session],
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }).encode("utf-8")
        last_error: TransportError | None = None
        attempts = self.config.max_retries + 1
        for attempt in range(1, attempts + 1):
            self._local.attempts = attempt
            try:
                status, reply = self._post(
                    self.config.endpoint, body, self._headers(), self.config.timeout_seconds
                )
                return self._parse_response(status, reply)
            except OSError as exc:  # TimeoutError and urllib.error.URLError included
                reason = getattr(exc, "reason", None)
                timed_out = isinstance(exc, TimeoutError) or isinstance(reason, TimeoutError)
                what = "request timed out" if timed_out else "transport failure"
                last_error = TransportError(f"{what}: {exc}")
            except TransportError as exc:
                last_error = exc
            if attempt <= self.config.max_retries:
                self._sleep(self.config.backoff_seconds * attempt)
        assert last_error is not None
        raise last_error

    @staticmethod
    def _parse_response(status: int, body: bytes) -> str:
        if status != 200:
            # Throttling and server errors may pass on a retry; other statuses will not.
            error = TransportError if status == 429 or status >= 500 else GatewayError
            raise error(f"endpoint returned HTTP {status}")
        # The endpoint answered, so a body that is no completion is not retried.
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
            raise GatewayError(f"malformed completion payload: {exc!r}") from exc
        if not isinstance(content, str):
            raise GatewayError(
                f"malformed completion payload: content is {type(content).__name__}, not text"
            )
        return content


@dataclass
class RecordingGateway:
    """Wraps a live gateway and appends (session, reply) records to a store file."""

    inner: object
    path: str
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def max_parallel(self) -> int:
        """The wrapped gateway's bound on overlapping calls; 1 when it has none."""
        return getattr(self.inner, "max_parallel", 1)

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


# One line of a store, as RecordingGateway writes it.
_STORE_RECORD = Record(required={"key": TEXT, "reply": TEXT}, optional={
    "session": ListOf(Record(required={"role": TEXT, "content": TEXT})),
})


class ReplayGateway:
    """Serves recorded replies only; an unknown session is an error, never a guess."""

    def __init__(self, path: str):
        self.path = path
        self._replies: dict[str, str] = {}
        # Line by line: a reply may hold U+2028, where str.splitlines would cut it.
        try:
            with open(path, encoding="utf-8") as fh:
                for number, line in enumerate(fh, start=1):
                    if not line.strip():
                        continue
                    try:
                        record = json.loads(line)
                    # ValueError covers an integer too long to convert.
                    except (ValueError, RecursionError) as exc:
                        raise AutoRecipeError(
                            f"{path}:{number}: not a JSON record: {exc}"
                        ) from None
                    record = check(record, f"{path}:{number}", "record", _STORE_RECORD)
                    self._replies[record["key"]] = record["reply"]
        except UnicodeDecodeError:
            raise AutoRecipeError(f"unreadable {path}: not UTF-8 text") from None

    def complete(self, session: list[ChatMessage]) -> str:
        _check_session(session)
        key = session_key(session)
        try:
            return self._replies[key]
        except KeyError:
            preview = session[-1].content[:80]
            raise GatewayError(
                f"no recorded reply for session {key[:12]} ({preview!r})"
            ) from None
