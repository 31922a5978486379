from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from autorecipe.errors import (
    AutoRecipeError,
    GatewayError,
    TransportError,
    ValidationFailedError,
)
from autorecipe.gateway import (
    API_KEY_ENV,
    ChatMessage,
    GatewayConfig,
    HttpGateway,
    RecordingGateway,
    ReplayGateway,
    ScriptedGateway,
    canonical_content,
    load_gateway_config,
    session_key,
)


def _session(prompt="hello"):
    return [ChatMessage("system", "be brief"), ChatMessage("user", prompt)]


def test_chat_message_validation():
    with pytest.raises(ValueError):
        ChatMessage("tool", "x")
    with pytest.raises(ValueError):
        ChatMessage("user", "   ")
    ChatMessage("system", "")  # empty system prompt is allowed


def test_canonical_content_noise_only():
    assert canonical_content("a  \r\nb\r\n\n") == "a\nb"
    assert canonical_content("a\nb") == "a\nb"
    # inner whitespace is meaning, not noise
    assert canonical_content("a  b") == "a  b"


def test_session_key_invariance_and_sensitivity():
    base = session_key(_session("hello"))
    assert base == session_key([ChatMessage("system", "be brief"), ChatMessage("user", "hello  \n")])
    assert base == session_key([ChatMessage("system", "be brief"), ChatMessage("user", "hello\r\n")])
    assert base != session_key(_session("other"))
    assert base != session_key([ChatMessage("system", "be terse"), ChatMessage("user", "hello")])


def test_sessions_must_end_with_user():
    gw = ScriptedGateway(replies=["x"])
    with pytest.raises(GatewayError):
        gw.complete([])
    with pytest.raises(GatewayError):
        gw.complete([ChatMessage("system", "s"), ChatMessage("assistant", "a")])


def test_scripted_queue_order_and_exhaustion():
    gw = ScriptedGateway(replies=["one", "two"])
    assert gw.complete(_session("a")) == "one"
    assert gw.complete(_session("b")) == "two"
    with pytest.raises(GatewayError, match=r"^no scripted reply for session .* \('c'\)$"):
        gw.complete(_session("c"))
    assert len(gw.calls) == 3


def test_scripted_by_key_takes_precedence():
    key = session_key(_session("special"))
    gw = ScriptedGateway(replies=["queued"], by_key={key: "pinned"})
    assert gw.complete(_session("special")) == "pinned"
    assert gw.complete(_session("other")) == "queued"


def test_scripted_non_strict_default():
    gw = ScriptedGateway(strict=False, default="fallback")
    assert gw.complete(_session()) == "fallback"
    # strict without default still misses
    with pytest.raises(GatewayError, match="^no scripted reply for session "):
        ScriptedGateway(strict=True, default="d").complete(_session())


def test_scripted_from_file(tmp_path):
    path = tmp_path / "script.yaml"
    path.write_text("strict: false\ndefault: dflt\nreplies:\n  - first\n", encoding="utf-8")
    gw = ScriptedGateway.from_file(path)
    assert gw.complete(_session()) == "first"
    assert gw.complete(_session()) == "dflt"


def test_record_then_replay_round_trip(tmp_path):
    store = tmp_path / "store.jsonl"
    recorded = RecordingGateway(ScriptedGateway(replies=["alpha", "beta"]), str(store))
    assert recorded.complete(_session("one")) == "alpha"
    assert recorded.complete(_session("two")) == "beta"

    replay = ReplayGateway(str(store))
    assert replay.complete(_session("two")) == "beta"
    assert replay.complete(_session("one")) == "alpha"
    with pytest.raises(GatewayError, match=r"^no recorded reply for session .* \('never seen'\)$"):
        replay.complete(_session("never seen"))


# Each bad line, and what is wrong with it.
_BAD_RECORDS = {
    '{"key": "abc", "reply": "tor': "not a JSON record: Unterminated string",  # torn last line
    '{"key": "abc"}': "reply must be a string, got None",
    '{"reply": "r"}': "key must be a string, got None",
    '["abc", "r"]': "record must be a mapping, got ['abc', 'r']",
    '{"key": "abc", "reply": null}': "reply must be a string, got None",
    '{"key": "k", "reply": "r", "session": 5}': "session must be a list, got 5",
    '{"key": "k", "reply": "r", "session": [5]}': "session.1 must be a mapping, got 5",
    '{"key": "k", "reply": "r", "session": [{"role": 1, "content": "c"}]}':
        "session.1.role must be a string, got 1",
    '{"key": "k", "reply": "r", "session": [{"role": "user", "content": 2}]}':
        "session.1.content must be a string, got 2",
}


@pytest.mark.parametrize("bad_line", list(_BAD_RECORDS))
def test_replay_store_names_file_and_line_of_a_bad_record(tmp_path, bad_line):
    store = tmp_path / "store.jsonl"
    RecordingGateway(ScriptedGateway(replies=["r"]), str(store)).complete(_session())
    with open(store, "a", encoding="utf-8") as fh:
        fh.write("\n" + bad_line)
    with pytest.raises(AutoRecipeError) as info:
        ReplayGateway(str(store))
    message = f"{store}:3: {_BAD_RECORDS[bad_line]}"
    if isinstance(info.value, ValidationFailedError):
        assert info.value.violations == [message]
    else:
        assert str(info.value).startswith(message)


def test_replay_store_is_plain_jsonl(tmp_path):
    store = tmp_path / "store.jsonl"
    RecordingGateway(ScriptedGateway(replies=["r"]), str(store)).complete(_session())
    record = json.loads(store.read_text().splitlines()[0])
    assert set(record) == {"key", "session", "reply"}
    assert record["reply"] == "r"


def _reply(status=200, payload=None):
    """What a ``post`` returns: the status and the body, empty when there is no payload."""
    return status, b"" if payload is None else json.dumps(payload).encode("utf-8")


def _ok(content="pong"):
    return _reply(payload={"choices": [{"message": {"content": content}}]})


def test_http_gateway_success_and_payload_shape():
    seen = {}

    def post(url, body, headers, timeout):
        seen.update(url=url, payload=json.loads(body), headers=headers, timeout=timeout)
        return _ok("pong")

    config = GatewayConfig(endpoint="https://gw.example/v1", model="m-1", timeout_seconds=9.0)
    gw = HttpGateway(config, post=post, sleep=lambda s: None)
    assert gw.complete(_session("ping")) == "pong"
    assert seen["url"] == "https://gw.example/v1"
    assert seen["timeout"] == 9.0
    assert seen["payload"]["model"] == "m-1"
    assert seen["payload"]["messages"][-1] == {"role": "user", "content": "ping"}
    assert gw.last_attempts == 1


def test_http_gateway_requires_endpoint():
    with pytest.raises(ValueError):
        HttpGateway(GatewayConfig())


@pytest.mark.parametrize("endpoint", ["file:///etc/hostname", "ftp://host/v1", "localhost:8080/v1"])
def test_http_gateway_requires_an_http_endpoint(endpoint):
    with pytest.raises(ValueError, match="must be an http"):
        HttpGateway(GatewayConfig(endpoint=endpoint))


def test_http_gateway_bearer_header_from_env(monkeypatch):
    captured = {}

    def post(url, body, headers, timeout):
        captured.update(headers)
        return _ok()

    gw = HttpGateway(GatewayConfig(endpoint="https://e"), post=post)
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    gw.complete(_session())
    assert "Authorization" not in captured

    monkeypatch.setenv(API_KEY_ENV, "sekrit")
    captured.clear()
    gw.complete(_session())
    assert captured["Authorization"] == "Bearer sekrit"


def test_http_gateway_retries_then_succeeds():
    calls = {"n": 0}
    sleeps = []

    def post(url, body, headers, timeout):
        calls["n"] += 1
        if calls["n"] < 3:
            raise ConnectionRefusedError("boom")
        return _ok("recovered")

    config = GatewayConfig(endpoint="https://e", max_retries=2, backoff_seconds=0.5)
    gw = HttpGateway(config, post=post, sleep=sleeps.append)
    assert gw.complete(_session()) == "recovered"
    assert gw.last_attempts == 3
    assert sleeps == [0.5, 1.0]  # linear backoff 1x, 2x


def test_http_gateway_timeout_exhausts_retries():
    def post(url, body, headers, timeout):
        raise TimeoutError("slow")

    config = GatewayConfig(endpoint="https://e", max_retries=1)
    gw = HttpGateway(config, post=post, sleep=lambda s: None)
    with pytest.raises(TransportError, match="^request timed out: slow$"):
        gw.complete(_session())
    assert gw.last_attempts == 2


def test_http_gateway_http_error_and_malformed_payload():
    gw = HttpGateway(
        GatewayConfig(endpoint="https://e", max_retries=0),
        post=lambda *a: _reply(503),
        sleep=lambda s: None,
    )
    with pytest.raises(TransportError):
        gw.complete(_session())

    # A 200 whose body is no completion fails at once: the endpoint answered.
    for reply in (_reply(payload={"unexpected": True}), _reply(), _ok(content=None)):
        posts = []

        def post(url, body, headers, timeout, reply=reply):
            posts.append(url)
            return reply

        gw = HttpGateway(GatewayConfig(endpoint="https://e", max_retries=2),
                         post=post, sleep=lambda s: None)
        with pytest.raises(GatewayError, match="malformed completion payload") as info:
            gw.complete(_session())
        assert type(info.value) is GatewayError
        assert len(posts) == 1


def test_http_gateway_does_not_retry_client_errors():
    posts, sleeps = [], []

    def post(url, body, headers, timeout):
        posts.append(url)
        return _reply(401)

    config = GatewayConfig(endpoint="https://e", max_retries=3)
    gw = HttpGateway(config, post=post, sleep=sleeps.append)
    with pytest.raises(GatewayError, match="HTTP 401") as info:
        gw.complete(_session())
    assert not isinstance(info.value, TransportError)
    assert len(posts) == 1 and sleeps == []
    assert gw.last_attempts == 1


@pytest.mark.parametrize("status", [429, 500, 503])
def test_http_gateway_retries_throttling_and_server_errors(status):
    posts, sleeps = [], []

    def post(url, body, headers, timeout):
        posts.append(url)
        return _reply(status)

    config = GatewayConfig(endpoint="https://e", max_retries=3, backoff_seconds=0.5)
    gw = HttpGateway(config, post=post, sleep=sleeps.append)
    with pytest.raises(TransportError, match=f"HTTP {status}"):
        gw.complete(_session())
    assert len(posts) == 4
    assert sleeps == [0.5, 1.0, 1.5]


def test_http_gateway_attempt_count_is_per_thread():
    """Each thread reads the attempts of its own last call, not another thread's."""
    failures = {"flaky": 2}
    lock = threading.Lock()

    def post(url, body, headers, timeout):
        prompt = json.loads(body)["messages"][-1]["content"]
        with lock:
            if failures.get(prompt, 0) > 0:
                failures[prompt] -= 1
                raise ConnectionRefusedError("refused")
        return _ok(prompt)

    gw = HttpGateway(GatewayConfig(endpoint="https://e", max_retries=2), post=post,
                     sleep=lambda s: None)
    flaky_done, steady_done = threading.Event(), threading.Event()
    seen = {}

    def flaky():
        gw.complete(_session("flaky"))
        flaky_done.set()
        steady_done.wait(10)  # the other thread's call ends after this one's
        seen["flaky"] = gw.last_attempts

    def steady():
        flaky_done.wait(10)
        gw.complete(_session("steady"))
        steady_done.set()
        seen["steady"] = gw.last_attempts

    threads = [threading.Thread(target=flaky), threading.Thread(target=steady)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert seen == {"flaky": 3, "steady": 1}
    assert gw.last_attempts == 0  # this thread made no call


def test_http_gateway_exposes_max_parallel_and_recording_forwards_it(tmp_path):
    http = HttpGateway(GatewayConfig(endpoint="https://e", max_parallel=5), post=lambda *a: _ok())
    assert http.max_parallel == 5
    assert RecordingGateway(http, str(tmp_path / "s.jsonl")).max_parallel == 5
    scripted = ScriptedGateway(replies=["r"])
    assert not hasattr(scripted, "max_parallel")
    assert RecordingGateway(scripted, str(tmp_path / "s.jsonl")).max_parallel == 1


# --- the standard-library transport against a local server ----------------------------

class _Endpoint(BaseHTTPRequestHandler):
    """Answers by path: /ok echoes, /fail is HTTP 500, /denied is 401, /slow stalls,
    /garbage is not HTTP."""

    def do_POST(self):  # noqa: N802 - name fixed by BaseHTTPRequestHandler
        self.server.paths.append(self.path)
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.requests.append((self.path, self.headers["Content-Type"],
                                     self.headers["Authorization"], raw))
        body = json.loads(raw)
        if self.path == "/garbage":
            self.wfile.write(b"NOT-HTTP garbage\r\n\r\n")
            return
        if self.path == "/slow":
            time.sleep(1.0)
        if self.path in ("/fail", "/denied"):
            self.send_error(500 if self.path == "/fail" else 401)
            return
        content = f"{self.headers['Content-Type']}: {body['messages'][-1]['content']}"
        reply = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture
def endpoint(monkeypatch):
    for name in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(name, raising=False)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Endpoint)
    server.daemon_threads = True
    server.paths = []
    server.requests = []  # (path, Content-Type, Authorization, body bytes)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.02})
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(10)


def _stdlib_gateway(url, max_retries=0, timeout_seconds=5.0):
    config = GatewayConfig(endpoint=url, max_retries=max_retries,
                           timeout_seconds=timeout_seconds, backoff_seconds=0.0)
    return HttpGateway(config, sleep=lambda s: None)


def _url(server, path):
    return f"http://127.0.0.1:{server.server_address[1]}{path}"


def test_stdlib_transport_returns_the_reply(endpoint):
    gw = _stdlib_gateway(_url(endpoint, "/ok"))
    assert gw.complete(_session("ping")) == "application/json: ping"
    assert endpoint.paths == ["/ok"]


def test_stdlib_transport_sends_these_bytes(endpoint, monkeypatch):
    """The request on the wire, pinned byte for byte for one session and config."""
    monkeypatch.setenv(API_KEY_ENV, "sekrit")
    config = GatewayConfig(endpoint=_url(endpoint, "/ok"), model="m-1", temperature=0.2,
                           max_tokens=64)
    gw = HttpGateway(config, sleep=lambda s: None)
    assert gw.complete(_session("ping \u00e9")) == "application/json: ping \u00e9"
    assert endpoint.requests == [(
        "/ok", "application/json", "Bearer sekrit",
        b'{"model": "m-1", "messages": [{"role": "system", "content": "be brief"}, '
        b'{"role": "user", "content": "ping \\u00e9"}], "temperature": 0.2, "max_tokens": 64}',
    )]


def test_stdlib_transport_retries_server_errors_then_fails(endpoint):
    gw = _stdlib_gateway(_url(endpoint, "/fail"), max_retries=2)
    with pytest.raises(TransportError, match="HTTP 500"):
        gw.complete(_session())
    assert endpoint.paths == ["/fail"] * 3
    assert gw.last_attempts == 3


def test_stdlib_transport_does_not_retry_client_errors(endpoint):
    gw = _stdlib_gateway(_url(endpoint, "/denied"), max_retries=2)
    with pytest.raises(GatewayError, match="HTTP 401"):
        gw.complete(_session())
    assert endpoint.paths == ["/denied"]


def test_stdlib_transport_malformed_response_is_a_transport_error(endpoint):
    gw = _stdlib_gateway(_url(endpoint, "/garbage"), max_retries=1)
    with pytest.raises(TransportError, match="transport failure"):
        gw.complete(_session())
    assert endpoint.paths == ["/garbage"] * 2


def test_stdlib_transport_read_timeout(endpoint):
    gw = _stdlib_gateway(_url(endpoint, "/slow"), timeout_seconds=0.1)
    with pytest.raises(TransportError, match="^request timed out: "):
        gw.complete(_session())


def test_stdlib_transport_refused_connection():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    # Nothing listens on the port once the probe socket is closed.
    gw = _stdlib_gateway(f"http://127.0.0.1:{port}/v1", max_retries=1)
    with pytest.raises(TransportError):
        gw.complete(_session())
    assert gw.last_attempts == 2


def test_gateway_config_validation_and_file_loading(tmp_path):
    with pytest.raises(ValueError):
        GatewayConfig(timeout_seconds=0)
    with pytest.raises(ValueError):
        GatewayConfig(max_retries=-1)
    with pytest.raises(ValueError):
        GatewayConfig(max_parallel=0)
    for bad in ({"timeout_seconds": float("inf")}, {"backoff_seconds": -0.5},
                {"backoff_seconds": float("nan")}, {"temperature": float("-inf")}):
        with pytest.raises(ValueError):
            GatewayConfig(**bad)

    path = tmp_path / "gw.yaml"
    path.write_text("endpoint: https://e\nmodel: m\nmax_retries: 5\n", encoding="utf-8")
    config = load_gateway_config(path)
    assert config.endpoint == "https://e"
    assert config.max_retries == 5


_CONFIG_KEYS = ("endpoint, model, timeout_seconds, max_retries, temperature, max_tokens, "
                "max_parallel, backoff_seconds")


@pytest.mark.parametrize("text, message", [
    ("modle: m\ntimeout: 3\n",
     [f"gateway config key must be one of {_CONFIG_KEYS}, got '{key}'"
      for key in ("modle", "timeout")]),
    ("just text\n", "gateway config must be a mapping, got 'just text'"),
    ("[1, 2]\n", "gateway config must be a mapping, got [1, 2]"),
    ("timeout_seconds: fast\n", "timeout_seconds must be a number, got 'fast'"),
    ("timeout_seconds: true\n", "timeout_seconds must be a number, got True"),
    ("max_retries: 1.5\n", "max_retries must be an integer, got 1.5"),
    ("max_parallel: yes\n", "max_parallel must be an integer, got True"),
    ("max_tokens: '2048'\n", "max_tokens must be an integer, got '2048'"),
    ("endpoint: 8080\n", "endpoint must be a string, got 8080"),
    ("model: [a, b]\n", "model must be a string, got ['a', 'b']"),
    ("temperature: hot\n", "temperature must be a number, got 'hot'"),
], ids=["unknown-keys", "scalar", "list", "word-for-float", "bool-for-float", "float-for-int",
        "bool-for-int", "text-for-int", "int-for-str", "list-for-str", "word-for-temperature"])
def test_gateway_config_file_rejects_unknown_keys_and_non_mappings(tmp_path, text, message):
    path = tmp_path / "gw.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationFailedError) as info:
        load_gateway_config(path)
    messages = [message] if isinstance(message, str) else message
    assert info.value.violations == [f"{path}: {m}" for m in messages]


def test_gateway_config_file_names_every_wrong_value_and_takes_ints_for_floats(tmp_path):
    path = tmp_path / "gw.yaml"
    path.write_text("max_retries: 2.0\nbackoff_seconds: slow\n", encoding="utf-8")
    with pytest.raises(ValidationFailedError) as info:
        load_gateway_config(path)
    assert info.value.violations == [
        f"{path}: max_retries must be an integer, got 2.0",
        f"{path}: backoff_seconds must be a number, got 'slow'",
    ]
    path.write_text("timeout_seconds: 3\ntemperature: 0\nbackoff_seconds: 1\n", encoding="utf-8")
    assert load_gateway_config(path) == GatewayConfig(
        timeout_seconds=3.0, temperature=0.0, backoff_seconds=1.0
    )


def test_empty_gateway_config_file_is_the_default_config(tmp_path):
    path = tmp_path / "gw.yaml"
    path.write_text("", encoding="utf-8")
    assert load_gateway_config(path) == GatewayConfig()
