"""Stub chat-completion endpoint for the latency workload.

A stdlib HTTP server in the benchmark process.  It answers each request
after a fixed delay with the reply recorded for the session, looked up by
the program's own session key, so the program talks to it through its
real HTTP gateway.  It serves at most ``max_parallel`` requests at once
and counts every request it receives, retries included.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from autorecipe.gateway import ChatMessage, session_key

DELAY_S = 0.1  # per call, about one model round-trip on a fast endpoint


def load_store(path: str | Path) -> dict[str, str]:
    """Session key -> reply, from a JSONL store written by `--record`."""
    store = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            store[record["key"]] = record["reply"]
    return store


class _Handler(BaseHTTPRequestHandler):
    server: "_Server"

    def do_POST(self):  # noqa: N802 - name fixed by BaseHTTPRequestHandler
        stub = self.server.stub
        with stub.slots:
            stub.count()
            body = self.rfile.read(int(self.headers.get("Content-Length") or 0))
            time.sleep(stub.delay)
            try:
                messages = json.loads(body)["messages"]
                key = session_key([ChatMessage(m["role"], m["content"]) for m in messages])
                reply = stub.store[key]
            except (ValueError, KeyError, TypeError):
                self.send_error(404, "no recorded reply for this session")
                return
            payload = json.dumps({"choices": [{"message": {"content": reply}}]}).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

    def log_message(self, format, *args):  # noqa: A002 - silence per-request logging
        pass


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, stub: "StubEndpoint"):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.stub = stub


class StubEndpoint:
    """Start with ``start()``, stop with ``stop()``; ``requests`` counts calls."""

    def __init__(self, store: dict[str, str], delay: float, max_parallel: int):
        self.store = store
        self.delay = delay
        self.slots = threading.BoundedSemaphore(max_parallel)
        self.requests = 0
        self._lock = threading.Lock()
        self._server: _Server | None = None
        self._thread: threading.Thread | None = None

    def count(self) -> None:
        with self._lock:
            self.requests += 1

    def start(self) -> str:
        self._server = _Server(self)
        # A short poll interval keeps stop(), which waits for the next poll, quick.
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        )
        self._thread.start()
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._thread.join(timeout=10)
            self._server = None
