"""Loopback stand-in for an OpenAI-style chat completions endpoint.

The stub answers each request from a hash-keyed script file. Latency is
deterministic: a base delay plus a delay per completion word. Faults are
deterministic too: a prompt whose SHA-256 is divisible by ``fault_every``
gets an HTTP 503 on every other attempt, the first included, so each such
request costs exactly one retry. The stub counts requests, faults and
accepted connections, tracks the peak number of requests in flight, and
records each request's service time, from reading it to having the reply
ready.

Run it as a child process, so that its parsing does not hold the
interpreter lock of the process under test:

    python3 bench/stub.py --script FILE [--base-ms 20] [--per-word-ms 0.5]

It prints ``PORT <n>`` once listening. Each ``stats`` line on its standard
input is answered with one JSON line of counters; ``quit`` or the end of
input stops it. ``StubProcess`` drives it from Python.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path


class StubState:
    """Script, schedule and counters; safe to share between handler threads."""

    def __init__(
        self,
        script: dict[str, str],
        base_ms: float = 20.0,
        per_word_ms: float = 0.5,
        fault_every: int = 100,
    ):
        self.script = script
        self.base_ms = base_ms
        self.per_word_ms = per_word_ms
        self.fault_every = fault_every
        self._lock = threading.Lock()
        self._attempts: Counter[str] = Counter()
        self.requests = 0
        self.faults = 0
        self.connections = 0
        self.inflight = 0
        self.peak_inflight = 0
        self.service_ms: list[float] = []

    @classmethod
    def from_file(cls, path: str | Path, **knobs) -> "StubState":
        entries = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls({entry["hash"]: entry["response"] for entry in entries}, **knobs)

    def opened(self) -> None:
        with self._lock:
            self.connections += 1

    def enter(self) -> None:
        with self._lock:
            self.inflight += 1
            self.peak_inflight = max(self.peak_inflight, self.inflight)

    def leave(self, service_ms: float) -> None:
        with self._lock:
            self.inflight -= 1
            self.service_ms.append(service_ms)

    def is_fault(self, digest: str, attempt: int) -> bool:
        return int(digest, 16) % self.fault_every == 0 and attempt % 2 == 0

    def answer(self, body: bytes) -> tuple[int, dict, float]:
        """Return (status, JSON payload, delay in seconds) for one request."""
        try:
            prompt = json.loads(body)["messages"][0]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            return 400, {"error": "malformed chat request"}, 0.0
        digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        with self._lock:
            self.requests += 1
            attempt = self._attempts[digest]
            self._attempts[digest] += 1
            fault = self.is_fault(digest, attempt)
            if fault:
                self.faults += 1
        if fault:
            return 503, {"error": "injected fault"}, 0.0
        text = self.script.get(digest)
        if text is None:
            return 404, {"error": f"no script entry for prompt {digest[:12]}"}, 0.0
        words = len(text.split())
        payload = {
            "choices": [{"message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": len(prompt.split()), "completion_tokens": words},
        }
        return 200, payload, (self.base_ms + self.per_word_ms * words) / 1000.0

    def snapshot(self) -> dict:
        """Counters so far; the in-flight peak restarts from here."""
        with self._lock:
            out = {
                "requests": self.requests,
                "faults": self.faults,
                "connections": self.connections,
                "peak_inflight": self.peak_inflight,
                "service_ms": list(self.service_ms),
            }
            self.peak_inflight = self.inflight
        return out


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Without this, keep-alive replies stall on delayed ACK.
    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        self.server.state.opened()

    def do_POST(self) -> None:
        state: StubState = self.server.state
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        start = time.perf_counter()
        state.enter()
        try:
            status, payload, delay = state.answer(body)
            if delay:
                time.sleep(delay)
            data = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        finally:
            # The client may send its next request as soon as it has this
            # reply, so the request is accounted for before the reply is sent.
            state.leave((time.perf_counter() - start) * 1000.0)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args) -> None:
        pass


def make_server(state: StubState, port: int = 0) -> ThreadingHTTPServer:
    """A loopback server bound to ``port`` (0 picks a free one)."""
    server = ThreadingHTTPServer(("127.0.0.1", port), _Handler)
    server.state = state
    return server


class StubProcess:
    """The stub in a child process; use it as a context manager."""

    def __init__(self, script: Path, base_ms: float, per_word_ms: float,
                 fault_every: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--script",
             str(script), "--base-ms", str(base_ms), "--per-word-ms",
             str(per_word_ms), "--fault-every", str(fault_every)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "PORT":
            self.close()
            raise RuntimeError("stub did not start")
        self.url = f"http://127.0.0.1:{line[1]}/v1/chat/completions"

    def stats(self) -> dict:
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        try:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "StubProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--script", required=True)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--base-ms", type=float, default=20.0)
    parser.add_argument("--per-word-ms", type=float, default=0.5)
    parser.add_argument("--fault-every", type=int, default=100)
    args = parser.parse_args(argv)
    state = StubState.from_file(
        args.script, base_ms=args.base_ms, per_word_ms=args.per_word_ms,
        fault_every=args.fault_every,
    )
    server = make_server(state, args.port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                print(json.dumps(state.snapshot()), flush=True)
            elif command == "quit":
                break
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    return 0


if __name__ == "__main__":
    sys.exit(main())
