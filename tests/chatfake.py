"""One loopback chat endpoint for every HTTP test.

``serve()`` runs a ``ChatFake``: a threaded HTTP/1.1 server that keeps
connections alive, as production endpoints do. Each POST gets a ``Reply``
from the ``answer(prompt)`` hook when one is set, and otherwise the next
item of ``replies``, the last one repeating. The fake counts what the tests
read: the requests seen, connections made and still open, paths, and the
requests in flight (``inflight``, ``peak``) in all and per kind of prompt
named in ``marks``, with a snapshot of ``inflight`` at each arrival. A
connection idle for ``idle_timeout`` seconds is closed.

``serve(tls=True)`` speaks HTTPS with ``tls/localhost.pem``, a certificate
for ``localhost`` and ``127.0.0.1`` signed by the test CA ``tls/ca.pem``
(both made once with ``openssl`` and valid until 2126).

``tunnel()`` runs a ``Tunnel``: an HTTP proxy that answers ``CONNECT
host:port`` by relaying bytes both ways between the client and that
address, as proxies do for HTTPS. It records each CONNECT target.
"""
from __future__ import annotations

import json
import select
import socket
import socketserver
import ssl
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, ContextManager, Iterator

TLS = Path(__file__).parent / "tls"
CA = TLS / "ca.pem"


def chat_payload(text: str, prompt_tokens: int = 7, completion_tokens: int = 3):
    return {
        "choices": [{"message": {"role": "assistant", "content": text}}],
        "usage": {
            "prompt_tokens": prompt_tokens,
            "completion_tokens": completion_tokens,
        },
    }


@dataclass(frozen=True)
class Reply:
    """After ``delay`` seconds, close the connection unanswered (``drop``), or
    answer ``status`` with ``headers`` and ``body``: JSON-ready data, or bytes
    sent as they are. ``short`` declares that many bytes more than the body
    and then closes; ``drip`` is (bytes, seconds): the body goes out in
    chunks of that size, each after that gap."""

    status: int = 200
    body: object = field(default_factory=lambda: chat_payload("ok"))
    headers: dict = field(default_factory=dict)
    delay: float = 0.0
    drop: bool = False
    short: int = 0
    drip: tuple[int, float] | None = None


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self):
        self.timeout = self.server.idle_timeout
        super().setup()
        with self.server.lock:
            self.server.connections += 1
            self.server.open += 1

    def handle(self):
        try:
            super().handle()
        except (ConnectionError, ssl.SSLError):
            pass  # the client left mid-reply, or refused the certificate

    def finish(self):
        try:
            super().finish()
        finally:
            with self.server.lock:
                self.server.open -= 1

    def do_POST(self):
        fake = self.server
        body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        prompt = body["messages"][0]["content"]
        kinds = ["all", *(kind for kind, mark in fake.marks.items() if mark in prompt)]
        with fake.lock:
            index = fake.requests
            fake.requests += 1
            fake.requests_seen.append(
                {
                    "body": body,
                    "auth": self.headers.get("Authorization"),
                    "proxy_auth": self.headers.get("Proxy-Authorization"),
                }
            )
            fake.paths.append(self.path)
            for kind in kinds:
                fake.inflight[kind] += 1
                fake.peak[kind] = max(fake.peak[kind], fake.inflight[kind])
            fake.arrivals.append(dict(fake.inflight))
        if fake.answer is not None:
            reply = fake.answer(prompt)
        else:
            reply = fake.replies[min(index, len(fake.replies) - 1)]
        time.sleep(reply.delay)
        # Released before the reply is sent: a client that has its answer
        # never sees its own request counted.
        with fake.lock:
            for kind in kinds:
                fake.inflight[kind] -= 1
        if reply.drop or reply.short:
            self.close_connection = True
        if reply.drop:
            return
        data = reply.body
        if not isinstance(data, bytes):
            data = json.dumps(data).encode()
        self.send_response(reply.status)
        headers = {"Content-Type": "application/json", **reply.headers}
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(data) + reply.short))
        self.end_headers()
        if reply.drip is None:
            self.wfile.write(data)
            return
        size, gap = reply.drip
        for start in range(0, len(data), size):
            time.sleep(gap)
            self.wfile.write(data[start : start + size])

    def log_message(self, *args):
        pass


class ChatFake(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, marks: dict[str, str] | None = None, tls: bool = False):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.lock = threading.Lock()
        self.replies = [Reply()]
        self.answer: Callable[[str], Reply] | None = None
        self.idle_timeout: float | None = None
        self.requests_seen: list[dict] = []
        self.paths: list[str] = []
        self.connections = self.open = self.requests = 0
        self.marks = marks or {}
        self.inflight = dict.fromkeys(["all", *self.marks], 0)
        self.peak = dict(self.inflight)
        self.arrivals: list[dict[str, int]] = []
        scheme = "http"
        if tls:
            context = ssl.create_default_context(ssl.Purpose.CLIENT_AUTH)
            context.load_cert_chain(TLS / "localhost.pem", TLS / "localhost.key")
            # The handshake runs on the connection's own thread, not in accept.
            self.socket = context.wrap_socket(
                self.socket, server_side=True, do_handshake_on_connect=False
            )
            scheme = "https"
        self.url = f"{scheme}://127.0.0.1:{self.server_address[1]}/v1/chat"


@contextmanager
def _running(server: socketserver.BaseServer) -> Iterator:
    """``server`` serving on a thread, shut down on leaving the block."""
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()


def serve(**options) -> ContextManager[ChatFake]:
    """A running ``ChatFake(**options)``, shut down on leaving the block."""
    return _running(ChatFake(**options))


class _TunnelHandler(socketserver.BaseRequestHandler):
    def handle(self):
        client = self.request
        head = b""
        while b"\r\n\r\n" not in head:
            chunk = client.recv(4096)
            if not chunk:
                return
            head += chunk
        # "CONNECT host:port HTTP/1.1"
        target = head.split(None, 2)[1].decode("ascii")
        with self.server.lock:
            self.server.targets.append(target)
        host, _, port = target.rpartition(":")
        with socket.create_connection((host, int(port))) as upstream:
            client.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
            peers = {client: upstream, upstream: client}
            while True:
                # Either side closing, or a minute of silence, ends the relay.
                readable = select.select(list(peers), [], [], 60)[0]
                if not readable:
                    return
                for sock in readable:
                    data = sock.recv(65536)
                    if not data:
                        return
                    peers[sock].sendall(data)


class Tunnel(socketserver.ThreadingTCPServer):
    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _TunnelHandler)
        self.lock = threading.Lock()
        self.targets: list[str] = []
        self.url = f"http://127.0.0.1:{self.server_address[1]}"


def tunnel() -> ContextManager[Tunnel]:
    """A running ``Tunnel``, shut down on leaving the block."""
    return _running(Tunnel())
