from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import pytest

from claimpipe import llm
from claimpipe.evaluation import run_eval
from claimpipe.llm import (
    BackendConfig,
    BackendKind,
    CompletionClient,
    CompletionRequest,
    CompletionResponse,
    MalformedResponseError,
    ResponseCache,
    Script,
    ScriptedMissError,
    TransportError,
    cache_key,
    prompt_sha256,
    retry_delay,
    script_entry,
)
from claimpipe.pipeline import (
    ClaimInstance,
    EvidencePiece,
    PipelineConfig,
    Verdict,
    open_verifier,
)


class ChatHandler(BaseHTTPRequestHandler):
    """Serves canned chat responses; per-server script of (status, body) or
    (status, body, headers)."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        self.server.requests_seen.append(
            {"body": body, "auth": self.headers.get("Authorization")}
        )
        status, payload, *headers = self.server.responses[
            min(len(self.server.requests_seen) - 1, len(self.server.responses) - 1)
        ]
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    server = HTTPServer(("127.0.0.1", 0), ChatHandler)
    server.requests_seen = []
    server.responses = [(200, chat_payload("default"))]
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


class KeepAliveHandler(BaseHTTPRequestHandler):
    """Answers every POST with ``server.text`` over HTTP/1.1, keeping the
    connection open. Counts connections, open connections and requests, and
    records request paths. Request n stalls for ``server.stalls[n]`` seconds,
    when given, and is then dropped unanswered. A connection idle for
    ``server.idle_timeout`` seconds is closed."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def setup(self):
        self.timeout = self.server.idle_timeout
        super().setup()
        with self.server.lock:
            self.server.connections += 1
            self.server.open += 1

    def finish(self):
        try:
            super().finish()
        finally:
            with self.server.lock:
                self.server.open -= 1

    def do_POST(self):
        server = self.server
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with server.lock:
            index = server.requests
            server.requests += 1
            server.paths.append(self.path)
        if index < len(server.stalls) and server.stalls[index]:
            time.sleep(server.stalls[index])
            self.close_connection = True
            return
        data = json.dumps(chat_payload(server.text)).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def keepalive_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), KeepAliveHandler)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.connections = server.open = server.requests = 0
    server.paths = []
    server.stalls = []
    server.idle_timeout = None
    server.text = "ok"
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


def settles(predicate, timeout: float = 5.0) -> bool:
    """Whether ``predicate()`` holds within ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def chat_payload(text: str, prompt_tokens: int = 7, completion_tokens: int = 3):
    return {
        "choices": [{"message": {"role": "assistant", "content": text}}],
        "usage": {
            "prompt_tokens": prompt_tokens,
            "completion_tokens": completion_tokens,
        },
    }


def http_backend(server, **overrides) -> BackendConfig:
    options = {
        "kind": BackendKind.HTTP_CHAT,
        "endpoint_url": f"http://127.0.0.1:{server.server_address[1]}/v1/chat",
        "model_id": "test-model",
        "max_retries": 2,
        "backoff_base": 0.0,
        "request_timeout": 5.0,
    }
    options.update(overrides)
    return BackendConfig(**options)


class TestHashing:
    def test_prompt_sha256_known_value(self):
        assert prompt_sha256("hello") == (
            "2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824"
        )

    def test_cache_key_sensitivity(self):
        base = CompletionRequest(prompt="p", model_id="m")
        assert cache_key(base) == cache_key(CompletionRequest(prompt="p", model_id="m"))
        assert cache_key(base) != cache_key(CompletionRequest(prompt="q", model_id="m"))
        assert cache_key(base) != cache_key(CompletionRequest(prompt="p", model_id="n"))
        assert cache_key(base) != cache_key(
            CompletionRequest(prompt="p", model_id="m", temperature=0.7)
        )
        assert cache_key(base) != cache_key(
            CompletionRequest(prompt="p", model_id="m", max_tokens=16)
        )


class TestBackendConfig:
    def test_http_requires_endpoint(self):
        with pytest.raises(ValueError):
            BackendConfig(kind=BackendKind.HTTP_CHAT)

    def test_scripted_requires_script(self):
        with pytest.raises(ValueError):
            BackendConfig(kind=BackendKind.SCRIPTED)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            BackendConfig(
                kind=BackendKind.HTTP_CHAT, endpoint_url="http://x", max_retries=-1
            )


class TestResponseCache:
    def test_round_trip(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        response = CompletionResponse(text="abc", prompt_tokens=5, completion_tokens=2)
        cache.put("k1", response)
        got = cache.get("k1")
        assert got.text == "abc"
        assert got.prompt_tokens == 5
        assert got.completion_tokens == 2
        assert got.cached is True

    def test_miss_and_corrupt_entry(self, tmp_path):
        cache = ResponseCache(tmp_path)
        assert cache.get("missing") is None
        (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
        assert cache.get("bad") is None

    def test_no_temp_files_left(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cache.put("k", CompletionResponse(text="x"))
        assert list(tmp_path.glob("*.tmp")) == []
        assert len(cache.entries()) == 1

    def test_clear(self, tmp_path):
        cache = ResponseCache(tmp_path)
        cache.put("a", CompletionResponse(text="x"))
        cache.put("b", CompletionResponse(text="y"))
        assert cache.clear() == 2
        assert cache.entries() == []


class TestScript:
    def test_hash_lookup(self):
        script = Script([script_entry("the prompt", "the answer")])
        assert script.lookup("the prompt") == "the answer"
        assert script.lookup("another prompt") is None

    def test_regex_lookup_in_order(self):
        script = Script(
            [
                {"regex": "alpha", "response": "first"},
                {"regex": "alp", "response": "second"},
            ]
        )
        assert script.lookup("xx alpha yy") == "first"

    def test_hash_beats_regex(self):
        script = Script(
            [
                {"regex": ".", "response": "regex"},
                script_entry("exact", "hashed"),
            ]
        )
        assert script.lookup("exact") == "hashed"
        assert script.lookup("other") == "regex"

    def test_regex_spans_lines(self):
        script = Script([{"regex": "start.*end", "response": "ok"}])
        assert script.lookup("start\nmiddle\nend") == "ok"

    def test_load_validation(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text('{"hash": "x"}', encoding="utf-8")
        with pytest.raises(ValueError, match="JSON list"):
            Script.load(path)
        path.write_text('[{"response": "no key"}]', encoding="utf-8")
        with pytest.raises(ValueError, match="'hash' or 'regex'"):
            Script.load(path)


def scripted_client(tmp_path, entries, cache=None) -> CompletionClient:
    path = tmp_path / "script.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    backend = BackendConfig(kind=BackendKind.SCRIPTED, script_path=str(path))
    return CompletionClient(backend, cache=cache)


class TestScriptedClient:
    def test_hit(self, tmp_path):
        client = scripted_client(tmp_path, [script_entry("p", "answer")])
        assert client.complete_prompt("p").text == "answer"
        assert client.request_count == 1

    def test_miss_raises_with_prompt_hash(self, tmp_path):
        client = scripted_client(tmp_path, [])
        with pytest.raises(ScriptedMissError) as info:
            client.complete_prompt("mystery prompt")
        assert prompt_sha256("mystery prompt")[:12] in str(info.value)

    def test_cache_round_trip(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        client = scripted_client(tmp_path, [script_entry("p", "answer")], cache=cache)
        first = client.complete_prompt("p")
        second = client.complete_prompt("p")
        assert first.cached is False
        assert second.cached is True
        assert client.request_count == 1
        assert client.cache_hits == 1

    def test_cache_survives_missing_script_entry(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        client = scripted_client(tmp_path, [script_entry("p", "answer")], cache=cache)
        client.complete_prompt("p")
        empty = scripted_client(tmp_path, [], cache=cache)
        # The entry is gone from the script, but the cache still serves it.
        assert empty.complete_prompt("p").text == "answer"

    def test_one_prompt_hash_per_call_without_cache(self, tmp_path, monkeypatch):
        client = scripted_client(tmp_path, [script_entry("p", "answer")])
        hashed = []
        real_sha256 = llm.prompt_sha256

        def recording_sha256(prompt):
            hashed.append(prompt)
            return real_sha256(prompt)

        monkeypatch.setattr(llm, "prompt_sha256", recording_sha256)

        def no_cache_key(request):
            raise AssertionError("cache key built without a cache")

        monkeypatch.setattr(llm, "cache_key", no_cache_key)
        response = client.complete_prompt("p")
        assert hashed == ["p"]
        assert response.prompt_sha256 == real_sha256("p")

    def test_cache_hit_carries_prompt_hash(self, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        client = scripted_client(tmp_path, [script_entry("p", "answer")], cache=cache)
        client.complete_prompt("p")
        hit = client.complete_prompt("p")
        assert hit.cached is True
        assert hit.prompt_sha256 == prompt_sha256("p")
        # The digest is not stored with the entry.
        assert "prompt_sha256" not in json.loads(cache.entries()[0].read_text())

    def test_given_script_is_not_reloaded(self, tmp_path):
        script = Script([script_entry("p", "answer")])
        backend = BackendConfig(
            kind=BackendKind.SCRIPTED, script_path=str(tmp_path / "absent.json")
        )
        client = CompletionClient(backend, script=script)
        assert client.complete_prompt("p").text == "answer"


class TestHttpClient:
    def test_happy_path_and_request_shape(self, chat_server, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "sk-test-123")
        chat_server.responses = [(200, chat_payload("the completion"))]
        client = CompletionClient(http_backend(chat_server))
        response = client.complete_prompt("what is up")
        assert response.text == "the completion"
        assert response.prompt_tokens == 7
        assert response.completion_tokens == 3
        assert client.prompt_tokens_total == 7
        seen = chat_server.requests_seen[0]
        assert seen["auth"] == "Bearer sk-test-123"
        assert seen["body"]["model"] == "test-model"
        assert seen["body"]["messages"] == [{"role": "user", "content": "what is up"}]
        assert seen["body"]["temperature"] == pytest.approx(0.05)
        assert seen["body"]["max_tokens"] == 512

    def test_no_auth_header_without_key(self, chat_server, monkeypatch):
        monkeypatch.delenv("LLM_API_KEY", raising=False)
        client = CompletionClient(http_backend(chat_server))
        client.complete_prompt("x")
        assert chat_server.requests_seen[0]["auth"] is None

    def test_custom_api_key_env(self, chat_server, monkeypatch):
        monkeypatch.setenv("OTHER_KEY", "zz")
        client = CompletionClient(http_backend(chat_server, api_key_env="OTHER_KEY"))
        client.complete_prompt("x")
        assert chat_server.requests_seen[0]["auth"] == "Bearer zz"

    def test_retries_429_then_succeeds(self, chat_server):
        chat_server.responses = [(429, {"error": "slow down"}), (200, chat_payload("ok"))]
        client = CompletionClient(http_backend(chat_server))
        assert client.complete_prompt("x").text == "ok"
        assert len(chat_server.requests_seen) == 2

    def test_retries_500_then_succeeds(self, chat_server):
        chat_server.responses = [(500, {}), (503, {}), (200, chat_payload("ok"))]
        client = CompletionClient(http_backend(chat_server))
        assert client.complete_prompt("x").text == "ok"
        assert len(chat_server.requests_seen) == 3

    def test_gives_up_after_retry_budget(self, chat_server):
        chat_server.responses = [(500, {})]
        client = CompletionClient(http_backend(chat_server, max_retries=2))
        with pytest.raises(TransportError, match="after 2 retries"):
            client.complete_prompt("x")
        assert len(chat_server.requests_seen) == 3

    def test_client_error_not_retried(self, chat_server):
        chat_server.responses = [(400, {"error": "bad request"})]
        client = CompletionClient(http_backend(chat_server))
        with pytest.raises(TransportError, match="HTTP 400"):
            client.complete_prompt("x")
        assert len(chat_server.requests_seen) == 1

    def test_malformed_json_not_retried(self, chat_server):
        chat_server.responses = [(200, b"this is not json")]
        client = CompletionClient(http_backend(chat_server))
        with pytest.raises(MalformedResponseError):
            client.complete_prompt("x")
        assert len(chat_server.requests_seen) == 1

    def test_missing_choices_is_malformed(self, chat_server):
        chat_server.responses = [(200, {"choices": []})]
        client = CompletionClient(http_backend(chat_server))
        with pytest.raises(MalformedResponseError, match="choices"):
            client.complete_prompt("x")

    def test_non_string_content_is_malformed(self, chat_server):
        chat_server.responses = [
            (200, {"choices": [{"message": {"content": ["nope"]}}]})
        ]
        client = CompletionClient(http_backend(chat_server))
        with pytest.raises(MalformedResponseError, match="not a string"):
            client.complete_prompt("x")

    def test_timeout_retried_then_succeeds(self, keepalive_server):
        # The first request outlasts the client's timeout and is never
        # answered; the threaded server answers the retry at once.
        keepalive_server.stalls = [0.5]
        client = CompletionClient(
            http_backend(keepalive_server, request_timeout=0.2)
        )
        try:
            assert client.complete_prompt("x").text == "ok"
        finally:
            client.close()
        assert keepalive_server.requests == 2

    def test_connection_error_exhausts_budget(self):
        backend = BackendConfig(
            kind=BackendKind.HTTP_CHAT,
            endpoint_url="http://127.0.0.1:1/v1",
            max_retries=1,
            backoff_base=0.0,
        )
        client = CompletionClient(backend)
        with pytest.raises(TransportError, match="ConnectionError"):
            client.complete_prompt("x")

    def test_missing_usage_defaults_to_zero(self, chat_server):
        chat_server.responses = [
            (200, {"choices": [{"message": {"content": "ok"}}]})
        ]
        client = CompletionClient(http_backend(chat_server))
        response = client.complete_prompt("x")
        assert response.prompt_tokens == 0
        assert response.completion_tokens == 0

    def test_http_responses_are_cached(self, chat_server, tmp_path):
        cache = ResponseCache(tmp_path / "cache")
        chat_server.responses = [(200, chat_payload("cached answer"))]
        client = CompletionClient(http_backend(chat_server), cache=cache)
        client.complete_prompt("x")
        again = client.complete_prompt("x")
        assert again.text == "cached answer"
        assert again.cached is True
        assert len(chat_server.requests_seen) == 1


class TestKeepAlive:
    def test_sequential_calls_share_one_connection(self, keepalive_server):
        client = CompletionClient(http_backend(keepalive_server))
        try:
            for n in range(5):
                assert client.complete_prompt(f"prompt {n}").text == "ok"
        finally:
            client.close()
        assert keepalive_server.requests == 5
        assert keepalive_server.connections == 1
        assert settles(lambda: keepalive_server.open == 0)

    def test_each_thread_keeps_its_own_connection(self, keepalive_server):
        threads, calls = 8, 3
        client = CompletionClient(http_backend(keepalive_server))
        errors = []

        def caller(n):
            try:
                for k in range(calls):
                    assert client.complete_prompt(f"{n}/{k}").text == "ok"
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=caller, args=(n,)) for n in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=10)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
            client.close()
        assert errors == []
        assert client.request_count == keepalive_server.requests == threads * calls
        assert keepalive_server.connections == threads
        assert settles(lambda: keepalive_server.open == 0)

    def test_idle_connection_closed_by_server_costs_no_attempt(
        self, keepalive_server
    ):
        keepalive_server.idle_timeout = 0.01
        # No retries: a call on the dropped connection would fail outright.
        client = CompletionClient(http_backend(keepalive_server, max_retries=0))
        try:
            assert client.complete_prompt("first").text == "ok"
            time.sleep(0.05)
            assert client.complete_prompt("second").text == "ok"
        finally:
            client.close()
        assert keepalive_server.requests == 2
        assert keepalive_server.connections == 2

    def test_proxy_from_environment_is_honoured(
        self, keepalive_server, monkeypatch
    ):
        url = "http://claimpipe.invalid/v1/chat"
        client = CompletionClient(http_backend(keepalive_server, endpoint_url=url))
        # Set after construction: the environment is read at the first call.
        for name in ("NO_PROXY", "no_proxy", "http_proxy"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv(
            "HTTP_PROXY", f"http://127.0.0.1:{keepalive_server.server_address[1]}"
        )
        try:
            assert client.complete_prompt("x").text == "ok"
        finally:
            client.close()
        assert keepalive_server.paths == [url]

    def test_connections_closed_when_the_run_ends(
        self, keepalive_server, prompt_library
    ):
        # One answer serves every stage, as in TestTokenTotalsIgnoreCache.
        keepalive_server.text = "alpha, beta."
        backend = http_backend(keepalive_server)
        config = PipelineConfig(
            abstraction_backend=backend, verification_backend=backend
        )
        instances = [
            ClaimInstance(
                id=f"c{n}",
                claim=f"alpha beta gamma {n}.",
                evidence=(EvidencePiece(text="alpha beta delta."),),
                gold_label=Verdict.TRUE,
            )
            for n in range(4)
        ]
        report = run_eval(instances, config, prompt_library, workers=2)
        assert report.counts.error_count == 0
        assert keepalive_server.connections < keepalive_server.requests
        assert settles(lambda: keepalive_server.open == 0)

        with open_verifier(config, prompt_library) as verifier:
            verifier.verify_claim(instances[0])
            assert keepalive_server.open > 0
        # Closed by leaving the block, while the verifier is still referenced.
        assert settles(lambda: keepalive_server.open == 0)
        assert verifier.abstraction_client.request_count > 0


class TestRetryDelay:
    @pytest.mark.parametrize("header, expected", [("1", 1.0), (" 7 ", 7.0), ("0", 0.0)])
    def test_integer_retry_after_wins(self, header, expected):
        assert retry_delay(3, 0.5, jitter=1.0, retry_after=header) == expected

    def test_retry_after_capped(self):
        assert retry_delay(1, 0.5, jitter=0.0, retry_after="120", cap=5.0) == 5.0

    @pytest.mark.parametrize(
        "header", [None, "", "-1", "1.5", "\u00b2", "Wed, 21 Oct 2015 07:28:00 GMT"]
    )
    def test_other_retry_after_forms_fall_back_to_backoff(self, header):
        assert retry_delay(2, 0.5, jitter=0.0, retry_after=header) == 1.0

    def test_jitter_spans_half_to_full_backoff(self):
        # Retry 3 with base 0.5: the unjittered backoff is 0.5 * 2**2 = 2 s.
        assert retry_delay(3, 0.5, jitter=0.0) == 2.0
        assert retry_delay(3, 0.5, jitter=0.5) == 1.5
        assert retry_delay(3, 0.5, jitter=1.0) == 1.0


class TestRetryAfterOverHttp:
    @pytest.mark.parametrize("status, honoured", [(429, True), (500, False)])
    def test_retry_after_honoured_on_429_only_of_these(
        self, chat_server, status, honoured
    ):
        chat_server.responses = [
            (status, {"error": "slow down"}, {"Retry-After": "1"}),
            (200, chat_payload("ok")),
        ]
        # backoff_base 0: any wait comes from the header.
        client = CompletionClient(http_backend(chat_server))
        started = time.monotonic()
        assert client.complete_prompt("x").text == "ok"
        waited = time.monotonic() - started
        assert len(chat_server.requests_seen) == 2
        assert (waited >= 1.0) is honoured


class TestTokenTotalsIgnoreCache:
    def test_cold_and_warm_runs_report_equal_totals(
        self, chat_server, tmp_path, prompt_library
    ):
        # One answer serves every stage: two keywords, a summary, a one-part
        # claim and a verdict that abstains.
        chat_server.responses = [(200, chat_payload("alpha, beta."))]
        backend = http_backend(chat_server)
        config = PipelineConfig(
            abstraction_backend=backend, verification_backend=backend
        )
        instances = [
            ClaimInstance(
                id=f"c{n}",
                claim=claim,
                evidence=(EvidencePiece(text="alpha beta delta."),),
                gold_label=Verdict.TRUE,
            )
            for n, claim in enumerate(["alpha beta gamma.", "alpha beta mu."])
        ]
        cache = ResponseCache(tmp_path / "cache")
        cold = run_eval(instances, config, prompt_library, cache=cache)
        sent = len(chat_server.requests_seen)
        warm = run_eval(instances, config, prompt_library, cache=cache)
        assert len(chat_server.requests_seen) == sent
        assert cold.counts.error_count == 0
        assert cold.prompt_tokens > 0
        assert warm.to_dict(include_timing=False) == cold.to_dict(
            include_timing=False
        )
