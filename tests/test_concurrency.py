"""Concurrent calls inside a claim on HTTP backends.

A loopback chat server answers every prompt of the six-claim run from its
script after a fixed delay, and counts the requests it holds at once. A
prompt listed in its ``failures`` gets HTTP 400 after the listed delay; one
listed in ``slow`` is answered after the listed delay.
"""
from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import fixture_six
from conftest import fixture_instances, scripted_config, six_claim_script_entries
from claimpipe.evaluation import run_eval
from claimpipe.llm import (
    BackendConfig,
    BackendKind,
    CompletionClient,
    ResponseCache,
    Script,
    prompt_sha256,
)
from claimpipe.pipeline import (
    ClaimVerifier,
    PipelineConfig,
    PipelineError,
    open_verifier,
)

DELAY_S = 0.05
# Text that marks each kind of prompt the server counts apart.
MARKS = {
    "extract": "such as important verbs",
    "deconstruct": "Dissect a given claim",
    "verify": "(Yes or No)",
}


class DelayedChatHandler(BaseHTTPRequestHandler):
    disable_nagle_algorithm = True

    def do_POST(self):
        server = self.server
        length = int(self.headers.get("Content-Length", 0))
        prompt = json.loads(self.rfile.read(length))["messages"][0]["content"]
        digest = prompt_sha256(prompt)
        failure_delay = server.failures.get(digest)
        kinds = ["all"] + [kind for kind, mark in MARKS.items() if mark in prompt]
        with server.lock:
            for kind in kinds:
                server.inflight[kind] += 1
                server.peak[kind] = max(server.peak[kind], server.inflight[kind])
            if server.inflight["extract"] and server.inflight["deconstruct"]:
                server.overlaps += 1
        if failure_delay is None:
            time.sleep(server.slow.get(digest, DELAY_S))
        else:
            time.sleep(failure_delay)
        # Released before the reply is sent: a client that has its answer
        # never sees its own request counted.
        with server.lock:
            for kind in kinds:
                server.inflight[kind] -= 1
        if failure_delay is None:
            status = 200
            text = server.script.lookup(prompt)
            payload = {
                "choices": [{"message": {"role": "assistant", "content": text}}],
                "usage": {"prompt_tokens": 5, "completion_tokens": 2},
            }
        else:
            status, payload = 400, {"error": "injected failure"}
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat(prompt_library):
    server = ThreadingHTTPServer(("127.0.0.1", 0), DelayedChatHandler)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.inflight = {kind: 0 for kind in ["all", *MARKS]}
    server.peak = dict(server.inflight)
    # Requests that arrived while an extraction and a deconstruction were
    # both in flight.
    server.overlaps = 0
    server.script = Script(six_claim_script_entries(prompt_library))
    server.failures = {}
    server.slow = {}
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


def http_config(server, **overrides) -> PipelineConfig:
    backend = BackendConfig(
        kind=BackendKind.HTTP_CHAT,
        endpoint_url=f"http://127.0.0.1:{server.server_address[1]}/v1/chat",
        max_retries=0,
        request_timeout=5.0,
    )
    return PipelineConfig(
        with_claim_context=True,
        abstraction_backend=backend,
        verification_backend=backend,
        **overrides,
    )


def report_json(report) -> str:
    return json.dumps(report.to_dict(include_timing=False), sort_keys=True)


def trace_files(directory) -> dict[str, str]:
    return {path.name: path.read_text() for path in sorted(directory.glob("*.json"))}


class TestInClaimConcurrency:
    def test_same_report_and_traces_at_any_worker_count(
        self, chat, six_bundle, prompt_library, tmp_path
    ):
        instances = fixture_instances()
        config = http_config(chat)
        reports = {
            workers: run_eval(
                instances,
                config,
                prompt_library,
                workers=workers,
                trace_dir=tmp_path / f"workers{workers}",
            )
            for workers in (1, 4)
        }
        assert report_json(reports[1]) == report_json(reports[4])
        assert reports[1].counts.error_count == 0
        assert [row.predicted.as_bool() for row in reports[1].rows] == [
            case["final"] for case in fixture_six.CLAIMS
        ]
        # The traces equal those of the inline scripted run, call for call.
        scripted_dir = tmp_path / "scripted"
        run_eval(
            instances,
            scripted_config(six_bundle.script_path),
            prompt_library,
            trace_dir=scripted_dir,
        )
        expected = trace_files(scripted_dir)
        assert len(expected) == len(instances)
        assert trace_files(tmp_path / "workers1") == expected
        assert trace_files(tmp_path / "workers4") == expected

    def test_calls_within_one_claim_overlap(self, chat, prompt_library):
        report = run_eval(
            fixture_instances(), http_config(chat), prompt_library, workers=1
        )
        assert report.counts.error_count == 0
        # One claim at a time, yet the server held several of its requests,
        # verifications included; never more than the bound of 5 per worker.
        assert 1 < chat.peak["all"] <= 5
        assert chat.peak["verify"] > 1

    def test_short_circuit_verifies_one_subclaim_at_a_time(
        self, chat, prompt_library
    ):
        config = http_config(chat, short_circuit=True)
        report = run_eval(fixture_instances(), config, prompt_library, workers=1)
        assert report.counts.error_count == 0
        assert chat.peak["verify"] == 1
        # The summaries and the deconstruction still overlap.
        assert chat.peak["all"] > 1

    # (first summary, deconstruction) failure delays in seconds. "fast-first":
    # the first failure in canonical order arrives while later siblings are
    # still in flight. "slow-first": a later sibling fails before it.
    @pytest.mark.parametrize(
        "delays", [(0.0, None), (2 * DELAY_S, 0.0)], ids=["fast-first", "slow-first"]
    )
    def test_failure_matches_inline_path_and_leaves_nothing_running(
        self, chat, prompt_library, tmp_path, delays
    ):
        # The failing claim is the last one, so that nothing runs after it.
        position = len(fixture_six.CLAIMS) - 1
        case = fixture_six.CLAIMS[position]
        prompts = (
            prompt_library.render_evidence_summarization(
                case["evidence"][0][1], case["selected"][0]
            ),
            prompt_library.render_claim_deconstruction(case["claim"]),
        )
        chat.failures = {
            prompt_sha256(prompt): delay
            for prompt, delay in zip(prompts, delays)
            if delay is not None
        }
        instances = fixture_instances()
        config = http_config(chat)

        report = run_eval(instances, config, prompt_library)
        assert chat.inflight["all"] == 0

        # The claim itself waits for its siblings: nothing is in flight when
        # it raises, and nothing writes to the cache afterwards.
        cache = ResponseCache(tmp_path / "cache")
        with open_verifier(config, prompt_library, cache=cache) as verifier:
            with pytest.raises(PipelineError):
                verifier.verify_claim(instances[position])
            assert chat.inflight["all"] == 0
            cached = len(cache.entries())
            time.sleep(3 * DELAY_S)
            assert len(cache.entries()) == cached

        client = CompletionClient(config.verification_backend)
        inline = ClaimVerifier(config, prompt_library, client, client)
        with pytest.raises(PipelineError) as info:
            inline.verify_claim(instances[position])
        assert info.value.stage == "evidence_summarization"
        assert report.counts.error_count == 1
        row = report.rows[position]
        assert row.error is True
        assert row.error_message == str(info.value)


class TestEarlyDeconstruction:
    def test_deconstruction_in_flight_with_extraction(self, chat, prompt_library):
        report = run_eval(
            fixture_instances(), http_config(chat), prompt_library, workers=1
        )
        assert report.counts.error_count == 0
        assert chat.overlaps > 0
        assert chat.peak["all"] <= 5

    # (failing prompt, its failure delay, slow prompt, the stage named). The
    # first case fails extraction while the deconstruction is still running;
    # in the second the deconstruction fails first, but the summary before
    # it in canonical order fails too, later.
    @pytest.mark.parametrize(
        "failing, slow, stage",
        [
            (("extract", 0.0), "deconstruct", "keyword_extraction"),
            (("summary", 4 * DELAY_S), None, "evidence_summarization"),
        ],
        ids=["extraction-fails", "summary-fails-after-deconstruction"],
    )
    def test_first_failure_in_canonical_order_wins(
        self, chat, prompt_library, failing, slow, stage
    ):
        position = len(fixture_six.CLAIMS) - 1
        case = fixture_six.CLAIMS[position]
        prompts = {
            "extract": prompt_library.render_keyword_extraction(case["claim"]),
            "summary": prompt_library.render_evidence_summarization(
                case["evidence"][0][1], case["selected"][0]
            ),
            "deconstruct": prompt_library.render_claim_deconstruction(
                case["claim"]
            ),
        }
        name, delay = failing
        chat.failures = {prompt_sha256(prompts[name]): delay}
        if slow is None:
            chat.failures[prompt_sha256(prompts["deconstruct"])] = 0.0
        else:
            chat.slow = {prompt_sha256(prompts[slow]): 4 * DELAY_S}
        instances = fixture_instances()
        config = http_config(chat)

        report = run_eval(instances, config, prompt_library)
        row = report.rows[position]
        assert report.counts.error_count == 1
        assert row.error is True

        with open_verifier(config, prompt_library) as verifier:
            with pytest.raises(PipelineError) as info:
                verifier.verify_claim(instances[position])
            assert chat.inflight["all"] == 0
        assert info.value.stage == stage
        assert row.error_message == str(info.value)

        client = CompletionClient(config.verification_backend)
        inline = ClaimVerifier(config, prompt_library, client, client)
        with pytest.raises(PipelineError) as inline_info:
            inline.verify_claim(instances[position])
        assert str(inline_info.value) == str(info.value)
        client.close()
