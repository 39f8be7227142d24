"""Concurrent calls inside a claim on HTTP backends.

The loopback chat fake answers every prompt of the six-claim run from its
script after a fixed delay, and counts the requests it holds at once. A
prompt listed in its ``failures`` gets HTTP 400 after the listed delay; one
listed in ``slow`` is answered after the listed delay.
"""
from __future__ import annotations

import json
import time

import pytest

import fixture_six
from chatfake import Reply, chat_payload, serve
from conftest import (
    REGEX_SCRIPT_ENTRIES,
    fixture_instances,
    scripted_config,
    six_claim_script_entries,
)
from claimpipe import evaluation
from claimpipe.evaluation import run_eval
from claimpipe.llm import (
    BackendConfig,
    BackendError,
    BackendKind,
    CompletionClient,
    ResponseCache,
    Script,
    prompt_sha256,
)
from claimpipe.pipeline import (
    Ablation,
    ClaimInstance,
    ClaimVerifier,
    EvidencePiece,
    PipelineConfig,
    PipelineError,
    Verdict,
    open_verifier,
)

DELAY_S = 0.05
# Text that marks each kind of prompt the server counts apart.
MARKS = {
    "extract": "such as important verbs",
    "deconstruct": "Dissect a given claim",
    "verify": "(Yes or No)",
}


@pytest.fixture
def chat(prompt_library):
    script = Script(six_claim_script_entries(prompt_library))
    with serve(marks=MARKS) as server:
        server.failures, server.slow = {}, {}

        def answer(prompt: str) -> Reply:
            digest = prompt_sha256(prompt)
            if digest in server.failures:
                body = {"error": "injected failure"}
                return Reply(400, body, delay=server.failures[digest])
            body = chat_payload(script.lookup(prompt), 5, 2)
            return Reply(body=body, delay=server.slow.get(digest, DELAY_S))

        server.answer = answer
        yield server


def http_config(server, **overrides) -> PipelineConfig:
    backend = BackendConfig(
        kind=BackendKind.HTTP_CHAT,
        endpoint_url=server.url,
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

    def test_traces_in_canonical_order_when_calls_finish_out_of_order(
        self, chat, six_bundle, prompt_library, tmp_path
    ):
        instances = fixture_instances()
        scripted_dir = tmp_path / "scripted"
        run_eval(
            instances,
            scripted_config(six_bundle.script_path),
            prompt_library,
            trace_dir=scripted_dir,
        )
        expected = trace_files(scripted_dir)
        # Each claim's first summary and first verification take the longest,
        # so they finish after every sibling started with them.
        reordered = set()
        for text in expected.values():
            trace = json.loads(text)["trace"]
            stages = [entry["stage"] for entry in trace]
            for stage in ("evidence_summarization", "subclaim_verification"):
                chat.slow[trace[stages.index(stage)]["prompt_sha256"]] = 4 * DELAY_S
                if stages.count(stage) > 1:
                    reordered.add(stage)
        assert len(reordered) == 2

        run_eval(
            instances,
            http_config(chat),
            prompt_library,
            workers=4,
            trace_dir=tmp_path / "http",
        )
        assert chat.peak["verify"] > 1
        assert trace_files(tmp_path / "http") == expected

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
        assert any(now["extract"] and now["deconstruct"] for now in chat.arrivals)
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
            (("deconstruct", 0.0), "extract", "claim_deconstruction"),
        ],
        ids=[
            "extraction-fails",
            "summary-fails-after-deconstruction",
            "deconstruction-fails",
        ],
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


class TestStageAttribution:
    INSTANCE = ClaimInstance(
        id="one",
        claim="Alpha beta gamma.",
        evidence=(EvidencePiece("Alpha beta delta."), EvidencePiece("Gamma epsilon.")),
        gold_label=Verdict.TRUE,
    )

    # (variant, texts that together mark the one failing prompt, the stage). The
    # regex script deconstructs every claim into "First part." and "Second
    # part.", so the second verification fails while the first succeeds.
    @pytest.mark.parametrize(
        "ablation, failing, stage",
        [
            (Ablation.NONE, ("(Yes or No)", "Second part."), "subclaim_verification"),
            (
                Ablation.NO_KEYWORD_GUIDANCE,
                ("based on a given claim", "Gamma epsilon."),
                "claim_guided_summarization",
            ),
        ],
        ids=["one-verification", "no-keyword-summary"],
    )
    def test_a_call_failing_alone_names_its_stage(
        self, chat, prompt_library, ablation, failing, stage
    ):
        script = Script(REGEX_SCRIPT_ENTRIES)

        def answer(prompt: str) -> Reply:
            if all(mark in prompt for mark in failing):
                return Reply(400, {"error": "injected failure"})
            return Reply(body=chat_payload(script.lookup(prompt), 5, 2))

        chat.answer = answer
        config = http_config(chat, ablation=ablation)
        report = run_eval([self.INSTANCE], config, prompt_library)
        assert chat.inflight["all"] == 0
        (pooled,) = report.failures
        assert pooled.stage == stage
        assert isinstance(pooled.__cause__, BackendError)

        client = CompletionClient(config.verification_backend)
        inline = ClaimVerifier(config, prompt_library, client, client)
        with pytest.raises(PipelineError) as info:
            inline.verify_claim(self.INSTANCE)
        client.close()
        assert info.value.stage == stage
        assert isinstance(info.value.__cause__, BackendError)
        assert report.rows[0].error_message == str(info.value)


class TestEarlyExit:
    def test_failed_trace_write_starts_no_further_claim(
        self, chat, prompt_library, tmp_path, monkeypatch
    ):
        def failing_write(path, payload):
            raise OSError("disk full")

        monkeypatch.setattr(evaluation, "write_json", failing_write)
        workers = 1
        with pytest.raises(OSError, match="disk full"):
            run_eval(
                fixture_instances(),
                http_config(chat),
                prompt_library,
                workers=workers,
                trace_dir=tmp_path / "traces",
            )
        assert chat.inflight["all"] == 0
        # The claim whose trace failed, plus those its workers had already
        # picked up; the other claims never start.
        extractions = [
            seen for seen in chat.requests_seen
            if MARKS["extract"] in seen["body"]["messages"][0]["content"]
        ]
        assert len(extractions) <= 1 + workers
