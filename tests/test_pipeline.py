from __future__ import annotations

import dataclasses
import itertools
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fixture_six
from conftest import (
    REGEX_SCRIPT_ENTRIES,
    fixture_instances,
    scripted_config,
    write_regex_script,
)
from claimpipe import pipeline
from claimpipe.fuzzy import partial_ratio, preprocess
from claimpipe.llm import CompletionClient, Script, ScriptedMissError, prompt_sha256
from claimpipe.pipeline import (
    Ablation,
    ClaimInstance,
    ClaimVerifier,
    EvidencePiece,
    KeywordSet,
    PipelineError,
    Subclaim,
    SubclaimResult,
    Verdict,
    aggregate,
    open_verifier,
    parse_keyword_list,
    parse_subclaims,
    parse_verdict_answer,
    select_keywords,
)
from claimpipe.prompts import format_evidence_block


class TestParseKeywordList:
    def test_reference_completion(self):
        got = parse_keyword_list(
            "spam, canned cooked meat, Hormel Foods Corporation, used, "
            "popular snack, lunch food, Hawaii."
        )
        assert got == [
            "spam",
            "canned cooked meat",
            "Hormel Foods Corporation",
            "used",
            "popular snack",
            "lunch food",
            "Hawaii",
        ]

    def test_case_insensitive_dedupe_keeps_first(self):
        assert parse_keyword_list("a, A, a ") == ["a"]
        assert parse_keyword_list("Spam, spam, SPAM.") == ["Spam"]

    def test_one_trailing_period_removed_from_last_item(self):
        assert parse_keyword_list("x.") == ["x"]
        assert parse_keyword_list("x..") == ["x."]
        assert parse_keyword_list("a., b.") == ["a.", "b"]

    def test_whitespace_trimmed_and_empties_dropped(self):
        assert parse_keyword_list(" foo ,  bar baz ,, qux.") == ["foo", "bar baz", "qux"]

    def test_items_without_alphanumerics_dropped(self):
        # They normalize to "", which partial-matches every piece at 100.
        assert parse_keyword_list("—, spam, !!!, ...") == ["spam"]
        with pytest.raises(PipelineError, match="no keywords"):
            parse_keyword_list("—, !!!")

    def test_empty_completion_rejected(self):
        with pytest.raises(PipelineError):
            parse_keyword_list("")
        with pytest.raises(PipelineError):
            parse_keyword_list(" , , .")


class TestParseSubclaims:
    def test_reference_completion_with_literal_backslashes(self):
        completion = (
            "\\n #1 Spam is a canned cooked meat product manufactured by "
            "Hormel Foods Corporation. \\n #2 Spam is not used to make a "
            "popular snack and lunch food in Hawaii."
        )
        got = parse_subclaims(completion)
        assert [s.index for s in got] == [1, 2]
        assert got[0].text == (
            "Spam is a canned cooked meat product manufactured by Hormel "
            "Foods Corporation."
        )
        assert got[1].text == (
            "Spam is not used to make a popular snack and lunch food in Hawaii."
        )

    def test_real_newlines(self):
        got = parse_subclaims("\n#1 First thing.\n#2 Second thing.")
        assert [s.text for s in got] == ["First thing.", "Second thing."]

    def test_markers_sorted_and_reindexed(self):
        got = parse_subclaims("#3 Gamma. #1 Alpha. #2 Beta.")
        assert [(s.index, s.text) for s in got] == [
            (1, "Alpha."),
            (2, "Beta."),
            (3, "Gamma."),
        ]

    def test_duplicate_marker_numbers_keep_order(self):
        got = parse_subclaims("#1 First. #1 Second.")
        assert [(s.index, s.text) for s in got] == [(1, "First."), (2, "Second.")]

    def test_whitespace_tolerant_markers(self):
        got = parse_subclaims("# 1 Padded one. # 2 Padded two.")
        assert [s.text for s in got] == ["Padded one.", "Padded two."]

    def test_no_markers_yields_single_subclaim(self):
        got = parse_subclaims("Just one complete statement.")
        assert got == [Subclaim(index=1, text="Just one complete statement.")]

    def test_leading_chatter_before_first_marker_dropped(self):
        got = parse_subclaims("Sure, here you go: #1 Only this.")
        assert [s.text for s in got] == ["Only this."]

    def test_empty_or_markers_only_rejected(self):
        with pytest.raises(PipelineError):
            parse_subclaims("   ")
        with pytest.raises(PipelineError):
            parse_subclaims("#1 #2")


class TestParseVerdictAnswer:
    @pytest.mark.parametrize(
        "answer,verdict,abstained",
        [
            ("Yes.", Verdict.TRUE, False),
            ("No.", Verdict.FALSE, False),
            ("yes, absolutely", Verdict.TRUE, False),
            ("The answer is no", Verdict.FALSE, False),
            ("YES", Verdict.TRUE, False),
            ("Yes. No.", Verdict.TRUE, False),
            ("No doubt: yes", Verdict.FALSE, False),
            ("Yesterday it rained", Verdict.TRUE, True),
            ("Nothing to report", Verdict.TRUE, True),
            ("The evidence is unclear on this point.", Verdict.TRUE, True),
            ("", Verdict.TRUE, True),
        ],
    )
    def test_cases(self, answer, verdict, abstained):
        assert parse_verdict_answer(answer) == (verdict, abstained)


def _result(verdict: Verdict) -> SubclaimResult:
    return SubclaimResult(
        subclaim=Subclaim(index=1, text="x"), raw_answer="", verdict=verdict
    )


class TestAggregate:
    def test_exhaustive_up_to_four_subclaims(self):
        for n in range(1, 5):
            for combo in itertools.product([Verdict.TRUE, Verdict.FALSE], repeat=n):
                got = aggregate([_result(v) for v in combo])
                expected = (
                    Verdict.FALSE if Verdict.FALSE in combo else Verdict.TRUE
                )
                assert got is expected

    def test_empty_rejected(self):
        with pytest.raises(PipelineError):
            aggregate([])


class TestSelectKeywords:
    MUSUBI = fixture_six.CLAIMS[0]["evidence"][0][1]
    SPAM_FOOD = fixture_six.CLAIMS[0]["evidence"][1][1]
    KEYWORDS = fixture_six.CLAIMS[0]["keywords"]

    def test_frozen_selection_first_piece(self):
        got = select_keywords(self.KEYWORDS, self.MUSUBI)
        assert list(got.keywords()) == fixture_six.CLAIMS[0]["selected"][0]

    def test_frozen_selection_second_piece(self):
        got = select_keywords(self.KEYWORDS, self.SPAM_FOOD)
        assert list(got.keywords()) == fixture_six.CLAIMS[0]["selected"][1]

    @pytest.mark.parametrize("piece", ["", "!!!", "\u2014 | \u2014 | \u2014"])
    def test_a_piece_that_normalizes_to_nothing_keeps_no_keyword(self, piece):
        for threshold in (60.0, 0.0):
            got = select_keywords(["abc", "def"], piece, threshold, threshold, 3)
            assert got == KeywordSet(evidence_index=3, selected=())
        # Without selection every keyword is kept, scoring 0 on both ratios.
        got = select_keywords(["abc", "def"], piece, -math.inf, -math.inf)
        assert [(s.partial_score, s.token_set_score) for s in got.selected] == [
            (0.0, 0.0), (0.0, 0.0)
        ]

    def test_exact_threshold_score_is_dropped(self):
        # "lunch food" against the second piece scores exactly 60 on the
        # partial ratio; the comparison is strict, so it must not be kept.
        score = partial_ratio(
            preprocess("lunch food").normalized,
            preprocess(self.SPAM_FOOD).normalized,
        )
        assert score == 60.0
        got = select_keywords(["lunch food"], self.SPAM_FOOD)
        assert got.keywords() == ()

    def test_lower_threshold_admits_boundary_score(self):
        got = select_keywords(["lunch food"], self.SPAM_FOOD, t1=59.9, t2=60.0)
        assert got.keywords() == ("lunch food",)

    def test_selection_preserves_keyword_order(self):
        got = select_keywords(
            ["Hawaii", "spam", "lunch food"], self.MUSUBI
        )
        assert got.keywords() == ("Hawaii", "spam", "lunch food")

    def test_scores_recorded_on_selected_keywords(self):
        got = select_keywords(["spam"], self.MUSUBI)
        assert got.selected[0].partial_score == 100.0
        assert got.selected[0].token_set_score == 100.0

    @given(
        st.lists(
            st.text(alphabet="abcdef", min_size=1, max_size=8),
            min_size=1,
            max_size=5,
        ),
        st.text(alphabet="abcdef ", min_size=1, max_size=40),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
    )
    def test_monotone_in_thresholds(self, keywords, evidence, a1, a2, b1, b2):
        low_t1, high_t1 = sorted((a1, b1))
        low_t2, high_t2 = sorted((a2, b2))
        strict = set(
            select_keywords(keywords, evidence, t1=high_t1, t2=high_t2).keywords()
        )
        loose = set(
            select_keywords(keywords, evidence, t1=low_t1, t2=low_t2).keywords()
        )
        assert strict <= loose

    # The bounds of the threshold range are drawn often: 0 drops only the
    # keywords scoring 0 on both ratios, 100 drops every keyword.
    THRESHOLD = st.one_of(
        st.sampled_from([0.0, 100.0]), st.floats(min_value=0, max_value=100)
    )

    @given(
        st.lists(st.text(alphabet="abcdeé中 ,.", max_size=10), max_size=6),
        st.text(alphabet="abcdeé中 ,.", max_size=80),
        THRESHOLD,
        THRESHOLD,
    )
    def test_selection_is_scoring_filtered_by_the_thresholds(
        self, keywords, evidence, t1, t2
    ):
        scored = select_keywords(keywords, evidence, -math.inf, -math.inf).selected
        assert [s.keyword for s in scored] == keywords
        kept = tuple(
            s for s in scored if s.partial_score > t1 or s.token_set_score > t2
        )
        assert select_keywords(keywords, evidence, t1, t2, evidence_index=2) == (
            KeywordSet(evidence_index=2, selected=kept)
        )

    @given(st.text(alphabet="abc", min_size=1, max_size=6))
    def test_verbatim_keyword_always_selected(self, word):
        evidence = f"xx {word} yy"
        got = select_keywords([word], evidence)
        assert got.keywords() == (word,)


TINY = ClaimInstance(
    id="tiny-1",
    claim="alpha beta gamma.",
    evidence=(
        EvidencePiece(text="alpha beta delta epsilon."),
        EvidencePiece(text="zeta eta theta."),
    ),
)


def make_verifier(tmp_path, prompts, entries=None, **config_overrides):
    tmp_path.mkdir(parents=True, exist_ok=True)
    script = write_regex_script(tmp_path / "script.json", entries)
    config = scripted_config(script, with_claim_context=False, **config_overrides)
    abstraction = CompletionClient(config.abstraction_backend)
    verification = CompletionClient(config.verification_backend)
    return ClaimVerifier(config, prompts, abstraction, verification), config


def stages(report) -> list[str]:
    return [entry.stage for entry in report.trace]


class TestSixClaimEndToEnd:
    @pytest.fixture
    def verifier(self, six_bundle, prompt_library):
        config = scripted_config(six_bundle.script_path, with_claim_context=True)
        abstraction = CompletionClient(config.abstraction_backend)
        verification = CompletionClient(config.verification_backend)
        return ClaimVerifier(config, prompt_library, abstraction, verification)

    @pytest.mark.parametrize(
        "position", range(len(fixture_six.CLAIMS)), ids=[c["id"] for c in fixture_six.CLAIMS]
    )
    def test_pinned_run(self, verifier, position):
        case = fixture_six.CLAIMS[position]
        instance = fixture_instances()[position]
        report = verifier.verify_claim(instance)

        assert list(report.keywords) == case["keywords"]
        assert [list(ks.keywords()) for ks in report.keyword_sets] == case["selected"]
        assert [a.text for a in report.abstracted] == case["es_responses"]
        assert [a.source_index for a in report.abstracted] == [0, 1]
        assert [s.text for s in report.subclaims] == case["subclaims"]
        assert [r.verdict.as_bool() for r in report.results] == case["subclaim_verdicts"]
        assert [r.abstained for r in report.results] == case["abstained"]
        assert report.final.as_bool() is case["final"]
        assert report.final is aggregate(list(report.results))

        summarized = sum(1 for s in case["selected"] if len(s) >= 2)
        expected_stages = (
            ["keyword_extraction"]
            + ["evidence_summarization"] * summarized
            + ["claim_deconstruction"]
            + ["subclaim_verification"] * len(case["subclaims"])
        )
        assert stages(report) == expected_stages

    def test_report_dict_round_trips_through_json(self, verifier):
        report = verifier.verify_claim(fixture_instances()[0])
        payload = report.to_dict()
        assert payload["schema_version"] == 1
        assert payload["final"] == "false"
        assert json.loads(json.dumps(payload)) == payload

    def test_two_runs_are_identical(self, verifier):
        instance = fixture_instances()[2]
        first = verifier.verify_claim(instance).to_dict()
        second = verifier.verify_claim(instance).to_dict()
        assert first == second


class TestAblations:
    def test_full_pipeline_stage_order(self, tmp_path, prompt_library):
        verifier, _ = make_verifier(tmp_path, prompt_library)
        report = verifier.verify_claim(TINY)
        assert stages(report) == [
            "keyword_extraction",
            "evidence_summarization",
            "claim_deconstruction",
            "subclaim_verification",
            "subclaim_verification",
        ]
        assert list(report.keywords) == ["alpha", "beta"]
        # Second piece shares no keywords, so only the first is summarized.
        assert [a.source_index for a in report.abstracted] == [0]

    def test_no_claim_deconstruction(self, tmp_path, prompt_library):
        verifier, _ = make_verifier(
            tmp_path, prompt_library, ablation=Ablation.NO_CLAIM_DECONSTRUCTION
        )
        report = verifier.verify_claim(TINY)
        assert stages(report) == [
            "keyword_extraction",
            "evidence_summarization",
            "subclaim_verification",
        ]
        assert [s.text for s in report.subclaims] == [TINY.claim]

    def test_no_evidence_abstraction(self, tmp_path, prompt_library):
        verifier, config = make_verifier(
            tmp_path, prompt_library, ablation=Ablation.NO_EVIDENCE_ABSTRACTION
        )
        report = verifier.verify_claim(TINY)
        assert stages(report) == [
            "claim_deconstruction",
            "subclaim_verification",
            "subclaim_verification",
        ]
        assert report.keywords == ()
        assert report.keyword_sets == ()
        assert report.abstracted == ()
        # Verification must see the raw evidence only.
        block = format_evidence_block([], [p.text for p in TINY.evidence])
        expected = prompt_library.render_subclaim_verification(
            block, "First part.", claim=TINY.claim, with_context=False
        )
        assert report.trace[1].prompt_sha256 == prompt_sha256(expected)

    def test_no_keyword_guidance(self, tmp_path, prompt_library):
        verifier, _ = make_verifier(
            tmp_path, prompt_library, ablation=Ablation.NO_KEYWORD_GUIDANCE
        )
        report = verifier.verify_claim(TINY)
        assert stages(report) == [
            "claim_guided_summarization",
            "claim_guided_summarization",
            "claim_deconstruction",
            "subclaim_verification",
            "subclaim_verification",
        ]
        assert report.keywords == ()
        assert [a.text for a in report.abstracted] == [
            "Claim summary line.",
            "Claim summary line.",
        ]
        assert [a.source_index for a in report.abstracted] == [0, 1]

    def test_no_keyword_selection(self, tmp_path, prompt_library):
        verifier, _ = make_verifier(
            tmp_path, prompt_library, ablation=Ablation.NO_KEYWORD_SELECTION
        )
        report = verifier.verify_claim(TINY)
        assert stages(report) == [
            "keyword_extraction",
            "evidence_summarization",
            "evidence_summarization",
            "claim_deconstruction",
            "subclaim_verification",
            "subclaim_verification",
        ]
        # Every keyword reaches every piece, scores still recorded.
        for keyword_set in report.keyword_sets:
            assert list(keyword_set.keywords()) == ["alpha", "beta"]
            assert all(s.partial_score >= 0 for s in keyword_set.selected)
        expected = prompt_library.render_evidence_summarization(
            TINY.evidence[1].text, ["alpha", "beta"]
        )
        assert report.trace[2].prompt_sha256 == prompt_sha256(expected)

    def test_a_piece_without_content_is_not_summarized(self, tmp_path, prompt_library):
        verifier, _ = make_verifier(tmp_path, prompt_library)
        dashes = EvidencePiece(text="\u2014 | \u2014 | \u2014")
        instance = dataclasses.replace(TINY, evidence=(dashes, TINY.evidence[0]))
        report = verifier.verify_claim(instance)
        kept = [list(s.keywords()) for s in report.keyword_sets]
        assert kept == [[], ["alpha", "beta"]]
        summaries = [e for e in report.trace if e.stage == "evidence_summarization"]
        expected = prompt_library.render_evidence_summarization(
            TINY.evidence[0].text, ["alpha", "beta"]
        )
        assert [e.prompt_sha256 for e in summaries] == [prompt_sha256(expected)]
        assert [a.source_index for a in report.abstracted] == [1]

    def test_no_raw_evidence(self, tmp_path, prompt_library):
        verifier, _ = make_verifier(
            tmp_path, prompt_library, ablation=Ablation.NO_RAW_EVIDENCE
        )
        report = verifier.verify_claim(TINY)
        assert stages(report) == [
            "keyword_extraction",
            "evidence_summarization",
            "claim_deconstruction",
            "subclaim_verification",
            "subclaim_verification",
        ]
        block = format_evidence_block(["Keyword summary line."], [])
        expected = prompt_library.render_subclaim_verification(
            block, "First part.", claim=TINY.claim, with_context=False
        )
        assert report.trace[3].prompt_sha256 == prompt_sha256(expected)

    def test_all_variants_reach_a_verdict(self, tmp_path, prompt_library):
        for variant in Ablation:
            verifier, _ = make_verifier(
                tmp_path / variant.value, prompt_library, ablation=variant
            )
            report = verifier.verify_claim(TINY)
            assert report.final is Verdict.TRUE


def entries_with_sv(response: str) -> list[dict]:
    entries = [dict(e) for e in REGEX_SCRIPT_ENTRIES]
    entries[-1] = {"regex": r"\(Yes or No\)", "response": response}
    return entries


class TestShortCircuit:
    def test_default_verifies_every_subclaim(self, tmp_path, prompt_library):
        verifier, _ = make_verifier(tmp_path, prompt_library, entries_with_sv("No."))
        report = verifier.verify_claim(TINY)
        assert len(report.results) == 2
        assert report.final is Verdict.FALSE

    def test_short_circuit_stops_after_first_false(self, tmp_path, prompt_library):
        verifier, _ = make_verifier(
            tmp_path, prompt_library, entries_with_sv("No."), short_circuit=True
        )
        report = verifier.verify_claim(TINY)
        assert len(report.results) == 1
        assert stages(report).count("subclaim_verification") == 1
        assert report.final is Verdict.FALSE


class TestErrorAnnotation:
    def test_empty_evidence_fails_at_input(self, tmp_path, prompt_library):
        verifier, _ = make_verifier(tmp_path, prompt_library)
        bad = ClaimInstance(id="bad-1", claim="A claim.", evidence=())
        with pytest.raises(PipelineError) as info:
            verifier.verify_claim(bad)
        assert info.value.stage == "input"
        assert info.value.claim_id == "bad-1"

    def test_empty_claim_fails_at_input(self, tmp_path, prompt_library):
        verifier, _ = make_verifier(tmp_path, prompt_library)
        bad = ClaimInstance(
            id="bad-2", claim="  ", evidence=(EvidencePiece(text="e"),)
        )
        with pytest.raises(PipelineError) as info:
            verifier.verify_claim(bad)
        assert info.value.stage == "input"

    def test_scripted_miss_wrapped_with_stage_and_claim(
        self, tmp_path, prompt_library
    ):
        verifier, _ = make_verifier(tmp_path, prompt_library, entries=[])
        with pytest.raises(PipelineError) as info:
            verifier.verify_claim(TINY)
        assert info.value.stage == "keyword_extraction"
        assert info.value.claim_id == "tiny-1"
        assert isinstance(info.value.__cause__, ScriptedMissError)
        assert "tiny-1" in str(info.value)

    def test_no_raw_with_nothing_abstracted_fails_at_verification(
        self, tmp_path, prompt_library
    ):
        entries = [
            {"regex": "such as important verbs", "response": "qq, rr."},
            {
                "regex": "Dissect a given claim",
                "response": "\\n #1 First part. \\n #2 Second part.",
            },
        ]
        verifier, _ = make_verifier(
            tmp_path, prompt_library, entries, ablation=Ablation.NO_RAW_EVIDENCE
        )
        with pytest.raises(PipelineError) as info:
            verifier.verify_claim(TINY)
        assert info.value.stage == "subclaim_verification"


    def test_unforeseen_error_fails_the_claim_alone(
        self, tmp_path, prompt_library, monkeypatch
    ):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(pipeline, "select_keywords", broken)
        verifier, _ = make_verifier(tmp_path, prompt_library)
        with pytest.raises(PipelineError) as info:
            verifier.verify_claim(TINY)
        assert str(info.value) == "[claim tiny-1] boom"
        assert isinstance(info.value.__cause__, RuntimeError)


class TestOpenVerifier:
    @pytest.fixture
    def script_loads(self, monkeypatch):
        loads = []
        real_load = Script.load

        def counting_load(cls, path):
            loads.append(path)
            return real_load(path)

        monkeypatch.setattr(Script, "load", classmethod(counting_load))
        return loads

    def test_equal_scripted_backends_load_the_script_once(
        self, tmp_path, prompt_library, script_loads
    ):
        config = scripted_config(write_regex_script(tmp_path / "script.json"))
        with open_verifier(config, prompt_library) as verifier:
            report = verifier.verify_claim(TINY)
        assert len(script_loads) == 1
        assert verifier.abstraction_client.script is verifier.verification_client.script
        assert report.trace[0].prompt_sha256 == prompt_sha256(
            prompt_library.render_keyword_extraction(TINY.claim)
        )

    def test_different_backends_load_their_own_scripts(
        self, tmp_path, prompt_library, script_loads
    ):
        config = scripted_config(write_regex_script(tmp_path / "script.json"))
        other = dataclasses.replace(config.verification_backend, model_id="other")
        config = dataclasses.replace(config, verification_backend=other)
        with open_verifier(config, prompt_library) as verifier:
            pass
        assert len(script_loads) == 2
        assert (
            verifier.abstraction_client.script
            is not verifier.verification_client.script
        )
