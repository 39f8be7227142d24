from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import (
    fixture_instances,
    scripted_config,
    write_regex_script,
)
from claimpipe.data import load_generic
from claimpipe.evaluation import (
    ClaimRow,
    comparison_table,
    confusion,
    macro_f1,
    run_ablation_matrix,
    run_eval,
)
from claimpipe.llm import ResponseCache
from claimpipe.pipeline import (
    Ablation,
    ClaimInstance,
    ClaimVerifier,
    EvidencePiece,
    PipelineConfig,
    Verdict,
)

T, F = Verdict.TRUE, Verdict.FALSE


def to_verdicts(bools):
    return [Verdict.from_bool(b) for b in bools]


class TestMacroF1:
    def test_worked_example(self):
        golds = to_verdicts([True, True, False, False])
        preds = to_verdicts([True, False, False, False])
        assert macro_f1(preds, golds) == pytest.approx(73.33333333333334)

    def test_perfect_and_inverted(self):
        golds = to_verdicts([True, False, True, False])
        assert macro_f1(golds, golds) == 100.0
        inverted = to_verdicts([False, True, False, True])
        assert macro_f1(inverted, golds) == 0.0

    def test_single_class_degenerate_ratios_count_zero(self):
        golds = to_verdicts([True, True, True])
        preds = to_verdicts([True, True, True])
        # The absent class contributes an F1 of 0, not an error.
        assert macro_f1(preds, golds) == 50.0

    def test_six_claim_expectation(self):
        golds = to_verdicts([False, True, False, True, False, True])
        preds = to_verdicts([False, True, False, False, True, True])
        assert macro_f1(preds, golds) == pytest.approx(200.0 / 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            macro_f1([], [])
        with pytest.raises(ValueError):
            macro_f1([T], [T, F])

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=40))
    def test_matches_oracle(self, pairs):
        preds = to_verdicts([p for p, _ in pairs])
        golds = to_verdicts([g for _, g in pairs])
        expected = oracles.macro_f1_oracle(
            [p for p, _ in pairs], [g for _, g in pairs]
        )
        assert macro_f1(preds, golds) == pytest.approx(expected, abs=1e-12)


class TestConfusion:
    def test_six_claim_counts(self):
        golds = to_verdicts([False, True, False, True, False, True])
        preds = to_verdicts([False, True, False, False, True, True])
        counts = confusion(preds, golds)
        assert (counts.tp_true, counts.fp_true, counts.fn_true) == (2, 1, 1)
        assert (counts.tp_false, counts.fp_false, counts.fn_false) == (2, 1, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([T], [])


class TestRunEval:
    def test_six_claim_bundle(self, six_bundle, prompt_library, tmp_path):
        instances = load_generic(six_bundle.dataset_path)
        config = scripted_config(six_bundle.script_path, with_claim_context=True)
        trace_dir = tmp_path / "traces"
        report = run_eval(
            instances, config, prompt_library, trace_dir=trace_dir
        )
        assert report.macro_f1 == pytest.approx(six_bundle.expected_macro_f1)
        assert [row.claim_id for row in report.rows] == [
            "spam-1", "everest-2", "pacific-3", "honey-4", "amazon-5", "photo-6",
        ]
        assert [row.predicted.as_bool() for row in report.rows] == [
            False, True, False, False, True, True,
        ]
        assert report.counts.error_count == 0
        assert report.counts.abstain_count == 1
        assert report.rows[5].abstained_subclaims == 1
        assert report.prompt_tokens == 0
        # One trace file per successfully verified claim.
        written = sorted(p.name for p in trace_dir.glob("*.json"))
        assert written == [
            "amazon-5.json", "everest-2.json", "honey-4.json",
            "pacific-3.json", "photo-6.json", "spam-1.json",
        ]
        payload = json.loads((trace_dir / "spam-1.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["final"] == "false"

    def test_ids_that_sanitize_alike_keep_separate_traces(
        self, tmp_path, prompt_library
    ):
        script = write_regex_script(tmp_path / "script.json")
        config = scripted_config(script, with_claim_context=False)
        ids = ["a_b", "a/b", "a b"]
        instances = [
            ClaimInstance(
                id=claim_id,
                claim="alpha beta gamma.",
                evidence=(EvidencePiece(text="alpha beta delta."),),
                gold_label=T,
            )
            for claim_id in ids
        ]
        trace_dir = tmp_path / "traces"
        run_eval(instances, config, prompt_library, trace_dir=trace_dir)
        written = {
            json.loads(path.read_text())["claim_id"]: path.name
            for path in trace_dir.glob("*.json")
        }
        assert sorted(written) == sorted(ids)
        # A safe id keeps its plain name; the others get a hash suffix.
        assert written["a_b"] == "a_b.json"
        assert written["a/b"].startswith("a_b~") and written["a b"].startswith("a_b~")

    def test_report_embeds_config(self, six_bundle, prompt_library):
        instances = load_generic(six_bundle.dataset_path)
        config = scripted_config(
            six_bundle.script_path, with_claim_context=True, t1=61.5
        )
        report = run_eval(instances, config, prompt_library)
        payload = report.to_dict()
        assert payload["config"]["t1"] == 61.5
        assert payload["config"]["with_claim_context"] is True
        assert payload["config"]["ablation"] == "none"
        assert payload["timing"]["wall_clock_seconds"] >= 0
        assert "timing" not in report.to_dict(include_timing=False)

    def test_deterministic_across_runs_and_workers(
        self, six_bundle, prompt_library
    ):
        instances = load_generic(six_bundle.dataset_path)
        config = scripted_config(six_bundle.script_path, with_claim_context=True)

        def run(workers):
            report = run_eval(
                instances, config, prompt_library, workers=workers
            )
            return json.dumps(report.to_dict(include_timing=False), sort_keys=True)

        assert run(1) == run(1)
        assert run(1) == run(4)

    def test_scripted_claims_run_on_the_calling_thread(
        self, six_bundle, prompt_library, tmp_path, monkeypatch
    ):
        instances = load_generic(six_bundle.dataset_path)
        config = scripted_config(six_bundle.script_path, with_claim_context=True)
        threads_before = threading.active_count()
        seen = []
        original = ClaimVerifier.verify_claim

        def recording(verifier, instance):
            seen.append((threading.get_ident(), threading.active_count()))
            return original(verifier, instance)

        monkeypatch.setattr(ClaimVerifier, "verify_claim", recording)
        run_eval(instances, config, prompt_library, workers=4, trace_dir=tmp_path / "w4")
        assert seen == [(threading.get_ident(), threads_before)] * len(instances)
        assert threading.active_count() == threads_before

        run_eval(instances, config, prompt_library, workers=1, trace_dir=tmp_path / "w1")
        names = sorted(path.name for path in (tmp_path / "w1").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "w4").iterdir())
        for name in names:
            assert (tmp_path / "w4" / name).read_bytes() == (
                tmp_path / "w1" / name
            ).read_bytes()

    def test_failing_claim_contained_as_false(self, six_bundle, prompt_library, tmp_path):
        instances = load_generic(six_bundle.dataset_path) + [
            ClaimInstance(
                id="miss-7",
                claim="Planets orbit the sun.",
                evidence=(EvidencePiece(text="The sun is a star."),),
                gold_label=Verdict.TRUE,
            )
        ]
        config = scripted_config(six_bundle.script_path, with_claim_context=True)
        trace_dir = tmp_path / "traces"
        report = run_eval(instances, config, prompt_library, trace_dir=trace_dir)
        assert report.counts.error_count == 1
        bad = report.rows[6]
        assert bad.claim_id == "miss-7"
        assert bad.error is True
        assert bad.predicted is Verdict.FALSE
        assert "keyword_extraction" in bad.error_message
        assert not (trace_dir / "miss-7.json").exists()
        golds = [False, True, False, True, False, True, True]
        preds = [False, True, False, False, True, True, False]
        assert report.macro_f1 == pytest.approx(
            oracles.macro_f1_oracle(preds, golds)
        )

    def test_cache_serves_second_run_without_script_entries(
        self, six_bundle, prompt_library, tmp_path
    ):
        instances = load_generic(six_bundle.dataset_path)
        cache = ResponseCache(tmp_path / "cache")
        config = scripted_config(six_bundle.script_path, with_claim_context=True)
        first = run_eval(instances, config, prompt_library, cache=cache)

        empty_script = tmp_path / "empty.json"
        empty_script.write_text("[]", encoding="utf-8")
        config_empty = scripted_config(empty_script, with_claim_context=True)
        second = run_eval(instances, config_empty, prompt_library, cache=cache)
        assert second.counts.error_count == 0
        assert second.macro_f1 == pytest.approx(first.macro_f1)

    def test_validation(self, six_bundle, prompt_library):
        instances = load_generic(six_bundle.dataset_path)
        config = scripted_config(six_bundle.script_path)
        with pytest.raises(ValueError, match="no instances"):
            run_eval([], config, prompt_library)
        with pytest.raises(ValueError, match="workers"):
            run_eval(instances, config, prompt_library, workers=0)
        no_gold = [
            ClaimInstance(
                id="x", claim="C.", evidence=(EvidencePiece(text="E."),)
            )
        ]
        with pytest.raises(ValueError, match="gold label"):
            run_eval(no_gold, config, prompt_library)
        bare = PipelineConfig()
        with pytest.raises(ValueError, match="backends"):
            run_eval(instances, bare, prompt_library)

    def test_table_output(self, six_bundle, prompt_library):
        instances = load_generic(six_bundle.dataset_path)
        config = scripted_config(six_bundle.script_path, with_claim_context=True)
        report = run_eval(instances, config, prompt_library)
        table = report.to_table()
        assert "macro_f1" in table
        assert "66.67" in table
        assert "true" in table and "false" in table
        assert "abstained_subclaims 1" in table


def tiny_instances():
    return [
        ClaimInstance(
            id="t1",
            claim="alpha beta gamma.",
            evidence=(EvidencePiece(text="alpha beta delta."),),
            gold_label=Verdict.TRUE,
        ),
        ClaimInstance(
            id="t2",
            claim="iota kappa lambda.",
            evidence=(EvidencePiece(text="alpha beta mu."),),
            gold_label=Verdict.FALSE,
        ),
    ]


class TestAblationMatrix:
    def test_all_variants_run_and_share_cache(self, tmp_path, prompt_library):
        script = write_regex_script(tmp_path / "script.json")
        config = scripted_config(script, with_claim_context=False)
        cache = ResponseCache(tmp_path / "cache")
        reports = run_ablation_matrix(
            tiny_instances(),
            config,
            prompt_library,
            list(Ablation),
            cache=cache,
            out_dir=tmp_path / "out",
        )
        assert [r.variant for r in reports] == list(Ablation)
        for report in reports:
            assert len(report.rows) == 2
            assert report.counts.error_count == 0
        table = comparison_table(reports)
        for variant in Ablation:
            assert variant.value in table
        # Per-variant trace directories were populated.
        for variant in Ablation:
            files = list((tmp_path / "out" / variant.value / "traces").glob("*.json"))
            assert len(files) == 2

    def test_base_config_settings_carry_over(self, tmp_path, prompt_library):
        script = write_regex_script(tmp_path / "script.json")
        config = scripted_config(script, with_claim_context=False, t1=42.0)
        reports = run_ablation_matrix(
            tiny_instances(), config, prompt_library, [Ablation.NO_RAW_EVIDENCE]
        )
        assert reports[0].config["t1"] == 42.0
        assert reports[0].config["ablation"] == "no-raw"

    def test_duplicate_and_empty_variants_rejected(self, tmp_path, prompt_library):
        script = write_regex_script(tmp_path / "script.json")
        config = scripted_config(script)
        with pytest.raises(ValueError, match="duplicate"):
            run_ablation_matrix(
                tiny_instances(),
                config,
                prompt_library,
                [Ablation.NONE, Ablation.NONE],
            )
        with pytest.raises(ValueError, match="at least one"):
            run_ablation_matrix(tiny_instances(), config, prompt_library, [])


class TestClaimRow:
    def test_to_dict(self):
        row = ClaimRow(claim_id="x", gold=T, predicted=F, abstained_subclaims=2)
        assert row.to_dict() == {
            "claim_id": "x",
            "gold": "true",
            "predicted": "false",
            "abstained_subclaims": 2,
            "error": False,
            "error_message": None,
        }
