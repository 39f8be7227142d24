"""The names the benchmark in ``bench/`` wraps still exist.

The benchmark's traced phase patches stage methods, prompt renderers,
``pipeline.select_keywords`` and the fuzzy scorers by name, and reads the
statistics of ``fuzzy.preprocess``'s cache. Renaming any of them breaks the
benchmark without failing another test here. The benchmark also reads the
results of two stage methods, which the last test pins.
"""
from __future__ import annotations

from pathlib import Path

from conftest import fixture_instances, scripted_config
from claimpipe import fuzzy, pipeline
from claimpipe.pipeline import ClaimVerifier, open_verifier
from claimpipe.prompts import PromptLibrary

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_benchmark_tracer_installs_and_removes(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import harness

    originals = (ClaimVerifier.verify_claim, pipeline.select_keywords)
    tracer = harness.install_tracer()
    try:
        assert ClaimVerifier.verify_claim is not originals[0]
        assert pipeline.select_keywords is not originals[1]
    finally:
        tracer.remove()
    assert (ClaimVerifier.verify_claim, pipeline.select_keywords) == originals
    assert fuzzy.preprocess.cache_info().maxsize is not None
    fuzzy.preprocess.cache_clear()


def test_tracer_wraps_every_stage_and_renderer_and_reads_their_results(
    monkeypatch, six_bundle, prompt_library
):
    monkeypatch.syspath_prepend(str(BENCH))
    import harness

    names = [(ClaimVerifier, method) for method in harness.STAGES]
    names += [(PromptLibrary, method) for method in harness.RENDERERS]
    originals = [getattr(owner, method) for owner, method in names]
    config = scripted_config(six_bundle.script_path)
    tracer = harness.install_tracer()
    try:
        for (owner, method), original in zip(names, originals):
            assert getattr(owner, method) is not original, method
        with open_verifier(config, prompt_library) as verifier:
            reports = [
                verifier.verify_claim(instance) for instance in fixture_instances()
            ]
    finally:
        tracer.remove()
        fuzzy.preprocess.cache_clear()
    assert [getattr(owner, method) for owner, method in names] == originals

    # The facts the benchmark derives its per-claim ratios from.
    assert tracer.facts["pipeline.stage.claim_deconstruction"] == [
        len(report.subclaims) for report in reports
    ]
    summarized = tracer.facts["pipeline.stage.evidence_summarization"]
    assert all(type(fact) is bool for fact in summarized)
    assert len(summarized) == sum(len(report.keyword_sets) for report in reports)
    assert sum(summarized) == sum(len(report.abstracted) for report in reports)
