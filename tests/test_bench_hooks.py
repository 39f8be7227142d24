"""The names the benchmark in ``bench/`` wraps still exist.

The benchmark's traced phase patches stage methods, prompt renderers,
``pipeline.select_keywords`` and the fuzzy scorers by name, and reads the
statistics of ``fuzzy.preprocess``'s cache. Renaming any of them breaks the
benchmark without failing another test here.
"""
from __future__ import annotations

from pathlib import Path

from claimpipe import fuzzy, pipeline
from claimpipe.pipeline import ClaimVerifier

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
