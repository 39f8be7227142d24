"""Workloads, timed phases, correctness gate and metrics of the benchmark.

Each workload is a closed loop: the library's thread pool runs two workers,
and each waits for its claim to finish before taking the next. A pass is
what one ``claimpipe eval`` (or ``claimpipe ablate``) run with ``--out``
does: one ``run_eval`` (or ``run_ablation_matrix``) call over the whole
generated dataset with a fresh response cache, writing a trace per claim
and a report per variant. A timed phase repeats the pass on the same
dataset; the cache and the written files are removed, untimed, after each
pass.
"""
from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import claimpipe
from claimpipe import data, evaluation, fuzzy, llm, pipeline
from claimpipe.llm import BackendConfig, BackendKind, CompletionClient, ResponseCache
from claimpipe.pipeline import Ablation, ClaimVerifier, PipelineConfig
from claimpipe.prompts import PromptLibrary

from spans import SpanIndex, Tracer, percentile
from stub import StubProcess

BENCH = Path(__file__).resolve().parent
WORKERS = 2
SETUP_SECONDS = 0.4
MIN_PASSES = 3
STUB_BASE_MS = 20.0
STUB_PER_WORD_MS = 0.5
STUB_FAULT_EVERY = 100


@dataclass(frozen=True)
class Workload:
    http: bool
    cache: bool


# The inputs of each workload are ``corpus.SHAPES[name]``.
WORKLOADS = {
    "offline-long-evidence": Workload(http=False, cache=False),
    "live-stub": Workload(http=True, cache=True),
    "ablate-matrix": Workload(http=False, cache=True),
}

END_TO_END = {
    "claims_per_s": "1/s",
    "claim_ms_p50": "ms",
    "claim_ms_p90": "ms",
    "claim_fail_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics that some workloads have nothing to measure for (see
# ``not_applicable``). They are printed and written to ``result.json`` but
# not declared in BENCHMARK.json, whose per-layer metrics every workload
# reports with a measured value.
UNDECLARED_UNITS = {
    "pipeline.stage.claim_guided_summarization.calls": "count",
    "pipeline.stage.claim_guided_summarization.busy_ms": "ms",
    "llm.cache.get.calls": "count",
    "llm.cache.get.us_p50": "us",
    "llm.cache.put.calls": "count",
    "llm.cache.put.us_p50": "us",
    "llm.cache.hit_ratio": "ratio",
    "llm.script.lookup.us_p50": "us",
    "llm.tokens.prompt_per_claim": "tokens",
    "llm.tokens.completion_per_claim": "tokens",
    "llm.http.requests": "count",
    "llm.http.retries": "count",
    "llm.http.connections_per_request": "ratio",
    "llm.http.max_inflight": "count",
    "llm.http.service_ms_p50": "ms",
    "llm.http.overhead_ms_per_call": "ms",
}

STAGES = {
    "extract_keywords": "keyword_extraction",
    "abstract_evidence": "evidence_summarization",
    "summarize_with_claim": "claim_guided_summarization",
    "deconstruct_claim": "claim_deconstruction",
    "verify_subclaim": "subclaim_verification",
}

RENDERERS = (
    "render_keyword_extraction",
    "render_evidence_summarization",
    "render_claim_guided_summarization",
    "render_claim_deconstruction",
    "render_subclaim_verification",
)


def write_inputs(name: str, seed: int, directory: Path) -> None:
    """Generate a workload's inputs in a child process (``corpus.py``)."""
    src = str(Path(claimpipe.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, str(BENCH / "corpus.py"), "--workload", name,
         "--seed", str(seed), "--out", str(directory)],
        env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120,
    )


def expected_macro_f1(predictions: list[bool], golds: list[bool]) -> float:
    """Macro-F1 over the two classes, scaled to 100; 0/0 ratios count as 0."""
    total = 0.0
    for cls in (True, False):
        tp = sum(p == cls and g == cls for p, g in zip(predictions, golds))
        fp = sum(p == cls and g != cls for p, g in zip(predictions, golds))
        fn = sum(p != cls and g == cls for p, g in zip(predictions, golds))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if precision + recall:
            total += 2 * precision * recall / (precision + recall)
    return 100.0 * total / 2.0


def report_digest(reports: list) -> str:
    payload = json.dumps(
        [report.to_dict(include_timing=False) for report in reports],
        sort_keys=True, ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def write_report(directory: Path, report) -> None:
    """Write ``report.json`` as ``claimpipe eval --out`` does."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "report.json").write_text(
        json.dumps(report.to_dict(), ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
    )


class Gate:
    """Checks every report against the outcomes planted in the corpus."""

    def __init__(self, expected: dict[str, dict[str, tuple[bool, int]]]):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors = 0
        self.problems: list[str] = []
        self.digest: str | None = None
        self.passes = 0

    @property
    def correct(self) -> bool:
        return not self.problems

    def _problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, reports: list) -> None:
        self.passes += 1
        for report in reports:
            variant = report.variant.value
            predictions, golds = [], []
            for row in report.rows:
                self.attempted += 1
                self.errors += row.error
                predicted, abstained = self.expected[row.claim_id][variant]
                got = (row.predicted.as_bool(), row.abstained_subclaims)
                if row.error or got != (predicted, abstained):
                    self.failed += 1
                    self._problem(
                        f"{row.claim_id} [{variant}]: expected {(predicted, abstained)}, "
                        f"got {got}" + (f" error {row.error_message}" if row.error else "")
                    )
                predictions.append(predicted)
                golds.append(row.gold.as_bool())
            want = expected_macro_f1(predictions, golds)
            if abs(report.macro_f1 - want) > 1e-9:
                self._problem(f"pass {self.passes} [{variant}]: macro_f1 "
                              f"{report.macro_f1} != {want}")
        digest = report_digest(reports)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self._problem(f"pass {self.passes}: report differs from the first pass")


@dataclass
class Phase:
    """Per-pass totals and per-claim latencies of one closed-loop phase."""

    verifications: list[int] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    latencies: list[list[float]] = field(default_factory=list)

    @property
    def rates(self) -> list[float]:
        return [n / wall for n, wall in zip(self.verifications, self.walls)]

    @property
    def claims_per_s(self) -> float:
        return statistics.median(self.rates)


class Bench:
    """One workload's inputs, stub and passes, inside one work directory."""

    def __init__(self, workload: Workload, inputs: Path, work: Path):
        self.workload = workload
        self.work = work
        self.dataset = inputs / "dataset.jsonl"
        self.script = inputs / "script.json"
        planted = json.loads((inputs / "expected.json").read_text(encoding="utf-8"))
        self.gate = Gate({
            claim: {variant: tuple(outcome) for variant, outcome in variants.items()}
            for claim, variants in planted.items()
        })
        self.variants = [Ablation(v) for v in next(iter(planted.values()))]
        self.stub: StubProcess | None = None
        self.setup_samples: list[float] = []
        self.load_samples: list[float] = []
        self.read_samples: list[float] = []

    def __enter__(self) -> "Bench":
        if self.workload.http:
            self.stub = StubProcess(
                self.script, STUB_BASE_MS, STUB_PER_WORD_MS, STUB_FAULT_EVERY
            )
        return self

    def __exit__(self, *exc) -> None:
        if self.stub is not None:
            self.stub.close()

    def backend(self) -> BackendConfig:
        if self.stub is not None:
            return BackendConfig(
                kind=BackendKind.HTTP_CHAT, endpoint_url=self.stub.url,
                request_timeout=30.0, backoff_base=STUB_BASE_MS / 1000.0,
            )
        return BackendConfig(kind=BackendKind.SCRIPTED, script_path=str(self.script))

    def _fresh_cache(self) -> ResponseCache | None:
        if not self.workload.cache:
            return None
        return ResponseCache(self.work / "cache")

    def setup(self) -> None:
        """Load prompts and dataset, open a cache and build the clients as
        ``run_eval`` does; repeatedly for SETUP_SECONDS, recording the time
        of each repeat. The previous repeat's dataset is freed untimed, and
        the heap is collected once, before the first repeat."""
        gc.collect()
        deadline = perf_counter() + SETUP_SECONDS
        while perf_counter() < deadline:
            self.instances = None
            started = perf_counter()
            self.prompts = PromptLibrary.load()
            loaded = perf_counter()
            self.instances = data.load_generic(self.dataset)
            read = perf_counter()
            cache = self._fresh_cache()
            backend = self.backend()
            CompletionClient(backend, cache=cache)
            CompletionClient(backend, cache=cache)
            self.setup_samples.append(perf_counter() - started)
            self.load_samples.append(loaded - started)
            self.read_samples.append(read - loaded)
            if cache is not None:
                shutil.rmtree(cache.directory)

    def run_pass(self, phase: Phase | None = None) -> None:
        """One pass over the dataset, timed from the call to the last report
        written; the cache and the output files are removed afterwards."""
        backend = self.backend()
        config = PipelineConfig(abstraction_backend=backend, verification_backend=backend)
        cache = self._fresh_cache()
        out = self.work / "out"
        wall, cpu = perf_counter(), process_time()
        if len(self.variants) > 1:
            reports = evaluation.run_ablation_matrix(
                self.instances, config, self.prompts, self.variants,
                cache=cache, workers=WORKERS, out_dir=out,
            )
            for report in reports:
                write_report(out / report.variant.value, report)
        else:
            reports = [evaluation.run_eval(
                self.instances, config, self.prompts, cache=cache, workers=WORKERS,
                trace_dir=out / "traces",
            )]
            write_report(out, reports[0])
        wall, cpu = perf_counter() - wall, process_time() - cpu
        shutil.rmtree(out)
        if cache is not None:
            shutil.rmtree(cache.directory)
        self.gate.check(reports)
        if phase is not None:
            phase.verifications.append(sum(len(report.rows) for report in reports))
            phase.walls.append(wall)
            phase.cpus.append(cpu)

    def closed_loop(self, seconds: float, between=None) -> Phase:
        """Repeat the pass until ``seconds`` pass, at least MIN_PASSES times;
        call ``between()`` after each pass, outside the timed region."""
        phase = Phase()
        deadline = perf_counter() + seconds
        while len(phase.walls) < MIN_PASSES or perf_counter() < deadline:
            self.run_pass(phase)
            if between is not None:
                between()
        return phase

    def untraced(self, seconds: float) -> Phase:
        """Timed phase with one clock pair around each ``verify_claim``. A
        batch of set-ups follows each pass, so that set-up is sampled across
        the whole phase."""
        original = ClaimVerifier.verify_claim
        latencies: list[list[float]] = [[]]

        def timed(verifier, instance):
            started = perf_counter()
            try:
                return original(verifier, instance)
            finally:
                latencies[-1].append(perf_counter() - started)

        def between():
            latencies.append([])
            self.setup()

        ClaimVerifier.verify_claim = timed
        try:
            phase = self.closed_loop(seconds, between)
        finally:
            ClaimVerifier.verify_claim = original
        phase.latencies = latencies[:-1]
        return phase

    def traced(self) -> tuple[Phase, Tracer, dict]:
        """MIN_PASSES passes with spans around the public calls of every layer,
        so that call counts repeat exactly; set-up batches follow each pass,
        as in the untraced phase."""
        tracer = install_tracer()
        fuzzy.preprocess.cache_clear()
        before = self.stub.stats() if self.stub is not None else None
        try:
            phase = self.closed_loop(0.0, self.setup)
        finally:
            tracer.remove()
        info = fuzzy.preprocess.cache_info()
        side = {"preprocess_hits": info.hits, "preprocess_misses": info.misses}
        if self.stub is not None:
            after = self.stub.stats()
            side["stub"] = {
                key: after[key] - before[key]
                for key in ("requests", "faults", "connections")
            }
            side["stub"]["peak_inflight"] = after["peak_inflight"]
            side["stub"]["service_ms"] = after["service_ms"][len(before["service_ms"]):]
        return phase, tracer, side


def install_tracer() -> Tracer:
    tracer = Tracer()
    tracer.wrap(evaluation, "run_eval", "evaluation.run_eval", root=True)
    tracer.wrap(evaluation, "run_ablation_matrix", "evaluation.run_ablation_matrix")
    tracer.wrap(
        ClaimVerifier, "verify_claim", "pipeline.verify_claim",
        context=lambda args: (args[1].id, args[0].config.ablation.value),
    )
    facts = {
        "abstract_evidence": lambda args, result: result is not None,
        "deconstruct_claim": lambda args, result: len(result),
    }
    for method, stage in STAGES.items():
        tracer.wrap(ClaimVerifier, method, f"pipeline.stage.{stage}", fact=facts.get(method))
    tracer.wrap(
        pipeline, "select_keywords", "pipeline.select_keywords",
        fact=lambda args, result: (len(result.selected), len(args[0])),
    )
    tracer.wrap(fuzzy, "partial_ratio", "fuzzy.partial_ratio")
    tracer.wrap(fuzzy, "token_set_ratio", "fuzzy.token_set_ratio")
    tracer.count(fuzzy, "indel_distance", "fuzzy.indel_distance")
    for method in RENDERERS:
        tracer.wrap(PromptLibrary, method, "prompts.render", fact=lambda args, result: len(result))
    tracer.wrap(
        CompletionClient, "complete", "llm.complete",
        fact=lambda args, result: (result.prompt_tokens, result.completion_tokens),
    )
    tracer.wrap(ResponseCache, "get", "llm.cache.get", fact=lambda args, result: result is not None)
    tracer.wrap(ResponseCache, "put", "llm.cache.put")
    tracer.wrap(llm.Script, "lookup", "llm.script.lookup")
    return tracer


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(bench: Bench, untraced: Phase) -> dict[str, float]:
    return {
        "claims_per_s": untraced.claims_per_s,
        "claim_ms_p50": 1000 * percentile(sum(untraced.latencies, []), 0.5),
        "claim_ms_p90": 1000 * percentile(sum(untraced.latencies, []), 0.9),
        "claim_fail_ratio": _ratio(bench.gate.errors, bench.gate.attempted),
        # The fastest set-up: interference from the host only adds time.
        "setup_s": min(bench.setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(bench: Bench, untraced: Phase, traced: Phase, tracer: Tracer,
              side: dict) -> dict[str, float]:
    index = SpanIndex(tracer.spans)

    def ms(name: str) -> list[float]:
        return [1000 * d for d in index.durations(name)]

    def us(name: str) -> list[float]:
        return [1e6 * d for d in index.durations(name)]

    claims = len(index.by_name["pipeline.verify_claim"])
    out: dict[str, float] = {}

    out["fuzzy.partial_ratio.calls"] = len(index.by_name["fuzzy.partial_ratio"])
    out["fuzzy.partial_ratio.busy_ms"] = sum(ms("fuzzy.partial_ratio"))
    out["fuzzy.partial_ratio.us_p50"] = percentile(us("fuzzy.partial_ratio"), 0.5)
    out["fuzzy.token_set_ratio.calls"] = len(index.by_name["fuzzy.token_set_ratio"])
    out["fuzzy.token_set_ratio.busy_ms"] = sum(ms("fuzzy.token_set_ratio"))
    out["fuzzy.indel_distance.calls"] = tracer.calls("fuzzy.indel_distance")
    hits, misses = side["preprocess_hits"], side["preprocess_misses"]
    out["fuzzy.preprocess.hit_ratio"] = _ratio(hits, hits + misses)

    select = tracer.facts["pipeline.select_keywords"]
    out["pipeline.select_keywords.calls"] = len(index.by_name["pipeline.select_keywords"])
    out["pipeline.select_keywords.ms_p50"] = percentile(ms("pipeline.select_keywords"), 0.5)
    out["pipeline.select_keywords.busy_ms"] = sum(ms("pipeline.select_keywords"))
    out["pipeline.keyword_keep_ratio"] = _ratio(
        sum(kept for kept, _ in select), sum(offered for _, offered in select)
    )
    summarized = tracer.facts["pipeline.stage.evidence_summarization"]
    out["pipeline.summarized_piece_ratio"] = _ratio(sum(summarized), len(summarized))
    subclaims = tracer.facts["pipeline.stage.claim_deconstruction"]
    out["pipeline.subclaims_per_claim"] = _ratio(sum(subclaims), len(subclaims))
    for stage in STAGES.values():
        name = f"pipeline.stage.{stage}"
        out[f"{name}.calls"] = len(index.by_name[name])
        out[f"{name}.busy_ms"] = sum(ms(name))
    out["pipeline.verify_claim.self_ms_p50"] = 1000 * percentile(
        index.self_times("pipeline.verify_claim"), 0.5
    )
    in_claims = sum(
        end - start for _, _, start, end, _, claim, _ in index.by_name["llm.complete"]
        if claim is not None
    )
    claim_wall = sum(index.durations("pipeline.verify_claim"))
    out["pipeline.call_concurrency"] = _ratio(in_claims, claim_wall)

    rendered = tracer.facts["prompts.render"]
    out["prompts.render.calls"] = len(rendered)
    out["prompts.render.us_p50"] = percentile(us("prompts.render"), 0.5)
    out["prompts.prompt_kchars_per_claim"] = _ratio(sum(rendered) / 1000.0, claims)
    out["prompts.load_ms"] = 1000 * min(bench.load_samples)

    complete_ms = ms("llm.complete")
    tokens = tracer.facts["llm.complete"]
    gets = tracer.facts["llm.cache.get"]
    out["llm.complete.calls"] = len(complete_ms)
    out["llm.complete.ms_p50"] = percentile(complete_ms, 0.5)
    out["llm.complete.ms_p90"] = percentile(complete_ms, 0.9)
    out["llm.complete.busy_ms"] = sum(complete_ms)
    out["llm.calls_per_claim"] = _ratio(len(complete_ms), claims)
    out["llm.cache.get.calls"] = len(gets)
    out["llm.cache.get.us_p50"] = percentile(us("llm.cache.get"), 0.5)
    out["llm.cache.put.calls"] = len(index.by_name["llm.cache.put"])
    out["llm.cache.put.us_p50"] = percentile(us("llm.cache.put"), 0.5)
    out["llm.cache.hit_ratio"] = _ratio(sum(gets), len(gets))
    out["llm.script.lookup.us_p50"] = percentile(us("llm.script.lookup"), 0.5)
    out["llm.tokens.prompt_per_claim"] = _ratio(sum(p for p, _ in tokens), claims)
    out["llm.tokens.completion_per_claim"] = _ratio(sum(c for _, c in tokens), claims)
    stub = side.get("stub", {})
    requests = stub.get("requests", 0)
    service = stub.get("service_ms", [])
    out["llm.http.requests"] = requests
    out["llm.http.retries"] = stub.get("faults", 0)
    out["llm.http.connections_per_request"] = _ratio(stub.get("connections", 0), requests)
    out["llm.http.max_inflight"] = stub.get("peak_inflight", 0)
    out["llm.http.service_ms_p50"] = percentile(service, 0.5)
    out["llm.http.overhead_ms_per_call"] = (
        _ratio(sum(complete_ms) - sum(service), requests) if requests else 0.0
    )

    out["data.load_ms"] = 1000 * min(bench.read_samples)

    runs = index.by_name["evaluation.run_eval"]
    eval_self = sum(index.self_times("evaluation.run_eval"))
    eval_wall = sum(index.durations("evaluation.run_eval"))
    out["evaluation.self_ms"] = _ratio(1000 * eval_self, len(runs))
    out["evaluation.self_share"] = _ratio(eval_self, eval_wall)
    out["evaluation.cpu_util"] = _ratio(sum(untraced.cpus), sum(untraced.walls))
    out["evaluation.worker_busy_ratio"] = _ratio(claim_wall, WORKERS * eval_wall)
    out["evaluation.tracing_overhead_ratio"] = _ratio(
        traced.claims_per_s, untraced.claims_per_s
    )
    return out


def not_applicable(workload: Workload, variants: list[Ablation]) -> dict[str, str]:
    """Per-layer metrics that have nothing to measure on this workload."""
    reasons = {}
    if not workload.http:
        for name in ("requests", "retries", "connections_per_request", "max_inflight",
                     "service_ms_p50", "overhead_ms_per_call"):
            reasons[f"llm.http.{name}"] = "the scripted backend makes no HTTP requests"
        for name in ("prompt_per_claim", "completion_per_claim"):
            reasons[f"llm.tokens.{name}"] = "the scripted backend reports no token usage"
    else:
        reasons["llm.script.lookup.us_p50"] = "the HTTP backend reads no script"
    if not workload.cache:
        for name in ("get.calls", "get.us_p50", "put.calls", "put.us_p50", "hit_ratio"):
            reasons[f"llm.cache.{name}"] = "this workload runs without a response cache"
    if Ablation.NO_KEYWORD_GUIDANCE not in variants:
        for name in ("calls", "busy_ms"):
            reasons[f"pipeline.stage.claim_guided_summarization.{name}"] = (
                "only the no-keyword variant runs this stage"
            )
    return reasons
