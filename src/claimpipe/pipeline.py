"""Claim verification pipeline.

Stages: extract keywords from the claim, select per-evidence keyword subsets
by fuzzy matching, summarize each evidence piece under its keywords,
deconstruct the claim into subclaims, and verify each subclaim against the
abstracted plus raw evidence. A claim is False iff any subclaim is False.

Each stage that calls the model records a TraceEntry, so a finished report
carries the full prompt/response history in canonical order: extraction,
summaries by piece, deconstruction, verifications by subclaim index. On HTTP
backends the calls that do not depend on each other run concurrently; the
trace order does not change.
"""
from __future__ import annotations

import re
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import PurePath
from typing import Callable, Iterator

from . import fuzzy
from .llm import (
    BackendConfig,
    BackendKind,
    CompletionClient,
    ResponseCache,
)
from .prompts import MIN_SUMMARY_KEYWORDS, PromptLibrary, format_evidence_block

SCHEMA_VERSION = 1

# Threads for the calls inside claims, per claim thread. Each claim thread
# also makes calls itself, so at most (1 + CALL_THREADS_PER_WORKER) x workers
# requests are in flight.
CALL_THREADS_PER_WORKER = 4


class Verdict(Enum):
    TRUE = "true"
    FALSE = "false"

    @classmethod
    def from_bool(cls, value: bool) -> "Verdict":
        return cls.TRUE if value else cls.FALSE

    def as_bool(self) -> bool:
        return self is Verdict.TRUE


class Ablation(str, Enum):
    """Pipeline variants; values double as the CLI spelling."""

    NONE = "none"
    NO_CLAIM_DECONSTRUCTION = "no-cd"
    NO_EVIDENCE_ABSTRACTION = "no-ea"
    NO_KEYWORD_GUIDANCE = "no-keyword"
    NO_KEYWORD_SELECTION = "no-selection"
    NO_RAW_EVIDENCE = "no-raw"


class PipelineError(Exception):
    """A stage failed; annotated with the stage and claim for eval reports."""

    def __init__(
        self,
        message: str,
        stage: str | None = None,
        claim_id: str | None = None,
    ):
        self.raw_message = message
        self.stage = stage
        self.claim_id = claim_id
        super().__init__(message)

    def __str__(self) -> str:
        parts = []
        if self.claim_id is not None:
            parts.append(f"claim {self.claim_id}")
        if self.stage is not None:
            parts.append(f"stage {self.stage}")
        prefix = f"[{', '.join(parts)}] " if parts else ""
        return f"{prefix}{self.raw_message}"


@dataclass(frozen=True)
class EvidencePiece:
    text: str
    title: str | None = None


@dataclass(frozen=True)
class ClaimInstance:
    id: str
    claim: str
    evidence: tuple[EvidencePiece, ...]
    gold_label: Verdict | None = None


@dataclass(frozen=True)
class SelectedKeyword:
    keyword: str
    partial_score: float
    token_set_score: float


@dataclass(frozen=True)
class KeywordSet:
    evidence_index: int
    selected: tuple[SelectedKeyword, ...]

    def keywords(self) -> tuple[str, ...]:
        return tuple(s.keyword for s in self.selected)


@dataclass(frozen=True)
class AbstractedEvidence:
    source_index: int
    text: str
    keywords: tuple[str, ...]


@dataclass(frozen=True)
class Subclaim:
    index: int
    text: str


@dataclass(frozen=True)
class SubclaimResult:
    subclaim: Subclaim
    raw_answer: str
    verdict: Verdict
    abstained: bool = False


@dataclass(frozen=True)
class TraceEntry:
    stage: str
    prompt_sha256: str
    response: str


@dataclass
class PipelineConfig:
    t1: float = 60.0
    t2: float = 60.0
    min_keywords_for_summary: int = 2
    with_claim_context: bool = False
    ablation: Ablation = Ablation.NONE
    short_circuit: bool = False
    abstraction_backend: BackendConfig | None = None
    verification_backend: BackendConfig | None = None

    def __post_init__(self) -> None:
        for name in ("t1", "t2"):
            # Written so that NaN fails too.
            if not 0.0 <= getattr(self, name) <= 100.0:
                raise ValueError(f"{name} must be within [0, 100]")
        if self.min_keywords_for_summary < MIN_SUMMARY_KEYWORDS:
            raise ValueError(
                f"min_keywords must be at least {MIN_SUMMARY_KEYWORDS}: "
                "evidence summarization needs that many keywords"
            )

    def to_dict(self) -> dict:
        """Every field, backends included, in declaration order."""

        def plain(value: object) -> object:
            if isinstance(value, Enum):
                return value.value
            if isinstance(value, PurePath):
                return str(value)
            return value

        return asdict(
            self, dict_factory=lambda items: {name: plain(v) for name, v in items}
        )


@dataclass(frozen=True)
class StagePlan:
    """What one pipeline variant runs.

    ``abstraction`` is ``"keyword"`` (extract keywords, select them per piece
    and summarize each piece under its keywords), ``"claim"`` (summarize each
    piece under the claim) or None (no abstraction). ``select`` applies the
    t1/t2 thresholds; without it every keyword reaches every piece.
    """

    abstraction: str | None
    select: bool = True
    deconstruct: bool = True
    raw_evidence: bool = True


PLANS: dict[Ablation, StagePlan] = {
    Ablation.NONE: StagePlan("keyword"),
    Ablation.NO_CLAIM_DECONSTRUCTION: StagePlan("keyword", deconstruct=False),
    Ablation.NO_EVIDENCE_ABSTRACTION: StagePlan(None),
    Ablation.NO_KEYWORD_GUIDANCE: StagePlan("claim"),
    Ablation.NO_KEYWORD_SELECTION: StagePlan("keyword", select=False),
    Ablation.NO_RAW_EVIDENCE: StagePlan("keyword", raw_evidence=False),
}


@dataclass
class VerificationReport:
    claim_id: str
    keywords: tuple[str, ...]
    keyword_sets: tuple[KeywordSet, ...]
    abstracted: tuple[AbstractedEvidence, ...]
    subclaims: tuple[Subclaim, ...]
    results: tuple[SubclaimResult, ...]
    final: Verdict
    trace: tuple[TraceEntry, ...]

    def abstained_count(self) -> int:
        return sum(1 for r in self.results if r.abstained)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "claim_id": self.claim_id,
            "keywords": list(self.keywords),
            "keyword_sets": [
                {
                    "evidence_index": ks.evidence_index,
                    "selected": [
                        {
                            "keyword": s.keyword,
                            "partial_score": s.partial_score,
                            "token_set_score": s.token_set_score,
                        }
                        for s in ks.selected
                    ],
                }
                for ks in self.keyword_sets
            ],
            "abstracted": [
                {
                    "source_index": a.source_index,
                    "text": a.text,
                    "keywords": list(a.keywords),
                }
                for a in self.abstracted
            ],
            "subclaims": [{"index": s.index, "text": s.text} for s in self.subclaims],
            "results": [
                {
                    "subclaim_index": r.subclaim.index,
                    "raw_answer": r.raw_answer,
                    "verdict": r.verdict.value,
                    "abstained": r.abstained,
                }
                for r in self.results
            ],
            "final": self.final.value,
            "trace": [
                {
                    "stage": t.stage,
                    "prompt_sha256": t.prompt_sha256,
                    "response": t.response,
                }
                for t in self.trace
            ],
        }


def parse_keyword_list(completion: str) -> list[str]:
    """Split a comma-separated keyword completion into cleaned keywords.

    Splits on commas only, trims whitespace, removes one trailing period from
    the final item, drops items that normalize to nothing (such as ``"!!!"``,
    which would match every piece), and deduplicates case-insensitively while
    keeping first occurrences in order.
    """
    items = [part.strip() for part in completion.split(",")]
    if items and items[-1].endswith("."):
        items[-1] = items[-1][:-1].rstrip()
    seen: set[str] = set()
    out: list[str] = []
    for item in items:
        if not fuzzy.preprocess(item).normalized:
            continue
        key = item.lower()
        if key in seen:
            continue
        seen.add(key)
        out.append(item)
    if not out:
        raise PipelineError(
            "keyword extraction produced no keywords", stage="keyword_extraction"
        )
    return out


_MARKER_RE = re.compile(r"#\s*(\d+)")


def parse_subclaims(completion: str) -> list[Subclaim]:
    """Split a deconstruction completion on ``#<k>`` markers.

    Literal backslash-n sequences are treated as newlines first. Segments are
    ordered by their marker number, then re-indexed 1..n. A completion with no
    markers becomes a single subclaim.
    """
    text = completion.replace("\\n", "\n").strip()
    if not text:
        raise PipelineError(
            "claim deconstruction returned an empty completion",
            stage="claim_deconstruction",
        )
    markers = list(_MARKER_RE.finditer(text))
    if not markers:
        return [Subclaim(index=1, text=text)]
    pieces: list[tuple[int, str]] = []
    for pos, match in enumerate(markers):
        start = match.end()
        end = markers[pos + 1].start() if pos + 1 < len(markers) else len(text)
        body = text[start:end].strip()
        if body:
            pieces.append((int(match.group(1)), body))
    if not pieces:
        raise PipelineError(
            "no subclaim text found after markers", stage="claim_deconstruction"
        )
    pieces.sort(key=lambda p: p[0])
    return [Subclaim(index=i, text=body) for i, (_, body) in enumerate(pieces, start=1)]


_YES_NO_RE = re.compile(r"\b(yes|no)\b", re.IGNORECASE)


def parse_verdict_answer(completion: str) -> tuple[Verdict, bool]:
    """Map a yes/no completion to a verdict.

    The first standalone yes/no token decides. An answer with neither token
    abstains, which counts as True so only explicit refutation flips a claim.
    """
    match = _YES_NO_RE.search(completion)
    if match is None:
        return Verdict.TRUE, True
    verdict = Verdict.TRUE if match.group(1).lower() == "yes" else Verdict.FALSE
    return verdict, False


def score_keywords(
    keywords: list[str] | tuple[str, ...], evidence_text: str
) -> list[SelectedKeyword]:
    """Score every keyword against one evidence text, preserving order."""
    evidence_norm = fuzzy.preprocess(evidence_text).normalized
    scored = []
    for keyword in keywords:
        keyword_norm = fuzzy.preprocess(keyword).normalized
        scored.append(
            SelectedKeyword(
                keyword=keyword,
                partial_score=fuzzy.partial_ratio(keyword_norm, evidence_norm),
                token_set_score=fuzzy.token_set_ratio(keyword_norm, evidence_norm),
            )
        )
    return scored


def select_keywords(
    keywords: list[str] | tuple[str, ...],
    evidence_text: str,
    t1: float = 60.0,
    t2: float = 60.0,
    evidence_index: int = 0,
) -> KeywordSet:
    """Keep keywords whose partial or token-set score strictly exceeds its
    threshold. Order follows the input keyword list."""
    selected = tuple(
        s
        for s in score_keywords(keywords, evidence_text)
        if s.partial_score > t1 or s.token_set_score > t2
    )
    return KeywordSet(evidence_index=evidence_index, selected=selected)


def aggregate(results: list[SubclaimResult] | tuple[SubclaimResult, ...]) -> Verdict:
    """A claim is False iff any subclaim verdict is False."""
    if not results:
        raise PipelineError("cannot aggregate an empty result list", stage="aggregate")
    if any(r.verdict is Verdict.FALSE for r in results):
        return Verdict.FALSE
    return Verdict.TRUE


# A stage name and a function that runs one stage method and returns its
# result with the trace entries it recorded, or that function's future when
# it was submitted to the pool ahead of its phase.
Task = tuple[str, Callable[[], tuple[object, list[TraceEntry]]] | Future]


def _task(stage: str, method: Callable, *args: object) -> Task:
    """Wrap a stage-method call so it records its trace entries apart;
    tasks can then finish in any order and the trace is assembled after."""

    def run() -> tuple[object, list[TraceEntry]]:
        entries: list[TraceEntry] = []
        return method(*args, entries), entries

    return stage, run


def _record(
    outcome: Callable[[], tuple[object, list[TraceEntry]]], trace: list[TraceEntry]
) -> object:
    """Run or collect one task's outcome; add its entries to ``trace``."""
    value, entries = outcome()
    trace.extend(entries)
    return value


class ClaimVerifier:
    """Runs the pipeline for one configuration.

    Keyword extraction and evidence summarization go to the abstraction
    client; deconstruction and subclaim verification go to the verification
    client. Stateless between claims, so one instance serves many threads.

    A claim runs in three phases: keyword extraction and selection; the
    summaries alongside the deconstruction; the subclaim verifications. With
    an ``executor``, the calls within a phase run on it concurrently (the
    verifications stay one at a time under ``short_circuit``), and the
    deconstruction, which needs only the claim, starts on it before keyword
    extraction. Without one, every call runs in order on the calling thread.
    """

    def __init__(
        self,
        config: PipelineConfig,
        prompts: PromptLibrary,
        abstraction_client: CompletionClient,
        verification_client: CompletionClient,
        executor: ThreadPoolExecutor | None = None,
    ):
        self.config = config
        self.prompts = prompts
        self.abstraction_client = abstraction_client
        self.verification_client = verification_client
        self.executor = executor

    def _call(self, client: CompletionClient, stage: str, prompt: str) -> TraceEntry:
        response = client.complete_prompt(prompt)
        return TraceEntry(
            stage=stage, prompt_sha256=response.prompt_sha256, response=response.text
        )

    def extract_keywords(self, claim: str, trace: list[TraceEntry]) -> list[str]:
        prompt = self.prompts.render_keyword_extraction(claim)
        entry = self._call(self.abstraction_client, "keyword_extraction", prompt)
        trace.append(entry)
        return parse_keyword_list(entry.response)

    def abstract_evidence(
        self,
        evidence: EvidencePiece,
        keyword_set: KeywordSet,
        trace: list[TraceEntry],
    ) -> AbstractedEvidence | None:
        """Summarize one evidence piece under its selected keywords.

        Returns None when fewer keywords were selected than the configured
        minimum; such pieces contribute only their raw text downstream.
        """
        keywords = keyword_set.keywords()
        if len(keywords) < self.config.min_keywords_for_summary:
            return None
        prompt = self.prompts.render_evidence_summarization(evidence.text, keywords)
        entry = self._call(self.abstraction_client, "evidence_summarization", prompt)
        trace.append(entry)
        return AbstractedEvidence(
            source_index=keyword_set.evidence_index,
            text=entry.response.strip(),
            keywords=keywords,
        )

    def summarize_with_claim(
        self,
        evidence: EvidencePiece,
        claim: str,
        source_index: int,
        trace: list[TraceEntry],
    ) -> AbstractedEvidence:
        prompt = self.prompts.render_claim_guided_summarization(evidence.text, claim)
        entry = self._call(
            self.abstraction_client, "claim_guided_summarization", prompt
        )
        trace.append(entry)
        return AbstractedEvidence(
            source_index=source_index, text=entry.response.strip(), keywords=()
        )

    def deconstruct_claim(self, claim: str, trace: list[TraceEntry]) -> list[Subclaim]:
        prompt = self.prompts.render_claim_deconstruction(claim)
        entry = self._call(self.verification_client, "claim_deconstruction", prompt)
        trace.append(entry)
        return parse_subclaims(entry.response)

    def verify_subclaim(
        self,
        subclaim: Subclaim,
        abstracted: list[AbstractedEvidence],
        raw: list[EvidencePiece],
        claim: str,
        trace: list[TraceEntry],
    ) -> SubclaimResult:
        block = format_evidence_block(
            [a.text for a in abstracted], [e.text for e in raw]
        )
        prompt = self.prompts.render_subclaim_verification(
            block,
            subclaim.text,
            claim=claim,
            with_context=self.config.with_claim_context,
        )
        entry = self._call(self.verification_client, "subclaim_verification", prompt)
        trace.append(entry)
        verdict, abstained = parse_verdict_answer(entry.response)
        return SubclaimResult(
            subclaim=subclaim,
            raw_answer=entry.response,
            verdict=verdict,
            abstained=abstained,
        )

    def _phase(self, tasks: list[Task], concurrent: bool = True) -> list[Task]:
        """Pair each task's stage with a function that returns its outcome,
        in task order.

        Inline (no executor, ``concurrent`` off, or one task), a task runs
        when its outcome is asked for, so the caller's first failure or early
        stop skips the rest. Otherwise all tasks are submitted at once and
        this returns only when every one has finished: no call outlives the
        claim, and reading the outcomes in order raises the first failure in
        task order, as the inline path does. A task given as a future is
        already running and is only waited for: resubmitting it would block
        a pool thread on another pool task, which can deadlock the pool.
        """
        if self.executor is None or not concurrent or len(tasks) < 2:
            return [
                (stage, run.result if isinstance(run, Future) else run)
                for stage, run in tasks
            ]
        futures = [
            (stage, run if isinstance(run, Future) else self.executor.submit(run))
            for stage, run in tasks
        ]
        wait([future for _, future in futures])
        return [(stage, future.result) for stage, future in futures]

    def verify_claim(self, instance: ClaimInstance) -> VerificationReport:
        plan = PLANS[self.config.ablation]
        claim = instance.claim
        stage = "input"
        trace: list[TraceEntry] = []
        keywords: list[str] = []
        keyword_sets: list[KeywordSet] = []
        early: Future | None = None
        try:
            if not claim.strip():
                raise PipelineError("claim text is empty")
            if not instance.evidence:
                raise PipelineError("instance has no evidence")
            if plan.deconstruct:
                deconstruction = _task(
                    "claim_deconstruction", self.deconstruct_claim, claim
                )
                if self.executor is not None:
                    # It needs only the claim, so it runs beside keyword
                    # extraction; the next phase waits for it in order.
                    early = self.executor.submit(deconstruction[1])
                    deconstruction = ("claim_deconstruction", early)

            tasks: list[Task] = []
            if plan.abstraction == "keyword":
                stage = "keyword_extraction"
                keywords = self.extract_keywords(claim, trace)
                stage = "keyword_selection"
                keyword_sets = [
                    select_keywords(
                        keywords,
                        piece.text,
                        t1=self.config.t1,
                        t2=self.config.t2,
                        evidence_index=index,
                    )
                    if plan.select
                    else KeywordSet(
                        evidence_index=index,
                        selected=tuple(score_keywords(keywords, piece.text)),
                    )
                    for index, piece in enumerate(instance.evidence)
                ]
                tasks = [
                    _task(
                        "evidence_summarization",
                        self.abstract_evidence,
                        piece,
                        keyword_set,
                    )
                    for piece, keyword_set in zip(instance.evidence, keyword_sets)
                ]
            elif plan.abstraction == "claim":
                tasks = [
                    _task(
                        "claim_guided_summarization",
                        self.summarize_with_claim,
                        piece,
                        claim,
                        index,
                    )
                    for index, piece in enumerate(instance.evidence)
                ]
            if plan.deconstruct:
                tasks.append(deconstruction)
            outcomes = []
            for stage, outcome in self._phase(tasks):
                outcomes.append(_record(outcome, trace))
            subclaims = (
                outcomes.pop() if plan.deconstruct else [Subclaim(index=1, text=claim)]
            )
            abstracted = [summary for summary in outcomes if summary is not None]

            raw = list(instance.evidence) if plan.raw_evidence else []
            tasks = [
                _task(
                    "subclaim_verification",
                    self.verify_subclaim,
                    subclaim,
                    abstracted,
                    raw,
                    claim,
                )
                for subclaim in subclaims
            ]
            results: list[SubclaimResult] = []
            short_circuit = self.config.short_circuit
            for stage, outcome in self._phase(tasks, concurrent=not short_circuit):
                result = _record(outcome, trace)
                results.append(result)
                if short_circuit and result.verdict is Verdict.FALSE:
                    break

            stage = "aggregate"
            final = aggregate(results)
        except PipelineError as exc:
            if exc.stage is None:
                exc.stage = stage
            if exc.claim_id is None:
                exc.claim_id = instance.id
            raise
        except Exception as exc:
            raise PipelineError(str(exc), stage=stage, claim_id=instance.id) from exc
        finally:
            # However the claim ends, its early call has ended before it.
            if early is not None:
                wait([early])

        return VerificationReport(
            claim_id=instance.id,
            keywords=tuple(keywords),
            keyword_sets=tuple(keyword_sets),
            abstracted=tuple(abstracted),
            subclaims=tuple(subclaims),
            results=tuple(results),
            final=final,
            trace=tuple(trace),
        )


@contextmanager
def open_verifier(
    config: PipelineConfig,
    prompts: PromptLibrary,
    cache: ResponseCache | None = None,
    workers: int = 1,
) -> Iterator[ClaimVerifier]:
    """Build both clients and the verifier for ``workers`` claim threads.

    When either backend is HTTP, the verifier gets a pool of
    CALL_THREADS_PER_WORKER x ``workers`` threads for the calls inside
    claims, shut down on leaving the block. Scripted calls are microseconds
    of work under the interpreter lock, where handing them to threads only
    costs time, so they run inline. Both clients, and so their connections,
    are closed on leaving the block, after the pool.
    """
    backends = (config.abstraction_backend, config.verification_backend)
    if None in backends:
        raise ValueError("config must carry both backends")
    abstraction_client = CompletionClient(config.abstraction_backend, cache=cache)
    # Equal scripted backends read and check their script file once.
    shared = config.verification_backend == config.abstraction_backend
    verification_client = CompletionClient(
        config.verification_backend,
        cache=cache,
        script=abstraction_client.script if shared else None,
    )
    executor = None
    if any(backend.kind is BackendKind.HTTP_CHAT for backend in backends):
        executor = ThreadPoolExecutor(
            max_workers=CALL_THREADS_PER_WORKER * workers,
            thread_name_prefix="claimpipe-call",
        )
    try:
        yield ClaimVerifier(
            config, prompts, abstraction_client, verification_client, executor
        )
    finally:
        if executor is not None:
            executor.shutdown()
        abstraction_client.close()
        verification_client.close()
