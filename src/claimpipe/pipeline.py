"""Claim verification pipeline.

Stages: extract keywords from the claim, select per-evidence keyword subsets
by fuzzy matching, summarize each evidence piece under its keywords,
deconstruct the claim into subclaims, and verify each subclaim against the
abstracted plus raw evidence. A claim is False iff any subclaim is False.

Each stage that calls the model stores a TraceEntry at its place in the
claim's trace, so a finished report carries the full prompt/response history
in canonical order: extraction, summaries by piece, deconstruction,
verifications by subclaim index. On HTTP backends the calls that do not
depend on each other run concurrently, in whatever order they finish.

A failure names its stage where it happens: ``ClaimVerifier._call`` raises
a failed render or completion as a PipelineError of its stage, caused by the
original error, and each parser names its own stage.
"""
from __future__ import annotations

import math
import re
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import partial
from pathlib import PurePath
from typing import Callable, Iterator

from . import fuzzy
from .llm import (
    BackendConfig,
    BackendKind,
    CompletionClient,
    ResponseCache,
    public_endpoint,
)
from .prompts import MIN_SUMMARY_KEYWORDS, PromptLibrary, format_evidence_block

SCHEMA_VERSION = 1

# Threads for the calls inside claims, per claim thread. Each claim thread
# also makes calls itself, so at most (1 + CALL_THREADS_PER_WORKER) x workers
# requests are in flight.
CALL_THREADS_PER_WORKER = 4


_SCALARS = (str, int, float, bool, type(None))


def plain(value: object) -> object:
    """``value`` as JSON-ready data, the one converter for report output.

    Scalars pass through, tuples and lists become lists, an Enum becomes its
    value and a path its string. Any other value must be a dataclass, which
    becomes a dict of its converted fields in declaration order. That order
    comes from ``vars``, so report dataclasses set no attribute outside their
    fields and use neither ``slots`` nor ``cached_property``.
    """
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is tuple or kind is list:
        return [plain(item) for item in value]
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, PurePath):
        return str(value)
    return {name: plain(field) for name, field in vars(value).items()}


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
        """Every field, backends included, in declaration order; credentials
        in an endpoint are written as ``***``."""
        out = plain(self)
        for key in ("abstraction_backend", "verification_backend"):
            if out[key] is not None:
                out[key]["endpoint_url"] = public_endpoint(out[key]["endpoint_url"])
        return out


@dataclass(frozen=True)
class StagePlan:
    """What one pipeline variant runs.

    ``abstraction`` is ``"keyword"`` (extract keywords, select them per piece
    and summarize each piece under its keywords), ``"claim"`` (summarize each
    piece under the claim) or None (no abstraction). ``select`` applies the
    t1/t2 thresholds; without it selection runs with thresholds of
    ``-math.inf``, so every keyword reaches every piece with its scores.
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
        """Every field in declaration order; each result names its subclaim
        by index alone, ahead of its own fields."""
        out = plain(self)
        out["results"] = [
            {"subclaim_index": result.pop("subclaim")["index"], **result}
            for result in out["results"]
        ]
        return {"schema_version": SCHEMA_VERSION, **out}


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


def _no_overlap(keyword_norm: str, evidence_norm: str) -> float:
    return 0.0


def select_keywords(
    keywords: list[str] | tuple[str, ...],
    evidence_text: str,
    t1: float = 60.0,
    t2: float = 60.0,
    evidence_index: int = 0,
) -> KeywordSet:
    """Score each keyword against one evidence text and keep those whose
    partial or token-set score strictly exceeds its threshold, with both
    scores. Order follows the input keyword list. Every score exceeds
    ``-math.inf``, so thresholds of ``-math.inf`` keep every keyword.

    The scorers rate an empty side a full match, but a piece that normalizes
    to nothing shares nothing with any keyword: each scores 0 on both, so no
    threshold in [0, 100] keeps it."""
    evidence_norm = fuzzy.preprocess(evidence_text).normalized
    if evidence_norm:
        partial_ratio, token_set_ratio = fuzzy.partial_ratio, fuzzy.token_set_ratio
    else:
        partial_ratio = token_set_ratio = _no_overlap
    selected = []
    for keyword in keywords:
        keyword_norm = fuzzy.preprocess(keyword).normalized
        partial_score = partial_ratio(keyword_norm, evidence_norm)
        token_set_score = token_set_ratio(keyword_norm, evidence_norm)
        if partial_score > t1 or token_set_score > t2:
            selected.append(SelectedKeyword(keyword, partial_score, token_set_score))
    return KeywordSet(evidence_index=evidence_index, selected=tuple(selected))


def aggregate(results: list[SubclaimResult] | tuple[SubclaimResult, ...]) -> Verdict:
    """A claim is False iff any subclaim verdict is False."""
    if not results:
        raise PipelineError("cannot aggregate an empty result list", stage="aggregate")
    if any(r.verdict is Verdict.FALSE for r in results):
        return Verdict.FALSE
    return Verdict.TRUE


# A zero-argument function that runs one stage method.
Call = Callable[[], object]

# A claim's trace keys each entry by (its stage's rank, piece or subclaim
# index), and lists the entries sorted by key.
TRACE_RANKS = {
    "keyword_extraction": 0,
    "evidence_summarization": 1,
    "claim_guided_summarization": 1,
    "claim_deconstruction": 2,
    "subclaim_verification": 3,
}

Trace = dict[tuple[int, int], TraceEntry]


class ClaimVerifier:
    """Runs the pipeline for one configuration.

    Keyword extraction and evidence summarization go to the abstraction
    client; deconstruction and subclaim verification go to the verification
    client. Stateless between claims, so one instance serves many threads.

    A claim runs in three phases: keyword extraction and selection; the
    summaries alongside the deconstruction; the subclaim verifications.
    ``_start`` starts every call but the extraction. With an ``executor`` it
    submits them at once: the calls of a phase run concurrently (the
    verifications stay one at a time under ``short_circuit``), and the
    deconstruction runs beside keyword extraction. Without one, every call
    runs in order on the calling thread. Either way results are read in
    canonical order, so the first failure in that order is the one raised.
    Each stage method makes its model call through ``_call``, the one place
    where a call's failure gets its stage.
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

    def _call(
        self,
        client: CompletionClient,
        stage: str,
        render: Callable[[], str],
        trace: Trace,
        index: int = 0,
    ) -> TraceEntry:
        """Render this call's prompt, complete it and store its entry at its
        place in ``trace``. The calls of a claim store distinct places, from
        any thread. A failure of either step is raised as a PipelineError
        that names ``stage`` and is caused by the original error."""
        try:
            response = client.complete_prompt(render())
        except Exception as exc:
            raise PipelineError(str(exc), stage=stage) from exc
        entry = TraceEntry(
            stage=stage, prompt_sha256=response.prompt_sha256, response=response.text
        )
        trace[TRACE_RANKS[stage], index] = entry
        return entry

    def extract_keywords(self, claim: str, trace: Trace) -> list[str]:
        render = partial(self.prompts.render_keyword_extraction, claim)
        entry = self._call(self.abstraction_client, "keyword_extraction", render, trace)
        return parse_keyword_list(entry.response)

    def abstract_evidence(
        self, evidence: EvidencePiece, keyword_set: KeywordSet, trace: Trace
    ) -> AbstractedEvidence | None:
        """Summarize one evidence piece under its selected keywords.

        Returns None when fewer keywords were selected than the configured
        minimum; such pieces contribute only their raw text downstream.
        """
        keywords = keyword_set.keywords()
        if len(keywords) < self.config.min_keywords_for_summary:
            return None
        render = partial(
            self.prompts.render_evidence_summarization, evidence.text, keywords
        )
        index = keyword_set.evidence_index
        entry = self._call(
            self.abstraction_client, "evidence_summarization", render, trace, index
        )
        return AbstractedEvidence(
            source_index=index, text=entry.response.strip(), keywords=keywords
        )

    def summarize_with_claim(
        self, evidence: EvidencePiece, claim: str, source_index: int, trace: Trace
    ) -> AbstractedEvidence:
        render = partial(
            self.prompts.render_claim_guided_summarization, evidence.text, claim
        )
        stage = "claim_guided_summarization"
        entry = self._call(self.abstraction_client, stage, render, trace, source_index)
        return AbstractedEvidence(
            source_index=source_index, text=entry.response.strip(), keywords=()
        )

    def deconstruct_claim(self, claim: str, trace: Trace) -> list[Subclaim]:
        render = partial(self.prompts.render_claim_deconstruction, claim)
        entry = self._call(
            self.verification_client, "claim_deconstruction", render, trace
        )
        return parse_subclaims(entry.response)

    def verify_subclaim(
        self,
        subclaim: Subclaim,
        abstracted: list[AbstractedEvidence],
        raw: list[EvidencePiece],
        claim: str,
        trace: Trace,
    ) -> SubclaimResult:
        def render() -> str:
            block = format_evidence_block(
                [a.text for a in abstracted], [e.text for e in raw]
            )
            return self.prompts.render_subclaim_verification(
                block,
                subclaim.text,
                claim=claim,
                with_context=self.config.with_claim_context,
            )

        stage, index = "subclaim_verification", subclaim.index
        entry = self._call(self.verification_client, stage, render, trace, index)
        verdict, abstained = parse_verdict_answer(entry.response)
        return SubclaimResult(
            subclaim=subclaim,
            raw_answer=entry.response,
            verdict=verdict,
            abstained=abstained,
        )

    def _start(self, calls: list[Call], started: list[Future]) -> list[Call]:
        """Start ``calls``; each comes back as a function that returns its
        result. With an executor, each is submitted now and its future added
        to ``started``, which the claim waits for before it ends. Without one,
        they come back unchanged: each runs when its result is read, so the
        caller's first failure or stop skips the rest."""
        if self.executor is None:
            return calls
        futures = [self.executor.submit(call) for call in calls]
        started.extend(futures)
        return [future.result for future in futures]

    def verify_claim(self, instance: ClaimInstance) -> VerificationReport:
        plan = PLANS[self.config.ablation]
        claim = instance.claim
        trace: Trace = {}
        started: list[Future] = []
        keywords: list[str] = []
        keyword_sets: list[KeywordSet] = []
        try:
            if not claim.strip():
                raise PipelineError("claim text is empty", stage="input")
            if not instance.evidence:
                raise PipelineError("instance has no evidence", stage="input")
            # The deconstruction needs only the claim, so it starts first;
            # its result is read after the summaries.
            deconstruct = partial(self.deconstruct_claim, claim, trace)
            deconstruction = self._start(
                [deconstruct] if plan.deconstruct else [], started
            )

            calls: list[Call] = []
            if plan.abstraction == "keyword":
                keywords = self.extract_keywords(claim, trace)
                t1, t2 = (
                    (self.config.t1, self.config.t2)
                    if plan.select
                    else (-math.inf, -math.inf)
                )
                keyword_sets = [
                    select_keywords(keywords, piece.text, t1, t2, evidence_index=index)
                    for index, piece in enumerate(instance.evidence)
                ]
                abstract = partial(self.abstract_evidence, trace=trace)
                calls = [
                    partial(abstract, piece, keyword_set)
                    for piece, keyword_set in zip(instance.evidence, keyword_sets)
                ]
            elif plan.abstraction == "claim":
                summarize = partial(self.summarize_with_claim, claim=claim, trace=trace)
                calls = [
                    partial(summarize, piece, source_index=index)
                    for index, piece in enumerate(instance.evidence)
                ]
            abstracted: list[AbstractedEvidence] = []
            for summarized in self._start(calls, started):
                summary = summarized()
                if summary is not None:
                    abstracted.append(summary)
            subclaims = [Subclaim(index=1, text=claim)]
            for deconstructed in deconstruction:
                subclaims = deconstructed()

            raw = list(instance.evidence) if plan.raw_evidence else []
            verify = partial(
                self.verify_subclaim, abstracted=abstracted, raw=raw, claim=claim
            )
            calls = [partial(verify, subclaim, trace=trace) for subclaim in subclaims]
            short_circuit = self.config.short_circuit
            if not short_circuit:
                # Under short_circuit the verifications stay one at a time.
                calls = self._start(calls, started)
            results: list[SubclaimResult] = []
            for verified in calls:
                result = verified()
                results.append(result)
                if short_circuit and result.verdict is Verdict.FALSE:
                    break
            final = aggregate(results)
        except PipelineError as exc:
            if exc.claim_id is None:
                exc.claim_id = instance.id
            raise
        except Exception as exc:
            # An error no stage foresaw still fails this claim alone.
            raise PipelineError(str(exc), claim_id=instance.id) from exc
        finally:
            # However the claim ends, no call it started outlives it.
            wait(started)

        return VerificationReport(
            claim_id=instance.id,
            keywords=tuple(keywords),
            keyword_sets=tuple(keyword_sets),
            abstracted=tuple(abstracted),
            subclaims=tuple(subclaims),
            results=tuple(results),
            final=final,
            trace=tuple(trace[place] for place in sorted(trace)),
        )


@contextmanager
def open_verifier(
    config: PipelineConfig,
    prompts: PromptLibrary,
    cache: ResponseCache | None = None,
    workers: int = 1,
) -> Iterator[ClaimVerifier]:
    """Build the clients and the verifier for ``workers`` claim threads.

    When either backend is HTTP, the verifier gets a pool of
    CALL_THREADS_PER_WORKER x ``workers`` threads for the calls inside
    claims, shut down on leaving the block. Scripted calls are microseconds
    of work under the interpreter lock, where handing them to threads only
    costs time, so they run inline. Equal backends share one client. The
    clients, and so their connections, are closed on leaving the block,
    after the pool.
    """
    backends = (config.abstraction_backend, config.verification_backend)
    if None in backends:
        raise ValueError("config must carry both backends")
    abstraction_client = CompletionClient(config.abstraction_backend, cache=cache)
    verification_client = (
        abstraction_client
        if config.verification_backend == config.abstraction_backend
        else CompletionClient(config.verification_backend, cache=cache)
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
