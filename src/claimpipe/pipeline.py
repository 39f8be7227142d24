"""Claim verification pipeline.

Stages: extract keywords from the claim, select per-evidence keyword subsets
by fuzzy matching, summarize each evidence piece under its keywords,
deconstruct the claim into subclaims, and verify each subclaim against the
abstracted plus raw evidence. A claim is False iff any subclaim is False.

Each stage that calls the model appends a TraceEntry, so a finished report
carries the full prompt/response history in order.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from . import fuzzy
from .llm import BackendConfig, CompletionClient, prompt_sha256
from .prompts import MIN_SUMMARY_KEYWORDS, PromptLibrary, format_evidence_block

SCHEMA_VERSION = 1


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
        def backend_dict(backend: BackendConfig | None) -> dict | None:
            if backend is None:
                return None
            return {
                "kind": backend.kind.value,
                "endpoint_url": backend.endpoint_url,
                "api_key_env": backend.api_key_env,
                "script_path": str(backend.script_path) if backend.script_path else None,
                "model_id": backend.model_id,
                "temperature": backend.temperature,
                "max_tokens": backend.max_tokens,
                "request_timeout": backend.request_timeout,
                "max_retries": backend.max_retries,
            }

        return {
            "t1": self.t1,
            "t2": self.t2,
            "min_keywords_for_summary": self.min_keywords_for_summary,
            "with_claim_context": self.with_claim_context,
            "ablation": self.ablation.value,
            "short_circuit": self.short_circuit,
            "abstraction_backend": backend_dict(self.abstraction_backend),
            "verification_backend": backend_dict(self.verification_backend),
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


class ClaimVerifier:
    """Runs the pipeline for one configuration.

    Keyword extraction and evidence summarization go to the abstraction
    client; deconstruction and subclaim verification go to the verification
    client. Stateless between claims, so one instance serves many threads.
    """

    def __init__(
        self,
        config: PipelineConfig,
        prompts: PromptLibrary,
        abstraction_client: CompletionClient,
        verification_client: CompletionClient,
    ):
        self.config = config
        self.prompts = prompts
        self.abstraction_client = abstraction_client
        self.verification_client = verification_client

    def _call(
        self,
        client: CompletionClient,
        stage: str,
        prompt: str,
        trace: list[TraceEntry],
    ) -> str:
        response = client.complete_prompt(prompt)
        trace.append(
            TraceEntry(
                stage=stage,
                prompt_sha256=prompt_sha256(prompt),
                response=response.text,
            )
        )
        return response.text

    def extract_keywords(self, claim: str, trace: list[TraceEntry]) -> list[str]:
        prompt = self.prompts.render_keyword_extraction(claim)
        text = self._call(self.abstraction_client, "keyword_extraction", prompt, trace)
        return parse_keyword_list(text)

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
        text = self._call(
            self.abstraction_client, "evidence_summarization", prompt, trace
        )
        return AbstractedEvidence(
            source_index=keyword_set.evidence_index,
            text=text.strip(),
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
        text = self._call(
            self.abstraction_client, "claim_guided_summarization", prompt, trace
        )
        return AbstractedEvidence(
            source_index=source_index, text=text.strip(), keywords=()
        )

    def deconstruct_claim(self, claim: str, trace: list[TraceEntry]) -> list[Subclaim]:
        prompt = self.prompts.render_claim_deconstruction(claim)
        text = self._call(
            self.verification_client, "claim_deconstruction", prompt, trace
        )
        return parse_subclaims(text)

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
        text = self._call(
            self.verification_client, "subclaim_verification", prompt, trace
        )
        verdict, abstained = parse_verdict_answer(text)
        return SubclaimResult(
            subclaim=subclaim, raw_answer=text, verdict=verdict, abstained=abstained
        )

    def verify_claim(self, instance: ClaimInstance) -> VerificationReport:
        stage = "input"
        trace: list[TraceEntry] = []
        try:
            if not instance.claim.strip():
                raise PipelineError("claim text is empty")
            if not instance.evidence:
                raise PipelineError("instance has no evidence")

            ablation = self.config.ablation
            keywords: list[str] = []
            keyword_sets: list[KeywordSet] = []
            abstracted: list[AbstractedEvidence] = []

            if ablation is Ablation.NO_EVIDENCE_ABSTRACTION:
                pass
            elif ablation is Ablation.NO_KEYWORD_GUIDANCE:
                stage = "claim_guided_summarization"
                for index, piece in enumerate(instance.evidence):
                    abstracted.append(
                        self.summarize_with_claim(piece, instance.claim, index, trace)
                    )
            else:
                stage = "keyword_extraction"
                keywords = self.extract_keywords(instance.claim, trace)
                stage = "keyword_selection"
                for index, piece in enumerate(instance.evidence):
                    if ablation is Ablation.NO_KEYWORD_SELECTION:
                        keyword_sets.append(
                            KeywordSet(
                                evidence_index=index,
                                selected=tuple(score_keywords(keywords, piece.text)),
                            )
                        )
                    else:
                        keyword_sets.append(
                            select_keywords(
                                keywords,
                                piece.text,
                                t1=self.config.t1,
                                t2=self.config.t2,
                                evidence_index=index,
                            )
                        )
                stage = "evidence_summarization"
                for keyword_set in keyword_sets:
                    piece = instance.evidence[keyword_set.evidence_index]
                    summary = self.abstract_evidence(piece, keyword_set, trace)
                    if summary is not None:
                        abstracted.append(summary)

            if ablation is Ablation.NO_CLAIM_DECONSTRUCTION:
                subclaims = [Subclaim(index=1, text=instance.claim)]
            else:
                stage = "claim_deconstruction"
                subclaims = self.deconstruct_claim(instance.claim, trace)

            raw = [] if ablation is Ablation.NO_RAW_EVIDENCE else list(instance.evidence)

            stage = "subclaim_verification"
            results: list[SubclaimResult] = []
            for subclaim in subclaims:
                result = self.verify_subclaim(
                    subclaim, abstracted, raw, instance.claim, trace
                )
                results.append(result)
                if self.config.short_circuit and result.verdict is Verdict.FALSE:
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
