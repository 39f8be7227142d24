"""Prompt templates and rendering for the verification pipeline.

Templates are plain text files with ``{{slot}}`` markers. Slot substitution is
a single pass, so slot values containing brace sequences are never re-expanded.
Each generation template holds its own few-shot examples as literal text; the
subclaim verification template is zero-shot and carries no examples.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

_SLOT_RE = re.compile(r"\{\{([a-z_]+)\}\}")

_DEFAULT_DIR = Path(__file__).resolve().parent

# The evidence-summarization prompt lists at least this many keywords.
MIN_SUMMARY_KEYWORDS = 2


class PromptError(ValueError):
    """Raised for unknown templates, missing slots, or invalid slot values."""


class PromptTask(str, Enum):
    """The pipeline's prompted stages, each named by its value. Declaration
    order is the trace order: a claim's trace lists its entries by task in
    this order, then by piece or subclaim index."""

    KEYWORD_EXTRACTION = "keyword_extraction"
    EVIDENCE_SUMMARIZATION = "evidence_summarization"
    CLAIM_GUIDED_SUMMARIZATION = "claim_guided_summarization"
    CLAIM_DECONSTRUCTION = "claim_deconstruction"
    SUBCLAIM_VERIFICATION = "subclaim_verification"


# The slots each task's renderer fills.
_RENDERED_SLOTS = {
    PromptTask.KEYWORD_EXTRACTION: {"claim"},
    PromptTask.EVIDENCE_SUMMARIZATION: {"evidence", "keywords"},
    PromptTask.CLAIM_GUIDED_SUMMARIZATION: {"evidence", "claim"},
    PromptTask.CLAIM_DECONSTRUCTION: {"claim"},
    PromptTask.SUBCLAIM_VERIFICATION: {"evidence", "claim_context", "subclaim"},
}


def format_keyword_list(keywords: list[str] | tuple[str, ...]) -> str:
    """Join keywords as ``a, b, c.`` to match the format the examples teach."""
    if not keywords:
        raise PromptError("keyword list must be nonempty")
    return ", ".join(keywords) + "."


def format_evidence_block(abstracted: list[str], raw: list[str]) -> str:
    """One ``- `` bulleted line per evidence text, abstracted lines first."""
    lines = [f"- {text}" for text in list(abstracted) + list(raw)]
    if not lines:
        raise PromptError("evidence block must contain at least one line")
    return "\n".join(lines)


@dataclass
class PromptTemplate:
    task: PromptTask
    body: str

    def slots(self) -> frozenset[str]:
        return frozenset(_SLOT_RE.findall(self.body))

    def render(self, **values: str) -> str:
        """Fill every slot; unknown or missing slot names raise PromptError."""
        needed = self.slots()
        extra = set(values) - needed
        if extra:
            raise PromptError(f"{self.task.value}: unknown slots {sorted(extra)}")
        missing = needed - set(values)
        if missing:
            raise PromptError(f"{self.task.value}: missing slots {sorted(missing)}")
        return _SLOT_RE.sub(lambda m: values[m.group(1)], self.body)


@dataclass
class PromptLibrary:
    """All five task templates, loaded from one directory."""

    templates: dict[PromptTask, PromptTemplate]
    directory: Path

    @classmethod
    def load(cls, directory: str | Path | None = None) -> "PromptLibrary":
        base = Path(directory) if directory is not None else _DEFAULT_DIR
        if not base.is_dir():
            raise PromptError(f"prompt directory not found: {base}")
        templates: dict[PromptTask, PromptTemplate] = {}
        for task in PromptTask:
            path = base / f"{task.value}.txt"
            if not path.is_file():
                raise PromptError(f"missing template file: no regular file at {path}")
            try:
                # Strict UTF-8 also keeps a lone surrogate out of every prompt.
                body = path.read_text(encoding="utf-8").rstrip("\n")
            except UnicodeDecodeError as exc:
                raise PromptError(f"{path}: not UTF-8 text: {exc}") from None
            template = templates[task] = PromptTemplate(task=task, body=body)
            # Checked now: a template with other slots would fail every render.
            found, expected = template.slots(), _RENDERED_SLOTS[task]
            if found != expected:
                raise PromptError(
                    f"{path}: expected the slots {sorted(expected)}; "
                    f"unknown {sorted(found - expected)}, "
                    f"missing {sorted(expected - found)}"
                )
        return cls(templates=templates, directory=base)

    def template(self, task: PromptTask) -> PromptTemplate:
        return self.templates[task]

    def render_keyword_extraction(self, claim: str) -> str:
        if not claim.strip():
            raise PromptError("claim must be nonempty")
        return self.template(PromptTask.KEYWORD_EXTRACTION).render(claim=claim)

    def render_evidence_summarization(
        self, evidence: str, keywords: list[str] | tuple[str, ...]
    ) -> str:
        if not evidence.strip():
            raise PromptError("evidence must be nonempty")
        if len(keywords) < MIN_SUMMARY_KEYWORDS:
            raise PromptError(
                f"evidence summarization needs at least {MIN_SUMMARY_KEYWORDS} keywords"
            )
        return self.template(PromptTask.EVIDENCE_SUMMARIZATION).render(
            evidence=evidence, keywords=format_keyword_list(list(keywords))
        )

    def render_claim_guided_summarization(self, evidence: str, claim: str) -> str:
        if not evidence.strip() or not claim.strip():
            raise PromptError("evidence and claim must be nonempty")
        return self.template(PromptTask.CLAIM_GUIDED_SUMMARIZATION).render(
            evidence=evidence, claim=claim
        )

    def render_claim_deconstruction(self, claim: str) -> str:
        if not claim.strip():
            raise PromptError("claim must be nonempty")
        return self.template(PromptTask.CLAIM_DECONSTRUCTION).render(claim=claim)

    def render_subclaim_verification(
        self,
        evidence_block: str,
        subclaim: str,
        claim: str = "",
        with_context: bool = False,
    ) -> str:
        if not evidence_block.strip():
            raise PromptError("evidence block must be nonempty")
        if not subclaim.strip():
            raise PromptError("subclaim must be nonempty")
        if with_context and not claim.strip():
            raise PromptError("claim context requested but claim is empty")
        context = f"In the saying of {claim}. " if with_context else ""
        return self.template(PromptTask.SUBCLAIM_VERIFICATION).render(
            evidence=evidence_block, claim_context=context, subclaim=subclaim
        )
