"""Evaluation: Macro-F1 over the two verdict classes, batched runs, the
ablation matrix, and the out-dir layout.

A run with an HTTP backend verifies claims on a thread pool, since they wait
on the network. A run on scripted backends only verifies them one at a time,
in input order, on the calling thread: its work is all CPU under the
interpreter lock, where more threads only queue for the lock.

A claim whose pipeline run fails is scored as predicted False and counted in
``error_count``; evaluation never dies on one bad claim. ``run_into`` lays a
run out in its out-dir, and the ablation matrix lays out each variant as it
ends. Per-claim traces are written as claims finish, so an interrupted run
keeps what it has done. It starts no further claim, and ends once the claims
in flight have ended.
"""
from __future__ import annotations

import dataclasses
import hashlib
import logging
import re
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path

from .data import write_json
from .llm import ResponseCache
from .pipeline import (
    Ablation,
    ClaimInstance,
    ClaimVerifier,
    PipelineConfig,
    PipelineError,
    Verdict,
    VerificationReport,
    open_verifier,
    plain,
)
from .prompts import PromptLibrary

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass
class ConfusionCounts:
    tp_true: int = 0
    fp_true: int = 0
    tp_false: int = 0
    fp_false: int = 0
    error_count: int = 0
    abstain_count: int = 0

    # With two classes, a claim missed in one class is a false positive of
    # the other.
    @property
    def fn_true(self) -> int:
        return self.fp_false

    @property
    def fn_false(self) -> int:
        return self.fp_true

    def per_class(self) -> dict[str, dict[str, int]]:
        """Each class's true positives, false positives and false negatives,
        as reported under ``counts.per_class``."""
        return {
            "true": {"tp": self.tp_true, "fp": self.fp_true, "fn": self.fn_true},
            "false": {"tp": self.tp_false, "fp": self.fp_false, "fn": self.fn_false},
        }


def _prf(tp: int, fp: int, fn: int) -> ClassMetrics:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return ClassMetrics(precision=precision, recall=recall, f1=f1)


def confusion(
    predictions: list[Verdict], golds: list[Verdict]
) -> ConfusionCounts:
    if len(predictions) != len(golds):
        raise ValueError("predictions and golds must have equal length")
    pairs = Counter(zip(predictions, golds))
    return ConfusionCounts(
        tp_true=pairs[Verdict.TRUE, Verdict.TRUE],
        fp_true=pairs[Verdict.TRUE, Verdict.FALSE],
        tp_false=pairs[Verdict.FALSE, Verdict.FALSE],
        fp_false=pairs[Verdict.FALSE, Verdict.TRUE],
    )


def class_metrics(counts: ConfusionCounts) -> dict[str, ClassMetrics]:
    return {name: _prf(**block) for name, block in counts.per_class().items()}


def _macro_f1_of(metrics: dict[str, ClassMetrics]) -> float:
    return 100.0 * (metrics["true"].f1 + metrics["false"].f1) / 2.0


def macro_f1(predictions: list[Verdict], golds: list[Verdict]) -> float:
    """Mean of the True-class and False-class F1 scores, scaled to [0, 100].

    Degenerate precision/recall ratios (0/0) count as 0.
    """
    if not predictions or len(predictions) != len(golds):
        raise ValueError("need equal-length, nonempty prediction and gold lists")
    return _macro_f1_of(class_metrics(confusion(predictions, golds)))


@dataclass
class ClaimRow:
    claim_id: str
    gold: Verdict
    predicted: Verdict
    abstained_subclaims: int = 0
    error: bool = False
    error_message: str | None = None

    def to_dict(self) -> dict:
        return plain(self)


@dataclass
class EvalReport:
    """One run's rows and totals; the counts and scores follow from the rows.
    ``failures`` holds each failed claim's error, in row order; not reported."""

    config: dict
    rows: list[ClaimRow]
    prompt_tokens: int = 0
    completion_tokens: int = 0
    wall_clock_seconds: float = 0.0
    variant: Ablation = Ablation.NONE
    failures: tuple[PipelineError, ...] = ()

    @property
    def counts(self) -> ConfusionCounts:
        rows = self.rows
        counts = confusion([row.predicted for row in rows], [row.gold for row in rows])
        counts.error_count = sum(1 for row in rows if row.error)
        counts.abstain_count = sum(row.abstained_subclaims for row in rows)
        return counts

    @property
    def macro_f1(self) -> float:
        return _macro_f1_of(class_metrics(self.counts))

    def to_dict(self, include_timing: bool = True) -> dict:
        counts = self.counts
        metrics = class_metrics(counts)
        out = {
            "schema_version": SCHEMA_VERSION,
            "variant": self.variant.value,
            "config": self.config,
            "metrics": {
                "macro_f1": _macro_f1_of(metrics),
                "per_class": {name: plain(m) for name, m in metrics.items()},
            },
            "counts": {
                "claims": len(self.rows),
                "errors": counts.error_count,
                "abstained_subclaims": counts.abstain_count,
                "per_class": counts.per_class(),
            },
            "tokens": {
                "prompt": self.prompt_tokens,
                "completion": self.completion_tokens,
            },
            "claims": [row.to_dict() for row in self.rows],
        }
        if include_timing:
            out["timing"] = {"wall_clock_seconds": self.wall_clock_seconds}
        return out

    def to_table(self) -> str:
        counts = self.counts
        metrics = class_metrics(counts)
        lines = [
            f"{'class':<10} {'precision':>9} {'recall':>9} {'f1':>9}",
        ]
        for name in ("true", "false"):
            m = metrics[name]
            lines.append(
                f"{name:<10} {100 * m.precision:>9.2f} "
                f"{100 * m.recall:>9.2f} {100 * m.f1:>9.2f}"
            )
        lines.append(f"{'macro_f1':<10} {_macro_f1_of(metrics):>29.2f}")
        lines.append(
            f"claims {len(self.rows)}  errors {counts.error_count}  "
            f"abstained_subclaims {counts.abstain_count}"
        )
        return "\n".join(lines)


_UNSAFE_ID_RE = re.compile(r"[^A-Za-z0-9._-]+")


def _trace_path(out_dir: Path, claim_id: str) -> Path:
    """The id itself when it is a safe file name; otherwise the sanitized id
    plus ``~`` and 8 hex digits of its SHA-256, so that ids sanitizing alike
    (``a/b``, ``a b``) get distinct files. Safe ids never contain ``~``."""
    safe = _UNSAFE_ID_RE.sub("_", claim_id) or "claim"
    if safe != claim_id:
        digest = hashlib.sha256(claim_id.encode("utf-8")).hexdigest()
        safe = f"{safe}~{digest[:8]}"
    return out_dir / f"{safe}.json"


def _evaluate_one(
    verifier: ClaimVerifier, instance: ClaimInstance
) -> tuple[ClaimRow, VerificationReport | PipelineError]:
    try:
        report = verifier.verify_claim(instance)
    except PipelineError as exc:
        log.warning("claim %s failed: %s", instance.id, exc)
        row = ClaimRow(
            claim_id=instance.id,
            gold=instance.gold_label,
            predicted=Verdict.FALSE,
            error=True,
            error_message=str(exc),
        )
        return row, exc
    row = ClaimRow(
        claim_id=instance.id,
        gold=instance.gold_label,
        predicted=report.final,
        abstained_subclaims=report.abstained_count(),
    )
    return row, report


def run_eval(
    instances: list[ClaimInstance],
    config: PipelineConfig,
    prompts: PromptLibrary,
    cache: ResponseCache | None = None,
    workers: int = 1,
    trace_dir: str | Path | None = None,
) -> EvalReport:
    """Verify every instance and score predictions against gold labels.

    With an HTTP backend, claims are dispatched to a pool of ``workers``
    threads, and the calls inside each claim also run concurrently (see
    ``open_verifier``). With scripted backends only, claims run one at a time
    on the calling thread and ``workers`` is unused. Report rows keep the
    input order either way.
    """
    if not instances:
        raise ValueError("no instances to evaluate")
    seen: set[str] = set()
    for instance in instances:
        if instance.gold_label is None:
            raise ValueError(f"instance {instance.id} has no gold label")
        # Each claim's trace is written under its id.
        if instance.id in seen:
            raise ValueError(f"duplicate instance id {instance.id!r}")
        seen.add(instance.id)
    if workers < 1:
        raise ValueError("workers must be >= 1")

    rows: list[ClaimRow | None] = [None] * len(instances)
    failures: list[PipelineError | None] = [None] * len(instances)
    out_dir = None if trace_dir is None else Path(trace_dir)

    def finish(
        position: int, row: ClaimRow, outcome: VerificationReport | PipelineError
    ) -> None:
        rows[position] = row
        if row.error:
            failures[position] = outcome
        # Traces land on disk as soon as each claim finishes. A failed claim
        # has none, so an earlier run's trace must not stand in for it.
        if out_dir is not None:
            path = _trace_path(out_dir, row.claim_id)
            if row.error:
                path.unlink(missing_ok=True)
            else:
                write_json(path, outcome.to_dict())

    with open_verifier(config, prompts, cache=cache, workers=workers) as verifier:
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
        started = time.monotonic()
        if verifier.executor is None:
            # Scripted backends only: no claim threads (see the module doc).
            for position, instance in enumerate(instances):
                finish(position, *_evaluate_one(verifier, instance))
        else:
            pool = ThreadPoolExecutor(max_workers=workers)
            try:
                pending = {
                    pool.submit(_evaluate_one, verifier, instance): position
                    for position, instance in enumerate(instances)
                }
                # Popped so that each finished claim's report is freed.
                for future in as_completed(pending):
                    finish(pending.pop(future), *future.result())
            finally:
                # A run left early (Ctrl-C, a failed trace write) waits only
                # for the claims already started; the queued ones never start.
                pool.shutdown(cancel_futures=True)
        elapsed = time.monotonic() - started
    # Equal backends share one client, counted once.
    clients = {verifier.abstraction_client, verifier.verification_client}

    # Every position is filled: a claim that raised past _evaluate_one ended
    # the run.
    return EvalReport(
        config=config.to_dict(),
        rows=rows,
        prompt_tokens=sum(client.prompt_tokens_total for client in clients),
        completion_tokens=sum(client.completion_tokens_total for client in clients),
        wall_clock_seconds=elapsed,
        variant=config.ablation,
        failures=tuple(exc for exc in failures if exc is not None),
    )


def run_into(
    out_dir: str | Path | None,
    instances: list[ClaimInstance],
    config: PipelineConfig,
    prompts: PromptLibrary,
    cache: ResponseCache | None = None,
    workers: int = 1,
) -> EvalReport:
    """``run_eval`` laid out in ``out_dir``: ``traces/`` as claims finish, then
    ``report.json`` and ``table.txt``. With no ``out_dir``, just ``run_eval``."""
    out = Path(out_dir) if out_dir else None
    trace_dir = None if out is None else out / "traces"
    report = run_eval(instances, config, prompts, cache, workers, trace_dir)
    if out is not None:
        write_json(out / "report.json", report.to_dict())
        (out / "table.txt").write_text(report.to_table() + "\n", encoding="utf-8")
    return report


def run_ablation_matrix(
    instances: list[ClaimInstance],
    base_config: PipelineConfig,
    prompts: PromptLibrary,
    variants: list[Ablation],
    cache: ResponseCache | None = None,
    workers: int = 1,
    out_dir: str | Path | None = None,
) -> list[EvalReport]:
    """Run one evaluation per variant, sharing the response cache so prompts
    that coincide across variants are completed once. Each variant is laid
    out in ``out_dir/<variant>`` as it ends; ``comparison.txt`` follows."""
    if not variants:
        raise ValueError("need at least one variant")
    if len(set(variants)) != len(variants):
        raise ValueError("duplicate variants requested")
    out = Path(out_dir) if out_dir else None
    reports = []
    for variant in variants:
        config = dataclasses.replace(base_config, ablation=variant)
        variant_dir = None if out is None else out / variant.value
        reports.append(run_into(variant_dir, instances, config, prompts, cache, workers))
    if out is not None:
        table = comparison_table(reports)
        (out / "comparison.txt").write_text(table + "\n", encoding="utf-8")
    return reports


def comparison_table(reports: list[EvalReport]) -> str:
    lines = [f"{'variant':<14} {'macro_f1':>9} {'errors':>7} {'abstained':>10}"]
    for report in reports:
        lines.append(
            f"{report.variant.value:<14} {report.macro_f1:>9.2f} "
            f"{report.counts.error_count:>7} {report.counts.abstain_count:>10}"
        )
    return "\n".join(lines)
