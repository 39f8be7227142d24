"""Dataset loading: HOVER, FEVEROUS (sentence-only subset), and a generic
JSONL interchange format.

Loaders expect evidence already resolved to sentence text. Records whose
FEVEROUS evidence consists only of structured elements (table cells, list
items) are skipped with a counted diagnostic; unresolved sentence ids are an
error, since verification needs the text itself.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

from .pipeline import ClaimInstance, EvidencePiece, Verdict

log = logging.getLogger(__name__)


class DataError(Exception):
    """Unreadable file, malformed record, or unknown label."""


@dataclass(frozen=True)
class LabelMap:
    """Maps dataset-native label strings onto binary verdicts."""

    pairs: tuple[tuple[str, Verdict], ...]

    def apply(self, label: object) -> Verdict:
        for name, verdict in self.pairs:
            if label == name:
                return verdict
        known = ", ".join(name for name, _ in self.pairs)
        raise DataError(f"unknown label {label!r} (expected one of: {known})")


HOVER_LABELS = LabelMap((("SUPPORTED", Verdict.TRUE), ("NOT_SUPPORTED", Verdict.FALSE)))
FEVEROUS_LABELS = LabelMap((("SUPPORTS", Verdict.TRUE), ("REFUTES", Verdict.FALSE)))

# FEVEROUS element-id infixes that mark structured (non-sentence) evidence.
_STRUCTURED_MARKERS = ("_cell_", "_header_cell_", "_table_caption_", "_item_")


def _require(record: dict, key: str, where: str) -> object:
    if key not in record:
        raise DataError(f"{where}: missing required field {key!r}")
    return record[key]


def _check_instance(instance: ClaimInstance, where: str) -> ClaimInstance:
    if not instance.claim.strip():
        raise DataError(f"{where}: claim text is empty")
    if not instance.evidence:
        raise DataError(f"{where}: no usable evidence")
    for piece in instance.evidence:
        if not piece.text.strip():
            raise DataError(f"{where}: evidence piece with empty text")
    return instance


def _evidence_from_entry(entry: object, where: str) -> tuple[str | None, str]:
    """Normalize one evidence entry to (title, text)."""
    if isinstance(entry, str):
        return None, entry
    if isinstance(entry, dict):
        if "text" not in entry:
            raise DataError(f"{where}: evidence object lacks a 'text' field")
        text = entry["text"]
        if not isinstance(text, str):
            raise DataError(f"{where}: evidence text must be a string")
        title = entry.get("title")
        if title is not None and not isinstance(title, str):
            raise DataError(f"{where}: evidence title must be a string or null")
        return title, text
    if isinstance(entry, list) and len(entry) == 2:
        title, payload = entry
        if title is not None and not isinstance(title, str):
            raise DataError(f"{where}: evidence title must be a string or null")
        if isinstance(payload, str):
            return title, payload
        if isinstance(payload, list) and all(isinstance(s, str) for s in payload):
            return title, " ".join(payload)
        raise DataError(
            f"{where}: evidence sentences must be text, not indices; "
            "resolve them against the source corpus first"
        )
    raise DataError(f"{where}: unrecognized evidence entry shape")


def _group_by_title(
    entries: list[tuple[str | None, str]]
) -> tuple[EvidencePiece, ...]:
    """Merge same-titled sentences into one piece, first-seen title order.

    Untitled entries are never merged with each other.
    """
    order: list[tuple[str | None, int]] = []
    grouped: dict[str, list[str]] = {}
    untitled: list[str] = []
    for title, text in entries:
        if title is None:
            untitled.append(text)
            order.append((None, len(untitled) - 1))
        else:
            if title not in grouped:
                grouped[title] = []
                order.append((title, 0))
            grouped[title].append(text)
    pieces = []
    for title, index in order:
        if title is None:
            pieces.append(EvidencePiece(text=untitled[index], title=None))
        else:
            pieces.append(EvidencePiece(text=" ".join(grouped[title]), title=title))
    return tuple(pieces)


def load_hover(
    path: str | Path, hops: int | None = None
) -> list[ClaimInstance]:
    """Load a HOVER-style JSON array, optionally filtering by hop count."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise DataError(f"{path}: expected a JSON array of records")
    instances = []
    seen_ids: dict[str, int] = {}
    for position, record in enumerate(data):
        where = f"{path}[{position}]"
        if not isinstance(record, dict):
            raise DataError(f"{where}: record must be an object")
        uid = record.get("uid", record.get("id"))
        if uid is None:
            raise DataError(f"{where}: missing record id ('uid' or 'id')")
        uid = str(uid)
        if uid in seen_ids:
            raise DataError(
                f"{where}: duplicate id {uid!r} "
                f"(first seen at {path}[{seen_ids[uid]}])"
            )
        seen_ids[uid] = position
        num_hops = record.get("num_hops")
        if hops is not None and num_hops != hops:
            continue
        claim = _require(record, "claim", where)
        label = _require(record, "label", where)
        raw_evidence = _require(record, "evidence", where)
        if not isinstance(raw_evidence, list):
            raise DataError(f"{where}: evidence must be a list")
        entries = [
            _evidence_from_entry(entry, where) for entry in raw_evidence
        ]
        instances.append(
            _check_instance(
                ClaimInstance(
                    id=uid,
                    claim=str(claim),
                    evidence=_group_by_title(entries),
                    gold_label=HOVER_LABELS.apply(label),
                ),
                where,
            )
        )
    if not instances:
        raise DataError(f"{path}: no records loaded (check the hops filter)")
    return instances


def _feverous_structured_only(raw_evidence: list) -> bool:
    """True when every evidence element id names a structured element."""
    element_ids: list[str] = []
    for entry in raw_evidence:
        if isinstance(entry, dict) and isinstance(entry.get("content"), list):
            element_ids.extend(
                el for el in entry["content"] if isinstance(el, str)
            )
    if not element_ids:
        return False
    return all(
        any(marker in el for marker in _STRUCTURED_MARKERS) for el in element_ids
    )


def load_feverous(path: str | Path) -> list[ClaimInstance]:
    """Load FEVEROUS-style JSONL, keeping sentence-evidence claims only.

    Records whose evidence is entirely structured elements are skipped and
    counted. Sentence ids without resolved text are an error.
    """
    path = Path(path)
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    instances = []
    skipped_structured = 0
    seen_ids: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise DataError(f"{where}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise DataError(f"{where}: record must be an object")
        # Header lines in FEVEROUS dumps carry no claim; skip them silently.
        if "claim" not in record and "label" not in record:
            continue
        uid = record.get("id", record.get("uid"))
        if uid is None:
            raise DataError(f"{where}: missing record id")
        uid = str(uid)
        if uid in seen_ids:
            raise DataError(
                f"{where}: duplicate id {uid!r} (first seen at line {seen_ids[uid]})"
            )
        seen_ids[uid] = lineno
        claim = _require(record, "claim", where)
        label = _require(record, "label", where)
        raw_evidence = _require(record, "evidence", where)
        if not isinstance(raw_evidence, list):
            raise DataError(f"{where}: evidence must be a list")
        if _feverous_structured_only(raw_evidence):
            skipped_structured += 1
            continue
        entries: list[tuple[str | None, str]] = []
        for entry in raw_evidence:
            if isinstance(entry, dict) and "content" in entry and "text" not in entry:
                raise DataError(
                    f"{where}: evidence holds element ids, not text; "
                    "resolve sentences against the source corpus first"
                )
            entries.append(_evidence_from_entry(entry, where))
        instances.append(
            _check_instance(
                ClaimInstance(
                    id=uid,
                    claim=str(claim),
                    evidence=_group_by_title(entries),
                    gold_label=FEVEROUS_LABELS.apply(label),
                ),
                where,
            )
        )
    if skipped_structured:
        log.info(
            "skipped %d record(s) with structured-only evidence", skipped_structured
        )
    if not instances:
        raise DataError(f"{path}: no usable records loaded")
    return instances


def load_generic(path: str | Path) -> list[ClaimInstance]:
    """Load the generic JSONL interchange format.

    Each line: {"id", "claim", "label" (true/false or "true"/"false"),
    "evidence": [{"title"?, "text"}]}.
    """
    path = Path(path)
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    instances = []
    seen_ids: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise DataError(f"{where}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise DataError(f"{where}: record must be an object")
        uid = str(_require(record, "id", where))
        if uid in seen_ids:
            raise DataError(
                f"{where}: duplicate id {uid!r} (first seen at line {seen_ids[uid]})"
            )
        seen_ids[uid] = lineno
        claim = _require(record, "claim", where)
        label = _require(record, "label", where)
        if isinstance(label, bool):
            verdict = Verdict.from_bool(label)
        elif isinstance(label, str) and label.lower() in ("true", "false"):
            verdict = Verdict.from_bool(label.lower() == "true")
        else:
            raise DataError(f"{where}: label must be true or false, got {label!r}")
        raw_evidence = _require(record, "evidence", where)
        if not isinstance(raw_evidence, list):
            raise DataError(f"{where}: evidence must be a list")
        entries = [_evidence_from_entry(entry, where) for entry in raw_evidence]
        instances.append(
            _check_instance(
                ClaimInstance(
                    id=uid,
                    claim=str(claim),
                    evidence=tuple(
                        EvidencePiece(text=text, title=title)
                        for title, text in entries
                    ),
                    gold_label=verdict,
                ),
                where,
            )
        )
    if not instances:
        raise DataError(f"{path}: no records loaded")
    return instances


def dump_generic(instances: list[ClaimInstance], path: str | Path) -> None:
    """Write instances as generic JSONL; inverse of load_generic."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for instance in instances:
            if instance.gold_label is None:
                raise DataError(
                    f"instance {instance.id}: cannot dump without a gold label"
                )
            record = {
                "id": instance.id,
                "claim": instance.claim,
                "label": instance.gold_label.as_bool(),
                "evidence": [
                    {"title": piece.title, "text": piece.text}
                    for piece in instance.evidence
                ],
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
