"""Input files and JSON output.

Loaders for HOVER, FEVEROUS (sentence-only subset) and a generic JSONL
interchange format, and for the evidence file of ``claimpipe verify``. All
of them read records through one reader and share the rules for ids,
required fields and evidence entries; each loader adds only its own.

Loaders expect evidence already resolved to sentence text. Records whose
FEVEROUS evidence consists only of structured elements (table cells, list
items) are skipped with a counted diagnostic; unresolved sentence ids are an
error, since verification needs the text itself.
"""
from __future__ import annotations

import json
import logging
from collections.abc import Iterator
from dataclasses import dataclass
from json.encoder import INFINITY as _INFINITY
from json.encoder import encode_basestring as _quote
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

# One evidence entry, normalized: (title or None, text).
Entry = tuple[str | None, str]

# FEVEROUS element-id infixes that mark structured (non-sentence) evidence.
_STRUCTURED_MARKERS = ("_cell_", "_header_cell_", "_table_caption_", "_item_")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _scalar_text(value: object) -> str | None:
    """JSON text of a string, null, bool, int or float; None for other types."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    return None


def _key_text(key: object) -> str:
    if isinstance(key, str):
        return _quote(key)
    text = _scalar_text(key)
    if text is None:
        raise TypeError(
            f"keys must be str, int, float, bool or None, not {type(key).__name__}"
        )
    return _quote(text)


def _emit(value: object, chunks: list[str], indent: str) -> None:
    """Append ``value``'s JSON text to ``chunks``, nested at ``indent``."""
    if type(value) is str:
        chunks.append(_quote(value))
    elif isinstance(value, dict):
        if not value:
            chunks.append("{}")
            return
        inner = indent + "  "
        separator = "{\n" + inner
        for key, item in value.items():
            chunks.append(separator + _key_text(key) + ": ")
            _emit(item, chunks, inner)
            separator = ",\n" + inner
        chunks.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            chunks.append("[]")
            return
        inner = indent + "  "
        separator = "[\n" + inner
        for item in value:
            chunks.append(separator)
            _emit(item, chunks, inner)
            separator = ",\n" + inner
        chunks.append("\n" + indent + "]")
    else:
        text = _scalar_text(value)
        if text is None:
            raise TypeError(
                f"Object of type {type(value).__name__} is not JSON serializable"
            )
        chunks.append(text)


def json_text(payload: object) -> str:
    """The one serialization of every JSON output: indented, non-ASCII kept,
    ending in a newline.

    Byte-equal to ``json.dumps(payload, ensure_ascii=False, indent=2) + "\\n"``,
    whose indented form runs the pure-Python encoder; this one hands strings
    to the C string encoder and joins its chunks once.
    """
    chunks: list[str] = []
    _emit(payload, chunks, "")
    chunks.append("\n")
    return "".join(chunks)


def write_json(path: str | Path, payload: object) -> None:
    """Write ``json_text(payload)`` as UTF-8, creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json_text(payload), encoding="utf-8")


def _read_records(
    path: Path, array: bool | None, objects: bool = True
) -> Iterator[tuple[str, str, object]]:
    """Yield ``(where, ref, record)`` for each record of a JSON array or JSONL
    file, lazily and in file order, so the first bad record is the one reported.

    ``where`` prefixes error messages (``path[i]`` or ``path:line``); ``ref``
    names the record in a later record's message (``path[i]`` or ``line n``).
    With ``array=None`` a ``.jsonl`` file is JSONL, since a JSONL record may
    itself be an array; any other file is one JSON array when its text
    starts with ``[``, and JSONL otherwise. With ``objects`` every record
    must be a JSON object.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if array is None:
        array = path.suffix.lower() != ".jsonl" and text.lstrip().startswith("[")
    if array:
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise DataError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(data, list):
            raise DataError(f"{path}: expected a JSON array of records")
        numbered = enumerate(data)
    else:
        numbered = enumerate(text.splitlines(), start=1)
    for number, record in numbered:
        if array:
            where = ref = f"{path}[{number}]"
        elif not record.strip():
            continue
        else:
            where, ref = f"{path}:{number}", f"line {number}"
            try:
                record = json.loads(record)
            except ValueError as exc:
                raise DataError(f"{where}: invalid JSON: {exc}") from exc
        if objects and not isinstance(record, dict):
            raise DataError(f"{where}: record must be an object")
        yield where, ref, record


def _require(record: dict, key: str, where: str) -> object:
    if key not in record:
        raise DataError(f"{where}: missing required field {key!r}")
    return record[key]


def _unique_id(uid: object, seen: dict[str, str], where: str, ref: str) -> str:
    """``uid`` as a string, remembered in ``seen``; a repeat names both records.

    Ids compare as strings, since they name trace files.
    """
    uid = str(uid)
    if uid in seen:
        raise DataError(f"{where}: duplicate id {uid!r} (first seen at {seen[uid]})")
    seen[uid] = ref
    return uid


def _claim_fields(record: dict, where: str) -> tuple[object, object, list]:
    """The required ``claim``, ``label`` and ``evidence`` (a list) fields."""
    claim = _require(record, "claim", where)
    label = _require(record, "label", where)
    evidence = _require(record, "evidence", where)
    if not isinstance(evidence, list):
        raise DataError(f"{where}: evidence must be a list")
    return claim, label, evidence


def _piece(title: str | None, text: str, where: str) -> EvidencePiece:
    if not text.strip():
        raise DataError(f"{where}: evidence piece with empty text")
    return EvidencePiece(text=text, title=title)


def _instance(
    uid: str,
    claim: object,
    entries: list[Entry],
    gold: Verdict,
    where: str,
) -> ClaimInstance:
    """One piece per ``(title, text)`` entry; claim and pieces must hold text."""
    claim = str(claim)
    if not claim.strip():
        raise DataError(f"{where}: claim text is empty")
    if not entries:
        raise DataError(f"{where}: no usable evidence")
    evidence = tuple(_piece(title, text, where) for title, text in entries)
    return ClaimInstance(id=uid, claim=claim, evidence=evidence, gold_label=gold)


def _evidence_from_entry(entry: object, where: str) -> Entry:
    """Normalize one evidence entry (a string, a ``{"title"?, "text"}``
    object, or a ``[title, text or sentences]`` pair) to (title, text)."""
    if isinstance(entry, str):
        return None, entry
    if isinstance(entry, dict):
        if "text" not in entry:
            raise DataError(f"{where}: evidence object lacks a 'text' field")
        title, text = entry.get("title"), entry["text"]
        if not isinstance(text, str):
            raise DataError(f"{where}: evidence text must be a string")
    elif isinstance(entry, list) and len(entry) == 2:
        title, text = entry
        if isinstance(text, list) and all(isinstance(s, str) for s in text):
            text = " ".join(text)
        elif not isinstance(text, str):
            raise DataError(
                f"{where}: evidence sentences must be text, not indices; "
                "resolve them against the source corpus first"
            )
    else:
        raise DataError(f"{where}: unrecognized evidence entry shape")
    if title is not None and not isinstance(title, str):
        raise DataError(f"{where}: evidence title must be a string or null")
    return title, text


def _group_by_title(entries: list[Entry]) -> list[Entry]:
    """Merge same-titled sentences into one entry, in first-seen title order.

    An untitled entry keys on its position, so it is never merged.
    """
    grouped: dict[tuple[str | None, int], list[str]] = {}
    for position, (title, text) in enumerate(entries):
        key = (None, position) if title is None else (title, 0)
        grouped.setdefault(key, []).append(text)
    return [(title, " ".join(texts)) for (title, _), texts in grouped.items()]


def load_evidence(path: str | Path) -> list[EvidencePiece]:
    """Load a ``claimpipe verify`` evidence file: a JSON array or JSONL of
    evidence entries in any shape the loaders take, one piece per entry.
    A ``.jsonl`` file is always JSONL (see :func:`_read_records`)."""
    path = Path(path)
    pieces = [
        _piece(*_evidence_from_entry(entry, where), where)
        for where, _, entry in _read_records(path, array=None, objects=False)
    ]
    if not pieces:
        raise DataError(f"evidence file {path} holds no evidence")
    return pieces


def load_hover(
    path: str | Path, hops: int | None = None
) -> list[ClaimInstance]:
    """Load a HOVER-style JSON array, optionally filtering by hop count."""
    path = Path(path)
    instances = []
    seen_ids: dict[str, str] = {}
    for where, ref, record in _read_records(path, array=True):
        uid = record.get("uid", record.get("id"))
        if uid is None:
            raise DataError(f"{where}: missing record id ('uid' or 'id')")
        uid = _unique_id(uid, seen_ids, where, ref)
        if hops is not None and record.get("num_hops") != hops:
            continue
        claim, label, raw_evidence = _claim_fields(record, where)
        entries = [_evidence_from_entry(entry, where) for entry in raw_evidence]
        gold = HOVER_LABELS.apply(label)
        instances.append(_instance(uid, claim, _group_by_title(entries), gold, where))
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
    instances = []
    skipped_structured = 0
    seen_ids: dict[str, str] = {}
    for where, ref, record in _read_records(path, array=False):
        # Header lines in FEVEROUS dumps carry no claim; skip them silently.
        if "claim" not in record and "label" not in record:
            continue
        uid = record.get("id", record.get("uid"))
        if uid is None:
            raise DataError(f"{where}: missing record id")
        uid = _unique_id(uid, seen_ids, where, ref)
        claim, label, raw_evidence = _claim_fields(record, where)
        if _feverous_structured_only(raw_evidence):
            skipped_structured += 1
            continue
        entries: list[Entry] = []
        for entry in raw_evidence:
            if isinstance(entry, dict) and "content" in entry and "text" not in entry:
                raise DataError(
                    f"{where}: evidence holds element ids, not text; "
                    "resolve sentences against the source corpus first"
                )
            entries.append(_evidence_from_entry(entry, where))
        gold = FEVEROUS_LABELS.apply(label)
        instances.append(_instance(uid, claim, _group_by_title(entries), gold, where))
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
    instances = []
    seen_ids: dict[str, str] = {}
    for where, ref, record in _read_records(path, array=False):
        uid = _unique_id(_require(record, "id", where), seen_ids, where, ref)
        claim, label, raw_evidence = _claim_fields(record, where)
        if isinstance(label, bool):
            verdict = Verdict.from_bool(label)
        elif isinstance(label, str) and label.lower() in ("true", "false"):
            verdict = Verdict.from_bool(label.lower() == "true")
        else:
            raise DataError(f"{where}: label must be true or false, got {label!r}")
        entries = [_evidence_from_entry(entry, where) for entry in raw_evidence]
        instances.append(_instance(uid, claim, entries, verdict, where))
    if not instances:
        raise DataError(f"{path}: no records loaded")
    return instances


def dump_generic(instances: list[ClaimInstance], path: str | Path) -> None:
    """Write instances as generic JSONL; inverse of load_generic. Every
    instance needs a gold label, checked before the file is opened."""
    for instance in instances:
        if instance.gold_label is None:
            raise DataError(f"instance {instance.id}: cannot dump without a gold label")
    with open(path, "w", encoding="utf-8") as fh:
        for instance in instances:
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
