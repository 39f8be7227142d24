"""Approximate string similarity used for keyword selection.

All scores are real-valued percentages in [0, 100]. Inputs to the ratio
functions are expected to be preprocessed (see :func:`preprocess`); the
functions themselves do no normalization.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress


@dataclass(frozen=True)
class NormalizedText:
    """A string together with its normalized form and token split."""

    original: str
    normalized: str
    tokens: tuple[str, ...]


@lru_cache(maxsize=65536)
def preprocess(text: str) -> NormalizedText:
    """Lowercase, map every non-alphanumeric char to a space, collapse runs.

    Idempotent on its own ``normalized`` output. Non-ASCII alphanumerics
    pass through unchanged; no further Unicode folding is applied.
    """
    lowered = text.lower()
    # Lowercasing can introduce combining marks (non-alphanumeric); they
    # must be spaced out like any other punctuation, so lowercase first.
    spaced = "".join(ch if ch.isalnum() else " " for ch in lowered)
    tokens = tuple(spaced.split())
    return NormalizedText(original=text, normalized=" ".join(tokens), tokens=tokens)


def _char_masks(text: str) -> dict[str, int]:
    """Map each character to the bit set of its positions in ``text``."""
    masks: dict[str, int] = {}
    for position, ch in enumerate(text):
        masks[ch] = masks.get(ch, 0) | 1 << position
    return masks


def _lcs_length(masks: dict[str, int], full: int, text: str) -> int:
    """Bit-parallel LCS length (Allison & Dix 1986; Hyyrö 2004).

    ``masks`` comes from :func:`_char_masks` of one string and ``full`` has
    one bit per character of it; ``text`` is the other string. A zero bit of
    ``v`` marks a row where the LCS grew, so the LCS length is the number of
    zero bits left. Characters missing from ``masks`` leave ``v`` unchanged
    and are skipped. Python ints make the words any width.
    """
    v = full
    for mask in filter(None, map(masks.get, text)):
        u = v & mask
        v = ((v + u) | (v - u)) & full
    return full.bit_count() - v.bit_count()


def _ratio(dist: int, total: int) -> float:
    if total == 0:
        return 100.0
    return 100.0 * (1.0 - dist / total)


def indel_distance(a: str, b: str) -> int:
    """Minimum number of insertions plus deletions turning ``a`` into ``b``."""
    if a == b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    lcs = _lcs_length(_char_masks(a), (1 << len(a)) - 1, b)
    return len(a) + len(b) - 2 * lcs


def simple_ratio(a: str, b: str) -> float:
    """Indel-normalized similarity; 100 iff the strings are identical."""
    return _ratio(indel_distance(a, b), len(a) + len(b))


def partial_ratio(needle: str, haystack: str) -> float:
    """Best :func:`simple_ratio` of the needle against any same-length window.

    The shorter argument plays the needle. Every start offset counts, so a
    needle occurring verbatim in the haystack always scores 100. Two rules
    skip windows without changing the score. A window whose first character
    is not in the needle never beats the window one step later, so such
    windows are skipped, except the last. And no window shares more
    characters with the needle than the whole haystack does, so the scan
    stops when a window reaches that count. Cost is at most
    O(len(haystack) * len(needle)) steps on ints of len(needle) bits.
    """
    if len(needle) > len(haystack):
        needle, haystack = haystack, needle
    if needle in haystack:
        return 100.0
    size = len(needle)
    masks = _char_masks(needle)
    bound = sum(min(needle.count(ch), haystack.count(ch)) for ch in masks)
    full = (1 << size) - 1
    last = len(haystack) - size
    best = 0
    starts = compress(range(last), map(masks.__contains__, haystack))
    for start in chain(starts, (last,)):
        if best == bound:
            break
        best = max(best, _lcs_length(masks, full, haystack[start : start + size]))
    return _ratio(2 * (size - best), 2 * size)


def token_set_ratio(a: str, b: str) -> float:
    """Similarity of the unique-token intersection against both differences.

    Compares the sorted common tokens t0 with t0 plus each side's leftover
    tokens, and the two combined strings with each other; returns the max.
    As t0 is a prefix of both combined strings, the first two distances are
    length differences and the third is the distance between the suffixes.
    """
    tokens_a = set(a.split())
    tokens_b = set(b.split())
    common = sorted(tokens_a & tokens_b)
    t0 = " ".join(common)
    d1 = " ".join(common + sorted(tokens_a - tokens_b))
    d2 = " ".join(common + sorted(tokens_b - tokens_a))
    prefix = len(t0)
    return max(
        _ratio(len(d1) - prefix, prefix + len(d1)),
        _ratio(len(d2) - prefix, prefix + len(d2)),
        _ratio(indel_distance(d1[prefix:], d2[prefix:]), len(d1) + len(d2)),
    )
