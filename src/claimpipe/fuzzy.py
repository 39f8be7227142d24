"""Approximate string similarity used for keyword selection.

All scores are real-valued percentages in [0, 100]. Inputs to the ratio
functions are expected to be preprocessed (see :func:`preprocess`); the
functions themselves do no normalization.

Keyword selection scores several short needles against each long evidence
text. What a score needs of the haystack alone (its set of characters, its
token set and the total length of its tokens) is kept in a
:class:`Profile`, built once per text and shared through a small bounded
cache. What :func:`partial_ratio` needs of the needle alone (the bit set of
each character's positions) is kept the same way, once per needle. A score
skips work only where the skip provably leaves it unchanged.

No score walks a whole piece in Python where a shorter walk gives the same
number. :func:`indel_distance` answers a short side that is a subsequence
of the long side from lengths, and otherwise runs its LCS over only the
long side's characters that occur in the short one, picked out by a regex.
:func:`partial_ratio` tries the windows aligned with every occurrence of
either half of the needle before it scans the others, and stops as soon
as one reaches the bound, usually a single edit away.
:func:`token_set_ratio` returns from lengths alone when no distance between
the suffixes could raise the score.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, chain, compress
from operator import sub
from typing import Iterator

# Profiles of the most recently scored haystacks. A claim scores all its
# keywords against one piece before the next, so each worker thread needs
# one entry at a time; the rest absorb interleaving between threads.
PROFILE_CACHE_SIZE = 16
# Position masks of the most recent needles. A claim scores the same few
# keywords against each of its pieces in turn, so each worker thread needs
# one entry per keyword of its claim. The character classes of the short
# sides of :func:`indel_distance` are kept the same way.
NEEDLE_CACHE_SIZE = 64


@dataclass(frozen=True)
class NormalizedText:
    """A string together with its normalized form and token split."""

    original: str
    normalized: str

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(self.normalized.split())


# Keywords recur across a claim's pieces and each ablation variant re-reads
# every piece, but most pieces are distinct: an entry costs about 2.4 bytes
# per character, so the bound holds about 7 MiB of 750-character pieces.
@lru_cache(maxsize=4096)
def preprocess(text: str) -> NormalizedText:
    """Lowercase, map every non-alphanumeric char to a space, collapse runs.

    Idempotent on its own ``normalized`` output. Non-ASCII alphanumerics
    pass through unchanged; no further Unicode folding is applied.
    """
    lowered = text.lower()
    # Lowercasing can introduce combining marks (non-alphanumeric); they
    # must be spaced out like any other punctuation, so lowercase first.
    spaced = "".join(ch if ch.isalnum() else " " for ch in lowered)
    return NormalizedText(original=text, normalized=" ".join(spaced.split()))


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
    and are skipped, so ``text`` may as well hold only the characters that
    ``masks`` has, as :func:`indel_distance` passes it. Python ints make the
    words any width.
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


@lru_cache(maxsize=NEEDLE_CACHE_SIZE)
def _char_class(text: str) -> re.Pattern[str]:
    """A pattern matching any one character of the non-empty ``text``."""
    return re.compile("[" + "".join(map(re.escape, dict.fromkeys(text))) + "]")


def indel_distance(a: str, b: str) -> int:
    """Minimum number of insertions plus deletions turning ``a`` into ``b``.

    With ``a`` the shorter side, the LCS is all of ``a`` exactly when ``a``
    is a subsequence of ``b``, which a greedy left-to-right search settles
    without a bit-parallel pass. Otherwise the LCS runs over the characters
    of ``b`` that occur in ``a``, taken out by one character class; the
    others could not change it.
    """
    if len(a) > len(b):
        a, b = b, a
    at = 0
    for ch in a:
        at = b.find(ch, at) + 1
        if not at:
            break
    else:
        return len(b) - len(a)
    shared = "".join(_char_class(a).findall(b))
    lcs = _lcs_length(_char_masks(a), (1 << len(a)) - 1, shared)
    return len(a) + len(b) - 2 * lcs


def simple_ratio(a: str, b: str) -> float:
    """Indel-normalized similarity; 100 iff the strings are identical."""
    return _ratio(indel_distance(a, b), len(a) + len(b))


class Profile:
    """What scoring any needle against one haystack needs of the haystack.

    ``chars`` is the set of characters of the text, ``tokens`` the set of
    its whitespace-separated tokens and ``token_chars`` the sum of their
    lengths, so the unique tokens joined by single spaces are
    ``token_chars + len(tokens) - 1`` characters long. ``sorted_tokens``, that
    join in sorted order, is built on first use: only :func:`token_set_ratio`
    needs it, and only when it runs an LCS.
    """

    def __init__(self, text: str):
        self.chars = frozenset(text)
        self.tokens = frozenset(text.split())
        self.token_chars = sum(map(len, self.tokens))

    @cached_property
    def sorted_tokens(self) -> str:
        return " ".join(sorted(self.tokens))


@lru_cache(maxsize=PROFILE_CACHE_SIZE)
def profile(text: str) -> Profile:
    """The :class:`Profile` of ``text``, shared by the calls that score
    against it while it is among the PROFILE_CACHE_SIZE most recent."""
    return Profile(text)


# Shared by the calls that score the same needle while it is among the
# NEEDLE_CACHE_SIZE most recent; callers must not change the dict.
_needle_masks = lru_cache(maxsize=NEEDLE_CACHE_SIZE)(_char_masks)


def partial_ratio(needle: str, haystack: str) -> float:
    """Best :func:`simple_ratio` of the needle against any same-length window.

    The shorter argument plays the needle. Every start offset counts, so a
    needle occurring verbatim in the haystack always scores 100. Otherwise
    the best LCS of a window with the needle lies between 1 and a bound: no
    window equals the needle, and none shares more characters with it than
    the whole haystack does. A needle sharing no character with the
    haystack, by its :func:`profile`, has a bound of 0 and scores 0. The
    bound, ``len(needle) - 1`` less the needle's characters that the profile
    lacks, needs no pass over the haystack. The needle's position masks are
    built once per needle.

    The windows aligned with each occurrence of either half of the needle
    are scored first (see :func:`_seed_starts`), until one reaches the
    bound. Only if none does are the other windows scanned, and the scan
    stops when a window reaches the bound. No rule changes the score:

    * A window whose first character is not in the needle never beats the
      window one step later, so such windows are skipped, except the last.
    * A window's LCS is at most its number of characters that occur in the
      needle, counted for every window at once from prefix sums. A window
      whose count does not exceed the best LCS so far is skipped.

    Cost is at most O(len(haystack) * len(needle)) steps on ints of
    len(needle) bits.
    """
    if len(needle) > len(haystack):
        needle, haystack = haystack, needle
    if needle in haystack:
        return 100.0
    masks = _needle_masks(needle)
    present = profile(haystack).chars
    if present.isdisjoint(masks):
        return 0.0
    size = len(needle)
    # Only a window equal to the needle has an LCS of len(needle), and none
    # holds a needle character that the haystack lacks.
    bound = size - 1
    if not present.issuperset(masks):
        bound = sum(m.bit_count() for ch, m in masks.items() if ch in present)
    # Some window holds a shared character.
    best = 1
    full = (1 << size) - 1
    last = len(haystack) - size
    for start in _seed_starts(needle, haystack, last):
        if best == bound:
            break
        best = max(best, _lcs_length(masks, full, haystack[start : start + size]))
    if best < bound:
        in_needle = list(map(masks.__contains__, haystack))
        sums = list(accumulate(in_needle, initial=0))
        window_counts = list(map(sub, sums[size:], sums))
        for start in chain(compress(range(last), in_needle), (last,)):
            if window_counts[start] > best:
                window = haystack[start : start + size]
                best = max(best, _lcs_length(masks, full, window))
                if best == bound:
                    break
    return _ratio(2 * (size - best), 2 * size)


def _seed_starts(needle: str, haystack: str, last: int) -> Iterator[int]:
    """Starts of the windows aligned with each occurrence of the second half
    of the needle, then of the first, clamped to [0, last], each start once.

    A window one edit away from the needle keeps one half intact, so these
    windows often score the best, but the first occurrence of the intact
    half need not lie in such a window. The second half is the longer one,
    so it occurs less often and is tried first. Occurrences are found as
    the caller draws starts, and it stops drawing at the bound."""
    half = len(needle) // 2
    seen = set()
    for part, offset in ((needle[half:], half), (needle[:half], 0)):
        at = haystack.find(part)
        while at >= 0:
            start = min(max(at - offset, 0), last)
            if start not in seen:
                seen.add(start)
                yield start
            at = haystack.find(part, at + 1)


def _without(sorted_tokens: str, tokens: list[str]) -> str:
    """``sorted_tokens`` (unique tokens joined by single spaces) with each of
    ``tokens``, all present in it, taken out."""
    padded = f" {sorted_tokens} "
    for token in tokens:
        at = padded.index(f" {token} ")
        padded = padded[:at] + padded[at + len(token) + 1 :]
    return padded[1:-1]


def token_set_ratio(a: str, b: str) -> float:
    """Similarity of the unique-token intersection against both differences.

    Compares the sorted common tokens t0 with t0 plus each side's leftover
    tokens, and the two combined strings with each other; returns the max.
    As t0 is a prefix of both combined strings, the first two distances are
    length differences and the third is the distance between the suffixes.

    ``b``'s token set, token lengths, sorted tokens and characters come from
    its :func:`profile`, so only ``a`` is split and sorted per call. b's
    combined string d2 holds every token of ``b`` once, so its length and
    its number of spaces follow from the profile without building it. Three
    exits skip work without changing the score. When every token of ``a``
    is in ``b``, t0 equals a's combined string and the score is 100. The
    suffixes' distance is at least the difference of their lengths; when
    even that distance would not beat the two length-only ratios, their
    maximum is the score, and neither d2 nor a distance is computed. This
    is the usual case for a keyword sharing a token with a long piece. When
    a's leftover tokens share no character with ``b``, only the separating
    spaces of the two suffixes can match, so their LCS is the smaller
    number of spaces, and neither d2 nor an LCS is computed.
    """
    tokens_a = set(a.split())
    b_profile = profile(b)
    if tokens_a <= b_profile.tokens:
        return 100.0
    common = sorted(tokens_a & b_profile.tokens)
    only_a = sorted(tokens_a - b_profile.tokens)
    t0 = " ".join(common)
    d1 = " ".join(common + only_a)
    prefix = len(t0)
    s1 = d1[prefix:]
    # d2 is b's unique tokens, t0 first, joined by single spaces.
    tokens_b = len(b_profile.tokens)
    len_d2 = b_profile.token_chars + tokens_b - 1 if tokens_b else 0
    by_lengths = max(
        _ratio(len(d1) - prefix, prefix + len(d1)),
        _ratio(len_d2 - prefix, prefix + len_d2),
    )
    total = len(d1) + len_d2
    if _ratio(abs(len(d1) - len_d2), total) <= by_lengths:
        return by_lengths
    if b_profile.chars.isdisjoint("".join(only_a)):
        # s2 is d2 after t0: its spaces are d2's, less those inside t0.
        spaces_s2 = tokens_b - len(common) if common else max(tokens_b - 1, 0)
        dist = len(s1) + len_d2 - prefix - 2 * min(s1.count(" "), spaces_s2)
    else:
        rest = _without(b_profile.sorted_tokens, common)
        d2 = f"{t0} {rest}" if t0 and rest else t0 + rest
        dist = indel_distance(s1, d2[prefix:])
    return max(by_lengths, _ratio(dist, total))
