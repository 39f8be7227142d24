from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from claimpipe import fuzzy
from claimpipe.fuzzy import (
    PROFILE_CACHE_SIZE,
    indel_distance,
    partial_ratio,
    preprocess,
    profile,
    simple_ratio,
    token_set_ratio,
)

# Small alphabet forces collisions; the tail adds digits, unicode, whitespace.
TEXT = st.text(alphabet="abcde 01é中", max_size=24)
WORDS = st.lists(
    st.text(alphabet="abcdef", min_size=1, max_size=6), min_size=0, max_size=8
)
NON_ASCII = st.text(alphabet="aéßΩ中日😀İ\u0307 ", max_size=24)
# Over 64 characters, so the bit masks span more than one machine word.
LONG_NEEDLE = st.text(alphabet="ab c", min_size=65, max_size=80)


def token_list(alphabet):
    return st.lists(
        st.text(alphabet=alphabet, min_size=1, max_size=5), max_size=6
    )


class TestFrozenValues:
    def test_indel_known_pair(self):
        assert indel_distance("kitten", "sitting") == 5

    def test_indel_edges(self):
        assert indel_distance("", "") == 0
        assert indel_distance("", "abc") == 3
        assert indel_distance("abc", "") == 3
        assert indel_distance("abc", "abc") == 0

    def test_simple_ratio_known_pair(self):
        assert simple_ratio("abc", "abd") == pytest.approx(66.66666666666667)

    def test_simple_ratio_empty_cases(self):
        assert simple_ratio("", "") == 100.0
        assert simple_ratio("", "a") == 0.0

    def test_token_set_known_pair(self):
        assert token_set_ratio("lunch food", "dinner beverage") == pytest.approx(
            16.000000000000004
        )

    def test_token_set_subset_is_100(self):
        # With one side's tokens contained in the other, t0 equals d1 or d2.
        assert token_set_ratio("spam", "spam is canned meat") == 100.0
        assert token_set_ratio("", "anything here") == 100.0

    def test_partial_substring_scores_100(self):
        assert (
            partial_ratio("lunch food", "a popular snack and lunch food in hawaii")
            == 100.0
        )

    def test_partial_empty_needle(self):
        assert partial_ratio("", "haystack") == 100.0
        assert partial_ratio("haystack", "") == 100.0

    def test_partial_swaps_longer_needle(self):
        assert partial_ratio("a long haystack here", "hay") == 100.0


class TestKeywordScoresAgainstEvidence:
    """Frozen scores for keywords matched against a reference passage."""

    EVIDENCE = (
        "spam msubi is a popular snack and lunch food in hawaii composed of "
        "a slice of grilled spam on top of a block of rice wrapped together "
        "with nori in the traditional of japanese omusubi"
    )

    CASES = [
        ("spam", 100.0, 100.0, True),
        ("canned cooked meat", 55.55555555555556, 17.045454545454547, False),
        ("hormel foods corporation", 45.833333333333336, 19.78021978021978, False),
        ("used", 75.0, 4.938271604938272, True),
        ("popular snack", 100.0, 100.0, True),
        ("lunch food", 100.0, 100.0, True),
        ("hawaii", 100.0, 100.0, True),
    ]

    @pytest.mark.parametrize("keyword,partial,token_set,passes", CASES)
    def test_frozen_scores(self, keyword, partial, token_set, passes):
        assert partial_ratio(keyword, self.EVIDENCE) == pytest.approx(partial)
        assert token_set_ratio(keyword, self.EVIDENCE) == pytest.approx(token_set)
        assert (partial > 60.0 or token_set > 60.0) is passes


class TestPreprocess:
    def test_punctuation_and_case(self):
        got = preprocess("Spam—msubi  (Hawaii)")
        assert got.normalized == "spam msubi hawaii"
        assert got.tokens == ("spam", "msubi", "hawaii")
        assert got.original == "Spam—msubi  (Hawaii)"

    def test_lowercases_before_filtering(self):
        # Lowercasing dotted capital I emits a combining mark, which must be
        # treated as a separator like any other non-alphanumeric character.
        assert preprocess("İstanbul").normalized == "i stanbul"

    def test_non_ascii_letters_pass_through(self):
        assert preprocess("Café crème!").normalized == "café crème"

    def test_empty_and_symbol_only(self):
        assert preprocess("").normalized == ""
        assert preprocess("!!! --- ???").normalized == ""
        assert preprocess("!!!").tokens == ()

    @given(TEXT)
    def test_idempotent(self, text):
        once = preprocess(text)
        again = preprocess(once.normalized)
        assert again.normalized == once.normalized
        assert again.tokens == once.tokens

    @given(TEXT)
    def test_normalized_shape(self, text):
        got = preprocess(text)
        assert got.normalized == " ".join(got.tokens)
        assert "  " not in got.normalized
        assert got.normalized == got.normalized.strip()
        assert got.normalized == got.normalized.lower()
        assert all(tok.isalnum() for tok in got.tokens)

    @given(TEXT)
    def test_matches_oracle(self, text):
        assert preprocess(text).normalized == oracles.preprocess_oracle(text)

    def test_cache_memory_is_bounded(self):
        """Many distinct evidence-sized texts keep the cache near its bound
        (about 7 MiB at 750 characters), not growing with the dataset."""
        pieces = (
            f"Piece {i}: " + "The Hawaiian Spam musubi, a popular snack. " * 17
            for i in range(5000)
        )
        preprocess.cache_clear()
        tracemalloc.start()
        try:
            for piece in pieces:
                preprocess(piece)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            preprocess.cache_clear()
        assert held < 12 * 2**20


class TestProperties:
    @given(TEXT, TEXT)
    def test_simple_ratio_symmetry_and_range(self, a, b):
        score = simple_ratio(a, b)
        assert score == simple_ratio(b, a)
        assert 0.0 <= score <= 100.0

    @given(TEXT, TEXT)
    def test_simple_ratio_identity(self, a, b):
        assert simple_ratio(a, a) == 100.0
        if simple_ratio(a, b) == 100.0:
            assert a == b

    @given(TEXT, TEXT)
    def test_partial_range_and_swap(self, a, b):
        score = partial_ratio(a, b)
        assert 0.0 <= score <= 100.0
        assert score == partial_ratio(b, a)

    @given(TEXT, TEXT, TEXT)
    def test_partial_substring_always_100(self, prefix, needle, suffix):
        assert partial_ratio(needle, prefix + needle + suffix) == 100.0

    @given(TEXT, TEXT)
    def test_partial_at_least_simple(self, a, b):
        # The full-string alignment is one of the scanned windows only when
        # lengths match; in general the best window can only do better than
        # aligning the needle against the same-length prefix.
        needle, haystack = (a, b) if len(a) <= len(b) else (b, a)
        assert partial_ratio(a, b) >= simple_ratio(
            needle, haystack[: len(needle)]
        ) - 1e-12

    @given(WORDS, WORDS)
    def test_token_set_order_and_duplicates_invariant(self, words_a, words_b):
        a = " ".join(words_a)
        shuffled = " ".join(reversed(words_a))
        doubled = " ".join(words_a + words_a)
        b = " ".join(words_b)
        base = token_set_ratio(a, b)
        assert token_set_ratio(shuffled, b) == base
        assert token_set_ratio(doubled, b) == base
        assert 0.0 <= base <= 100.0

    @given(WORDS, WORDS)
    def test_token_set_symmetry(self, words_a, words_b):
        a, b = " ".join(words_a), " ".join(words_b)
        assert token_set_ratio(a, b) == token_set_ratio(b, a)

    @given(WORDS)
    def test_token_set_identity(self, words):
        text = " ".join(words)
        assert token_set_ratio(text, text) == 100.0


class TestOracleEquivalence:
    @given(TEXT, TEXT)
    def test_indel_matches_oracle(self, a, b):
        assert indel_distance(a, b) == oracles.indel_oracle(a, b)

    @given(TEXT, TEXT)
    def test_simple_matches_oracle(self, a, b):
        assert simple_ratio(a, b) == oracles.simple_ratio_oracle(a, b)

    @given(TEXT, TEXT)
    def test_partial_matches_oracle(self, a, b):
        assert partial_ratio(a, b) == oracles.partial_ratio_oracle(a, b)

    @given(TEXT, TEXT)
    def test_token_set_matches_oracle(self, a, b):
        assert token_set_ratio(a, b) == oracles.token_set_ratio_oracle(a, b)


class TestAgainstBothOracles:
    """The bit-parallel core against the LCS table and the rolling DP."""

    @staticmethod
    def check_all(a, b):
        for indel in oracles.INDEL_ORACLES:
            assert indel_distance(a, b) == indel(a, b)
            assert simple_ratio(a, b) == oracles.simple_ratio_oracle(a, b, indel)
            assert partial_ratio(a, b) == oracles.partial_ratio_oracle(a, b, indel)

    @given(NON_ASCII, NON_ASCII)
    def test_non_ascii(self, a, b):
        self.check_all(a, b)
        wa, wb = " ".join(a.split()), " ".join(b.split())
        for indel in oracles.INDEL_ORACLES:
            assert token_set_ratio(wa, wb) == oracles.token_set_ratio_oracle(
                wa, wb, indel
            )

    @given(NON_ASCII)
    def test_empty_side(self, text):
        self.check_all("", text)
        self.check_all(text, "")

    @given(TEXT, TEXT)
    def test_needle_longer_than_haystack(self, a, b):
        assume(len(a) > len(b))
        for indel in oracles.INDEL_ORACLES:
            assert partial_ratio(a, b) == oracles.partial_ratio_oracle(a, b, indel)

    @settings(max_examples=25, deadline=None)
    @given(LONG_NEEDLE, st.text(alphabet="abc d", max_size=20), st.data())
    def test_needle_wider_than_a_word(self, needle, extra, data):
        # A shuffled copy plus extra characters: at least as long, and similar.
        haystack = "".join(data.draw(st.permutations(needle))) + extra
        self.check_all(needle, haystack)

    @pytest.mark.parametrize("empty", ["common", "only_a", "only_b"])
    @given(token_list("abc"), token_list("def"), token_list("ghi"))
    def test_token_set_with_empty_part(self, empty, common, only_a, only_b):
        # Disjoint alphabets keep the three token groups disjoint.
        parts = {"common": common, "only_a": only_a, "only_b": only_b}
        parts[empty] = []
        a = " ".join(parts["common"] + parts["only_a"])
        b = " ".join(parts["only_b"] + parts["common"])
        for indel in oracles.INDEL_ORACLES:
            assert token_set_ratio(a, b) == oracles.token_set_ratio_oracle(
                a, b, indel
            )


def assert_scores_match_oracles(needle, haystack):
    for indel in oracles.INDEL_ORACLES:
        assert partial_ratio(needle, haystack) == oracles.partial_ratio_oracle(
            needle, haystack, indel
        )
        assert token_set_ratio(needle, haystack) == oracles.token_set_ratio_oracle(
            needle, haystack, indel
        )


def normalized(text: str) -> str:
    """Single spaces between tokens, as keyword selection passes."""
    return " ".join(text.split())


PIECE = st.text(alphabet="abcde ", min_size=1, max_size=40).map(normalized)
KEYWORD = st.text(alphabet="abcdef ", max_size=10).map(normalized)


class TestProfilePath:
    """Scores through a shared haystack profile, against both oracles."""

    def test_profile_is_shared_per_text(self):
        assert profile("spam and eggs") is profile("spam and eggs")
        assert profile("spam and eggs").tokens == {"spam", "and", "eggs"}
        assert profile("spam and eggs").sorted_tokens == "and eggs spam"

    @given(PIECE, st.lists(KEYWORD, min_size=2, max_size=8))
    def test_many_needles_against_one_haystack(self, haystack, needles):
        for needle in needles:
            assert_scores_match_oracles(needle, haystack)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            PIECE,
            min_size=PROFILE_CACHE_SIZE + 1,
            max_size=PROFILE_CACHE_SIZE + 4,
            unique=True,
        ),
        st.lists(KEYWORD, min_size=1, max_size=3),
    )
    def test_more_haystacks_than_the_cache_holds_interleaved(self, haystacks, needles):
        # Each round evicts every profile before it is used again.
        for needle in needles:
            for haystack in haystacks:
                assert_scores_match_oracles(needle, haystack)
        assert profile.cache_info().currsize <= PROFILE_CACHE_SIZE

    @given(PIECE, st.data())
    def test_needles_from_the_haystacks_own_letters(self, haystack, data):
        assume(len(haystack) >= 2)
        letters = data.draw(
            st.lists(st.sampled_from(haystack), min_size=2, max_size=len(haystack))
        )
        needle = "".join(data.draw(st.permutations(letters)))
        assume(needle not in haystack)
        assert_scores_match_oracles(needle, haystack)

    @given(KEYWORD, KEYWORD)
    def test_needle_longer_than_haystack(self, needle, haystack):
        assume(len(needle) > len(haystack))
        assert_scores_match_oracles(needle, haystack)

    @given(NON_ASCII, st.lists(NON_ASCII, min_size=1, max_size=4))
    def test_non_ascii(self, haystack, needles):
        for needle in needles:
            assert_scores_match_oracles(normalized(needle), normalized(haystack))

    @given(st.sampled_from(["", " ", "  \t "]), KEYWORD)
    def test_empty_token_sets(self, blank, text):
        assert_scores_match_oracles(blank, text)
        assert_scores_match_oracles(text, blank)

    def test_windows_that_cannot_beat_the_best_are_not_scored(self, monkeypatch):
        scored = []
        real_lcs = fuzzy._lcs_length

        def recording_lcs(masks, full, window):
            scored.append(window)
            return real_lcs(masks, full, window)

        monkeypatch.setattr(fuzzy, "_lcs_length", recording_lcs)
        # The seed window scores 3 and "bcdeqq" 4. "edcbqq" holds 4 needle
        # characters, no more than the best, so it is skipped.
        assert partial_ratio("abcdef", "abcqqqbcdeqqqqqqqqedcbqq") == pytest.approx(
            200 / 3
        )
        assert scored == ["abcqqq", "bcdeqq"]

    def test_last_window_counts_although_it_starts_outside_the_needle(self):
        # Only the last window, "xbcdzf", holds the LCS "bcdf".
        haystack = "aqqqqeqxbcdzf"
        assert partial_ratio("abcdef", haystack) == pytest.approx(200 / 3)
        assert_scores_match_oracles("abcdef", haystack)
