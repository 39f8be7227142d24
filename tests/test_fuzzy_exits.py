"""The exits that spare a keyword score a walk over the whole piece.

* ``indel_distance`` answers a short side that is a subsequence of the
  long side from lengths. Otherwise it runs its LCS over only the long
  side's characters that occur in the short side, picked out by a regex
  character class.
* ``partial_ratio`` scores the windows aligned with every occurrence of
  each half of the needle before anything else, and stops at the bound.
* ``token_set_ratio`` returns from lengths alone when no distance between
  the suffixes could raise the score.

Each exit is checked against both oracles, and each is shown to skip the
work it skips by recording the calls made, with no timing.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from claimpipe import fuzzy
from claimpipe.fuzzy import indel_distance, partial_ratio, token_set_ratio
from test_fuzzy_at_scale import assert_matches_oracles

# Characters that are special inside a regex character class, and one
# outside the Basic Multilingual Plane.
CLASS_SPECIAL = "]^-\\😀"
SIDE = st.text(alphabet="ab " + CLASS_SPECIAL, max_size=14)


def assert_indel_matches_oracles(a: str, b: str) -> None:
    for indel in oracles.INDEL_ORACLES:
        assert indel_distance(a, b) == indel(a, b)
        assert indel_distance(b, a) == indel(b, a)


@pytest.fixture
def lcs_inputs(monkeypatch):
    """The texts passed to ``fuzzy._lcs_length``, in call order."""
    seen = []
    real = fuzzy._lcs_length

    def recording(masks, full, text):
        seen.append(text)
        return real(masks, full, text)

    monkeypatch.setattr(fuzzy, "_lcs_length", recording)
    return seen


class TestIndelDistance:
    @pytest.mark.parametrize(
        "short, long",
        [
            ("ace", "abcde"),
            ("aec", "abcde"),
            ("a]b^", "x]a]y^b^"),
            ("^ab", "ba^qq"),
            ("a-c", "abc-"),
            ("\\]", "]x\\"),
            ("😀a", "a😀b😀"),
            ("a😀", "😀a"),
            ("", "a]^-\\😀"),
            ("", ""),
        ],
    )
    def test_hand_picked(self, short, long):
        assert_indel_matches_oracles(short, long)

    @given(SIDE, SIDE)
    def test_special_characters_on_either_side(self, a, b):
        assert_indel_matches_oracles(a, b)

    @given(SIDE, st.data())
    def test_subsequence_of_the_long_side(self, short, data):
        fillers = data.draw(
            st.lists(SIDE.map(lambda s: s[:3]), min_size=len(short) + 1,
                     max_size=len(short) + 1)
        )
        long = "".join(f + ch for f, ch in zip(fillers, short)) + fillers[-1]
        assert indel_distance(short, long) == len(long) - len(short)
        assert_indel_matches_oracles(short, long)

    def test_a_subsequence_runs_no_lcs(self, lcs_inputs):
        assert indel_distance("ace", "xaxbxcxdxe") == 7
        assert indel_distance("xaxbxcxdxe", "ace") == 7
        assert lcs_inputs == []

    def test_the_lcs_reads_only_characters_of_the_short_side(self, lcs_inputs):
        # "c" comes before "e" in the long side, so the greedy search fails.
        assert indel_distance("aec", "qaqbqcqdqeq") == oracles.indel_oracle(
            "aec", "qaqbqcqdqeq"
        )
        assert lcs_inputs == ["ace"]

    def test_class_special_characters_are_read_literally(self, lcs_inputs):
        # Unescaped, "[^a]b]" would match every other character and miss
        # "a" and "b"; "]" and "\\" could not be in the class at all.
        short, long = "^a]b\\😀", "😀q\\b]qa^q"
        assert indel_distance(short, long) == oracles.indel_oracle(short, long)
        assert lcs_inputs == ["😀\\b]a^"]


class TestPartialRatioSeeds:
    # "abcd" first occurs at 0, where the rest of the window is filler; the
    # window that differs from the needle in one letter starts at 17. The
    # reversed needle between them holds every needle letter, so a scan of
    # the windows in order, after the first seed alone, would score it.
    NEEDLE = "abcdefgh"
    HAYSTACK = "abcdqqqq" + "hgfedcba" + "q" + "abcdefxh" + "qqqq"

    def test_misaligned_half_matches_the_oracles(self):
        assert partial_ratio(self.NEEDLE, self.HAYSTACK) == 87.5
        assert_matches_oracles(
            self.NEEDLE, self.HAYSTACK, partial_ratio, oracles.partial_ratio_oracle
        )

    def test_misaligned_half_scores_no_window_outside_the_seeds(self, lcs_inputs):
        partial_ratio(self.NEEDLE, self.HAYSTACK)
        assert lcs_inputs == ["abcdqqqq", "abcdefxh"]

    @given(
        st.text(alphabet="abcde", min_size=2, max_size=10),
        st.text(alphabet="abcdeq", max_size=12),
        st.text(alphabet="abcdeq", max_size=12),
        st.data(),
    )
    def test_misspelt_needle_after_an_intact_half(self, needle, before, after, data):
        # The half without the misspelt letter also occurs earlier, out of line.
        spot = data.draw(st.integers(0, len(needle) - 1))
        misspelt = needle[:spot] + "q" + needle[spot + 1 :]
        middle = len(needle) // 2
        intact = needle[:middle] if spot >= middle else needle[middle:]
        haystack = before + intact + after + misspelt + before
        assert_matches_oracles(
            needle, haystack, partial_ratio, oracles.partial_ratio_oracle
        )

    def test_a_window_at_the_bound_ends_the_seeds(self, lcs_inputs):
        # The second half "bc" is intact at 0, one edit from "abc"; none of
        # the twenty "a" windows is scored.
        assert partial_ratio("abc", "bcq" + "aq" * 20) == pytest.approx(200 / 3)
        assert lcs_inputs == ["bcq"]

    def test_a_short_needle_scores_no_window(self, lcs_inputs):
        # Only "ab" itself has an LCS of 2 with "ab", and every window
        # holding "a" or "b" has 1, so no window needs scoring.
        assert partial_ratio("ab", "b" + "xa" * 30) == 50.0
        assert lcs_inputs == []

    def test_characters_the_haystack_lacks_lower_the_bound(self, lcs_inputs):
        # "x" and "y" are missing, so an LCS of 2 is the best any window has
        # and the first of the many "ab" windows ends the scan.
        assert partial_ratio("abxy", "ab" * 40) == 50.0
        assert lcs_inputs == ["abab"]


class TestTokenSetBound:
    # One token shared with the piece and one misspelt. Every letter of
    # "betz" occurs in the long piece, so only the length bound spares the
    # distance between the suffixes there.
    KEYWORD = "alpha betz"
    LONG_PIECE = " ".join(
        ["alpha", "beta", "zebra", "tablet", "bezel", "gamma", "delta", "theta"] * 4
        + [f"zeta{i}" for i in range(30)]
    )
    SHORT_PIECE = "alpha beta"

    @pytest.fixture
    def indel_calls(self, monkeypatch):
        calls = []
        real = fuzzy.indel_distance

        def recording(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(fuzzy, "indel_distance", recording)
        return calls

    def test_shared_token_with_a_long_piece(self, indel_calls):
        for indel in oracles.INDEL_ORACLES:
            assert token_set_ratio(self.KEYWORD, self.LONG_PIECE) == (
                oracles.token_set_ratio_oracle(self.KEYWORD, self.LONG_PIECE, indel)
            )
        assert indel_calls == []

    def test_shared_token_with_a_short_piece(self, indel_calls):
        # Here the distance between the suffixes " betz" and " beta" wins
        # over both length ratios, so it must be computed.
        score = token_set_ratio(self.KEYWORD, self.SHORT_PIECE)
        assert score == oracles.simple_ratio_oracle(self.KEYWORD, self.SHORT_PIECE)
        assert score > oracles.simple_ratio_oracle("alpha", self.KEYWORD)
        assert len(indel_calls) == 1
        assert_matches_oracles(
            self.KEYWORD, self.SHORT_PIECE, token_set_ratio, oracles.token_set_ratio_oracle
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.text(alphabet="abcdez", min_size=2, max_size=7), min_size=1,
                 max_size=40),
        st.lists(st.text(alphabet="abcdez", min_size=1, max_size=7), min_size=1,
                 max_size=3),
        st.data(),
    )
    def test_keyword_with_a_shared_token(self, piece_tokens, extra, data):
        shared = data.draw(st.sampled_from(piece_tokens))
        keyword = " ".join([shared, *extra])
        assert_matches_oracles(
            keyword, " ".join(piece_tokens), token_set_ratio, oracles.token_set_ratio_oracle
        )


@pytest.mark.parametrize(
    "score, oracle",
    [
        (partial_ratio, oracles.partial_ratio_oracle),
        (token_set_ratio, oracles.token_set_ratio_oracle),
    ],
    ids=["partial", "token_set"],
)
@pytest.mark.parametrize("other", ["", "abc", "alpha beta", "]^-\\ 😀"])
def test_empty_side(score, oracle, other):
    assert_matches_oracles("", other, score, oracle)
    assert_indel_matches_oracles("", other)
