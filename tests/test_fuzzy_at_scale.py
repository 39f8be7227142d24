"""Fuzzy scores against the oracles on evidence-sized haystacks.

The strategies in ``test_fuzzy.py`` stop at a few dozen characters. Keyword
selection scores short keywords against pieces of hundreds: many tokens,
bit masks wider than a 64-bit word, and token-set lengths counted from the
piece's profile rather than from built strings. The needles mix the
piece's own tokens (the subset exit and verbatim matches), tokens from its
alphabet (an LCS run) and tokens from a disjoint alphabet (the exits for a
needle sharing no character with the piece). Dozens of one- and
two-character tokens on both sides check the count of shared spaces that
stands in for an LCS.
"""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from claimpipe.fuzzy import partial_ratio, token_set_ratio

LETTERS = "abcdeéß中Ω"
FOREIGN = "xyzЖж"
TOKEN = st.text(alphabet=LETTERS, min_size=2, max_size=8)
FOREIGN_TOKEN = st.text(alphabet=FOREIGN, min_size=1, max_size=6)
# At least 24 tokens of two or more characters: over 64 characters.
HAYSTACK_TOKENS = st.lists(TOKEN, min_size=24, max_size=40)


def needle_tokens(haystack_tokens: list[str], max_size: int):
    return st.lists(
        st.one_of(st.sampled_from(haystack_tokens), TOKEN, FOREIGN_TOKEN),
        min_size=1,
        max_size=max_size,
    )


def assert_matches_oracles(a: str, b: str, score, oracle) -> None:
    for indel in oracles.INDEL_ORACLES:
        assert score(a, b) == oracle(a, b, indel)
        assert score(b, a) == oracle(b, a, indel)


class TestLongHaystacks:
    @settings(max_examples=60, deadline=None)
    @given(HAYSTACK_TOKENS, st.data())
    def test_keyword_against_a_piece(self, haystack_tokens, data):
        haystack = " ".join(haystack_tokens)
        needle = " ".join(data.draw(needle_tokens(haystack_tokens, 3)))
        assert len(haystack) > 64
        assert_matches_oracles(
            needle, haystack, token_set_ratio, oracles.token_set_ratio_oracle
        )
        assert_matches_oracles(
            needle, haystack, partial_ratio, oracles.partial_ratio_oracle
        )

    @settings(max_examples=60, deadline=None)
    @given(HAYSTACK_TOKENS, st.data())
    def test_token_set_of_two_pieces(self, haystack_tokens, data):
        # Both sides long: many common tokens and long leftovers on each.
        haystack = " ".join(haystack_tokens)
        other = " ".join(data.draw(needle_tokens(haystack_tokens, 40)))
        assert_matches_oracles(
            other, haystack, token_set_ratio, oracles.token_set_ratio_oracle
        )

    @settings(max_examples=100, deadline=None)
    @given(
        st.sets(st.text(alphabet="0123456789", min_size=1, max_size=2), max_size=30),
        st.sets(st.text(alphabet="abcdef", min_size=1, max_size=2), max_size=30),
        st.sets(st.text(alphabet="uvwxyzé", min_size=1, max_size=2), max_size=30),
    )
    def test_token_set_leftovers_mostly_spaces(self, common, only_a, only_b):
        # Disjoint alphabets keep the three groups apart and every leftover
        # free of the other side's characters. With short tokens the spaces
        # between leftovers are a large share of the suffixes, so the count
        # of spaces they share decides the score.
        assert_matches_oracles(
            " ".join(sorted(common | only_a, reverse=True)),
            " ".join(sorted(only_b) + sorted(common)),
            token_set_ratio,
            oracles.token_set_ratio_oracle,
        )
