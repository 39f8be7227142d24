"""Seeded synthetic corpus and hash-keyed response script for the benchmark.

Every claim's keywords are planted in its evidence so that keyword selection
is known without running the fuzzy matcher:

* Common keywords are spelt from ASCII letters, like the filler text, and
  are planted in every evidence piece, either exactly or with one letter
  substituted. One substitution in a keyword of n >= 5 characters leaves
  ``partial_ratio`` at least 100 * (n - 1) / n >= 80, above the threshold
  of 60, so they are always kept.
* Rare keywords are spelt from a private set of non-ASCII letters that no
  other text of the claim uses. They are planted, exactly or misspelt, in
  some pieces and kept there. In the other pieces they share no letter and
  no token with the text, so both scores stay far below 60 and they are
  always dropped. ``_drop_bound`` checks this for every such pair.

The generator then follows each pipeline variant through its stages,
renders the prompts with the program's own ``PromptLibrary`` and scripts one
response per prompt hash. Every verdict, abstention and Macro-F1 is therefore
known before the run. Identical prompts of different variants get one
response, as a deterministic model would give.

The benchmark generates its inputs in a child process, so that the process
it measures never holds the generator's data:

    python3 bench/corpus.py --workload NAME --seed N --out DIR

writes ``dataset.jsonl``, ``script.json`` and ``expected.json`` to ``DIR``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from claimpipe.pipeline import Ablation
from claimpipe.prompts import PromptLibrary, format_evidence_block

CONSONANTS = "bdfgklmnprstv"
VOWELS = "aeiou"
# Lowercase letters whose lower() is themselves; the Greek sigma is left out
# because lowercasing gives it a word-final form.
RARE_LETTERS = "αβγδεζηθικλμνξοπρτυφχψω" + "абвгдежзийклмнопрстуфхцчшщъыьэюя"
RARE_GROUP = 9
SELECT_THRESHOLD = 60.0
MISSPELL_RATE = 0.4
RARE_PLANT_RATE = 0.35
GOLD_NOISE = 0.12
VARIANT_FLIP = 0.1
ABSTAIN_RATE = 0.05


@dataclass(frozen=True)
class Shape:
    """The inputs of one workload; ``claims`` is the size of the dataset."""

    claims: int
    pieces: int
    piece_words: tuple[int, int]
    keyword_lengths: tuple[int, ...]
    subclaims: int
    variants: tuple[Ablation, ...]


@dataclass
class Corpus:
    """Generated inputs plus the verdicts the program must reproduce.

    ``expected[claim_id][variant]`` is ``(predicted_true, abstained_subclaims)``.
    ``plan[claim_id][piece]`` lists the keywords selection must keep.
    """

    records: list[dict]
    script: list[dict]
    expected: dict[str, dict[str, tuple[bool, int]]]
    plan: dict[str, list[list[str]]]

    def write(self, directory: Path) -> None:
        """Write the generic JSONL dataset, the script and the expected outcomes."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "dataset.jsonl", "w", encoding="utf-8") as fh:
            for record in self.records:
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
        for name, payload in (("script.json", self.script), ("expected.json", self.expected)):
            (directory / name).write_text(
                json.dumps(payload, ensure_ascii=False), encoding="utf-8"
            )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _normalize(text: str) -> str:
    """The fuzzy layer's normalization: lowercase, non-alphanumerics to spaces."""
    return " ".join("".join(c if c.isalnum() else " " for c in text.lower()).split())


def _drop_bound(keyword: str, text: str) -> float:
    """Upper bound on both selection scores of ``keyword`` against ``text``.

    The longest common subsequence of two strings is at most the size of
    their multiset intersection, which bounds every indel ratio. The
    token-set score also needs the two token sets to be disjoint; if they
    are not, 100 is returned.
    """
    kw, hay = _normalize(keyword), _normalize(text)
    if len(kw) > len(hay) or set(kw.split()) & set(hay.split()):
        return 100.0
    common = sum((Counter(kw) & Counter(hay)).values())
    partial = 100.0 * common / len(kw)
    d1, d2 = " ".join(sorted(set(kw.split()))), " ".join(sorted(set(hay.split())))
    token_set = 200.0 * sum((Counter(d1) & Counter(d2)).values()) / (len(d1) + len(d2))
    return max(partial, token_set)


class _Writer:
    """Random words and sentences from one seeded generator."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.filler = sorted({self.common_word(rng.randint(2, 9)) for _ in range(400)})

    def common_word(self, length: int) -> str:
        letters = [
            self.rng.choice(CONSONANTS if i % 2 == 0 else VOWELS) for i in range(length)
        ]
        return "".join(letters)

    def phrase(self, length: int, word) -> str:
        """One word of ``length`` letters, or two words when length >= 9."""
        if length < 9:
            return word(length)
        first = length // 2
        return f"{word(first)} {word(length - first - 1)}"

    def common_keyword(self, length: int) -> str:
        return self.phrase(length, lambda n: self.common_word(n).capitalize())

    def rare_keyword(self, length: int, letters: str) -> str:
        return self.phrase(
            length, lambda n: "".join(self.rng.choice(letters) for _ in range(n))
        )

    def misspell(self, keyword: str, letters: str | None) -> str:
        """Substitute one letter, drawing from the keyword's own letter set."""
        if letters is None:
            spots = [i for i, c in enumerate(keyword) if c in VOWELS]
            pool = VOWELS
        else:
            spots = [i for i, c in enumerate(keyword) if c != " "]
            pool = letters
        spot = self.rng.choice(spots)
        new = self.rng.choice([c for c in pool if c != keyword[spot]])
        return keyword[:spot] + new + keyword[spot + 1 :]

    def words(self, count: int) -> list[str]:
        return [self.rng.choice(self.filler) for _ in range(count)]

    def sentence(self, parts: list[str]) -> str:
        text = " ".join(parts)
        return text[0].upper() + text[1:] + "."


class _Claim:
    """One claim's text, keywords, evidence and plan of kept keywords."""

    def __init__(self, writer: _Writer, shape: Shape, index: int, piece_words: list[int]):
        rng = writer.rng
        self.id = f"c{index:05d}"
        lengths = list(shape.keyword_lengths)
        rng.shuffle(lengths)
        n_common = index % 3
        groups = list(RARE_LETTERS)
        rng.shuffle(groups)
        self.keywords: list[str] = []
        self.letters: list[str | None] = []
        for k, length in enumerate(lengths):
            if k < n_common:
                letters = None
                keyword = writer.common_keyword(length)
                while keyword.lower() in (kw.lower() for kw in self.keywords):
                    keyword = writer.common_keyword(length)
            else:
                letters = "".join(groups[RARE_GROUP * k : RARE_GROUP * (k + 1)])
                keyword = writer.rare_keyword(length, letters)
            self.keywords.append(keyword)
            self.letters.append(letters)
        claim_parts: list[str] = []
        for keyword in self.keywords:
            claim_parts += writer.words(rng.randint(1, 2)) + [keyword]
        self.claim = writer.sentence(claim_parts)

        planted = [
            [k < n_common or rng.random() < RARE_PLANT_RATE for k in range(len(lengths))]
            for _ in range(shape.pieces)
        ]
        # Every claim summarizes at least one piece, so the no-raw variant
        # always has evidence to verify against.
        if not any(sum(row) >= 2 for row in planted):
            for k in range(len(lengths)):
                if sum(planted[0]) < 2:
                    planted[0][k] = True
        self.pieces: list[str] = []
        self.kept: list[list[str]] = []
        for row, count in zip(planted, piece_words):
            parts = writer.words(count)
            for k, keyword in enumerate(self.keywords):
                if row[k]:
                    form = keyword
                    if rng.random() < MISSPELL_RATE:
                        form = writer.misspell(keyword, self.letters[k])
                    parts.insert(rng.randint(0, len(parts)), form)
            text = writer.sentence(parts)
            for k, keyword in enumerate(self.keywords):
                if not row[k] and _drop_bound(keyword, text) >= SELECT_THRESHOLD:
                    raise AssertionError(f"{self.id}: {keyword!r} might be selected")
            self.pieces.append(text)
            self.kept.append([kw for kw, keep in zip(self.keywords, row) if keep])

        self.subclaims = []
        for s in range(shape.subclaims):
            pair = [self.keywords[(s + j) % len(self.keywords)] for j in range(2)]
            self.subclaims.append(
                writer.sentence([pair[0]] + writer.words(rng.randint(2, 4)) + [pair[1]])
            )
        self.truth = rng.random() < 0.5
        self.gold = self.truth != (rng.random() < GOLD_NOISE)

    def record(self) -> dict:
        return {
            "id": self.id,
            "claim": self.claim,
            "label": self.gold,
            "evidence": [{"text": text} for text in self.pieces],
        }


def _script_claim(
    claim: _Claim, shape: Shape, prompts: PromptLibrary, writer: _Writer,
    script: dict[str, str],
) -> dict[str, tuple[bool, int]]:
    """Script every prompt of every variant; return the expected outcomes."""
    rng = writer.rng

    def answer(prompt: str, response: str) -> str:
        return script.setdefault(_sha(prompt), response)

    def summary(words: list[str]) -> str:
        return writer.sentence(words + writer.words(rng.randint(3, 8)))

    expected = {}
    for variant in shape.variants:
        abstracted: list[str] = []
        if variant is Ablation.NO_KEYWORD_GUIDANCE:
            for text in claim.pieces:
                prompt = prompts.render_claim_guided_summarization(text, claim.claim)
                abstracted.append(answer(prompt, summary(claim.keywords[:1])).strip())
        elif variant is not Ablation.NO_EVIDENCE_ABSTRACTION:
            answer(
                prompts.render_keyword_extraction(claim.claim),
                ", ".join(claim.keywords) + ".",
            )
            for text, kept in zip(claim.pieces, claim.kept):
                if variant is Ablation.NO_KEYWORD_SELECTION:
                    kept = claim.keywords
                if len(kept) >= 2:
                    prompt = prompts.render_evidence_summarization(text, kept)
                    abstracted.append(answer(prompt, summary(kept[:2])).strip())
        if variant is Ablation.NO_CLAIM_DECONSTRUCTION:
            subclaims = [claim.claim]
        else:
            subclaims = claim.subclaims
            answer(
                prompts.render_claim_deconstruction(claim.claim),
                "\n".join(f"#{i} {text}" for i, text in enumerate(subclaims, 1)),
            )
        raw = [] if variant is Ablation.NO_RAW_EVIDENCE else claim.pieces
        block = format_evidence_block(abstracted, raw)

        target = claim.truth
        if variant is not Ablation.NONE and rng.random() < VARIANT_FLIP:
            target = not target
        refuted = -1 if target else rng.randrange(len(subclaims))
        replies = []
        for position, subclaim in enumerate(subclaims):
            if position == refuted:
                planned = "No."
            else:
                planned = "Unclear." if rng.random() < ABSTAIN_RATE else "Yes."
            prompt = prompts.render_subclaim_verification(block, subclaim, claim=claim.claim)
            replies.append(answer(prompt, planned))
        expected[variant.value] = ("No." not in replies, replies.count("Unclear."))
    return expected


def _piece_lengths(rng: random.Random, shape: Shape, slots: int) -> list[int]:
    """Evenly spaced evidence lengths, shuffled, so every dataset has the
    same total amount of evidence whatever the seed."""
    low, high = shape.piece_words
    grid = [round(low + (high - low) * i / max(1, slots - 1)) for i in range(slots)]
    rng.shuffle(grid)
    return grid


def generate(shape: Shape, seed: int, prompts: PromptLibrary, name: str) -> Corpus:
    """Build the corpus of one workload; the same seed gives the same bytes."""
    rng = random.Random(f"{name}:{seed}")
    writer = _Writer(rng)
    lengths = _piece_lengths(rng, shape, shape.claims * shape.pieces)
    records: list[dict] = []
    script: dict[str, str] = {}
    expected: dict[str, dict[str, tuple[bool, int]]] = {}
    plan: dict[str, list[list[str]]] = {}
    for index in range(shape.claims):
        own = lengths[index * shape.pieces : (index + 1) * shape.pieces]
        claim = _Claim(writer, shape, index, own)
        records.append(claim.record())
        plan[claim.id] = claim.kept
        expected[claim.id] = _script_claim(claim, shape, prompts, writer, script)
    return Corpus(
        records=records,
        script=[{"hash": h, "response": r} for h, r in script.items()],
        expected=expected,
        plan=plan,
    )


# Dataset sizes are chosen so that one pass over the dataset takes about
# four seconds on two cores, and a 40-second run makes about ten passes.
SHAPES = {
    "offline-long-evidence": Shape(
        claims=32, pieces=4, piece_words=(60, 160),
        keyword_lengths=(5, 6, 7, 8, 10, 12), subclaims=3, variants=(Ablation.NONE,),
    ),
    "live-stub": Shape(
        claims=40, pieces=3, piece_words=(15, 30),
        keyword_lengths=(5, 7, 9, 11), subclaims=3, variants=(Ablation.NONE,),
    ),
    "ablate-matrix": Shape(
        claims=160, pieces=2, piece_words=(8, 16),
        keyword_lengths=(6, 8, 10), subclaims=2, variants=tuple(Ablation),
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write one workload's inputs.")
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    made = generate(SHAPES[args.workload], args.seed, PromptLibrary.load(), args.workload)
    made.write(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
