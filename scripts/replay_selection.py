#!/usr/bin/env python3
"""Replay a corpus's keyword selection in one process.

By default, generates a workload's inputs with ``bench/corpus.py`` in a
child process, as the benchmark does, and finds each claim's keywords the
way the pipeline does: the scripted reply to its keyword-extraction prompt,
parsed by ``parse_keyword_list``. With ``--text prose``, builds instead a
corpus of English prose from the standard library's ``pydoc_data.topics``
(see :func:`prose_calls`); it depends on ``--seed`` and on the Python
version alone. It then makes, per claim, the ``select_keywords`` call of
each evidence piece, with the default thresholds, in the checkout this
script belongs to, over ``--passes`` passes of the whole corpus.

Prints two lines: the SHA-256 of the ``KeywordSet``s as JSON, which is the
same for two checkouts whose selection agrees, and per-claim times in
microseconds, each claim's minimum over the passes, as mean, p50 and p90
over claims. Compare two checkouts by running each one's copy:

    python3 scripts/replay_selection.py --workload offline-long-evidence --seed 77
    python3 scripts/replay_selection.py --text prose --seed 77
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import statistics
import string
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from claimpipe.data import load_generic  # noqa: E402
from claimpipe.llm import prompt_sha256  # noqa: E402
from claimpipe.pipeline import parse_keyword_list, plain, select_keywords  # noqa: E402
from claimpipe.prompts import PromptLibrary  # noqa: E402


def write_corpus(workload: str, seed: int, directory: Path) -> None:
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "corpus.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(directory)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True, timeout=120,
    )


def selection_calls(directory: Path) -> list[tuple[list[str], list[str]]]:
    """Per claim, its keywords and the texts of its evidence pieces."""
    replies = {
        entry["hash"]: entry["response"]
        for entry in json.loads((directory / "script.json").read_text(encoding="utf-8"))
    }
    prompts = PromptLibrary.load()
    calls = []
    for instance in load_generic(directory / "dataset.jsonl"):
        prompt = prompts.render_keyword_extraction(instance.claim)
        keywords = parse_keyword_list(replies[prompt_sha256(prompt)])
        calls.append((keywords, [piece.text for piece in instance.evidence]))
    return calls


PROSE_CLAIMS = 50
PROSE_PIECES = 4
PROSE_PIECE_CHARS = 750
_WORD_RE = re.compile(r"[A-Za-z]{4,}")
_PHRASE_RE = re.compile(r"\b[A-Za-z]{4,} [A-Za-z]{4,}\b")


def prose_text() -> str:
    """The text of every ``pydoc_data.topics`` entry, in key order, without
    its indented lines (code, mostly), whitespace collapsed."""
    from pydoc_data.topics import topics

    lines = (
        line
        for key in sorted(topics)
        for line in topics[key].splitlines()
        if not line[:1].isspace()
    )
    return " ".join(" ".join(lines).split())


def _misspelt(word: str, rng: random.Random) -> str:
    """``word`` with one letter after the first replaced by another."""
    at = rng.randrange(1, len(word))
    letter = rng.choice([ch for ch in string.ascii_lowercase if ch != word[at].lower()])
    return word[:at] + letter + word[at + 1 :]


def prose_calls(seed: int) -> list[tuple[list[str], list[str]]]:
    """Per claim, six keywords and four 750-character pieces of prose.

    Each piece starts at a word of :func:`prose_text` drawn by ``seed``.
    The keywords are shaped like the paper's: two words of the claim's
    pieces, a third misspelt in one letter, a word of the next claim's
    pieces, a two-word phrase of the claim's pieces, and a phrase pairing a
    word of them with a word of the next claim's. Words have four letters
    or more.
    """
    rng = random.Random(seed)
    text = prose_text()
    claims = []
    for _ in range(PROSE_CLAIMS):
        pieces = []
        for _ in range(PROSE_PIECES):
            start = text.find(" ", rng.randrange(len(text) - 2 * PROSE_PIECE_CHARS)) + 1
            pieces.append(text[start : start + PROSE_PIECE_CHARS])
        claims.append(pieces)
    words = [_WORD_RE.findall(" ".join(pieces)) for pieces in claims]
    calls = []
    for index, pieces in enumerate(claims):
        own, other = words[index], words[(index + 1) % len(words)]
        keywords = [
            rng.choice(own),
            rng.choice(own),
            _misspelt(rng.choice(own), rng),
            rng.choice(other),
            rng.choice(_PHRASE_RE.findall(" ".join(pieces))),
            f"{rng.choice(own)} {rng.choice(other)}",
        ]
        calls.append((keywords, pieces))
    return calls


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--text", choices=("workload", "prose"), default="workload",
                        help="a benchmark workload's corpus, or prose")
    parser.add_argument("--workload", default="offline-long-evidence")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=30)
    args = parser.parse_args(argv)
    if args.text == "prose":
        calls = prose_calls(args.seed)
    else:
        with tempfile.TemporaryDirectory(prefix="replay-") as work:
            write_corpus(args.workload, args.seed, Path(work))
            calls = selection_calls(Path(work))

    fastest = [float("inf")] * len(calls)
    for _ in range(args.passes):
        sets = []
        for claim, (keywords, texts) in enumerate(calls):
            began = perf_counter()
            sets.extend(
                select_keywords(keywords, text, evidence_index=index)
                for index, text in enumerate(texts)
            )
            fastest[claim] = min(fastest[claim], perf_counter() - began)
    payload = json.dumps(plain(sets), sort_keys=True, ensure_ascii=False)
    micros = sorted(1e6 * seconds for seconds in fastest)
    print(f"keyword sets sha256 {hashlib.sha256(payload.encode('utf-8')).hexdigest()}"
          f" ({len(sets)} calls, {len(calls)} claims)")
    print(f"per-claim us, min of {args.passes} passes: mean {statistics.fmean(micros):.1f}"
          f" p50 {statistics.median(micros):.1f}"
          f" p90 {statistics.quantiles(micros, n=10)[-1]:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
