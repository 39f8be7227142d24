#!/usr/bin/env python3
"""Replay a benchmark corpus's keyword selection in one process.

Generates a workload's inputs with ``bench/corpus.py`` in a child process,
as the benchmark does, and finds each claim's keywords the way the pipeline
does: the scripted reply to its keyword-extraction prompt, parsed by
``parse_keyword_list``. It then makes, per claim, the ``select_keywords``
call of each evidence piece, with the default thresholds, in the checkout
this script belongs to, over ``--passes`` passes of the whole corpus.

Prints two lines: the SHA-256 of the ``KeywordSet``s as JSON, which is the
same for two checkouts whose selection agrees, and per-claim times in
microseconds, each claim's minimum over the passes, as mean, p50 and p90
over claims. Compare two checkouts by running each one's copy:

    python3 scripts/replay_selection.py --workload offline-long-evidence --seed 77
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="offline-long-evidence")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=30)
    args = parser.parse_args(argv)
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
