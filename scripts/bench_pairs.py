#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload with alternating pairs.

For each seed, runs ``python3 bench/run.py --workload W --seed S --seconds N
--trace 0`` once in each checkout, alternating which side goes first, and
reads the JSON object on the last line of each run's standard output. Then
prints, per end-to-end metric, each side's median and quartiles, the change
of the median, whether it exceeds the baseline's quartile distance, and the
number of pairs the candidate won (the direction comes from the baseline's
BENCHMARK.json). A row ends in ``REGRESSION`` when the candidate median is
worse than the baseline median by more than the metric's ``bound`` there, a
fraction of the baseline median. It ends in ``UNRESOLVED`` when the
baseline's own quartile distance is wider than that bound, so that the runs
cannot tell a change within it from noise, unless every candidate run is
better than every baseline run. A metric without a bound is never marked.
Last, it prints each side's ``failed`` and ``attempted`` verifications,
summed over the runs' result lines.

``--claim METRIC`` names an end-to-end metric that the candidate claims to
improve, and adds a last line saying whether the claim is ``MET``. It is
met when the candidate is better in at least nine tenths of all the pairs
run, ties and pairs missing the metric counting for neither; its median is
better than the baseline's, in the metric's direction, by more than the
distance between the baseline's quartiles; and no larger share of its
verifications failed.

Usage, from anywhere:

    python3 scripts/bench_pairs.py BASELINE_DIR CANDIDATE_DIR \\
        --workload offline-long-evidence --seeds 101-110 --seconds 40

``--seeds`` takes comma-separated seeds and ``a-b`` ranges. The exit code is
1 if any run fails or fails its correctness gate, any row is marked
``REGRESSION``, or a claim is not met, and 0 otherwise.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.strip().partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds given")
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its last output line, with ``ok`` set when the run
    exited 0 and its correctness gate passed."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"metrics": {}}
    result["ok"] = proc.returncode == 0 and result.get("correct") is True
    if not result["ok"]:
        print(f"  FAIL {checkout} seed {seed}: exit {proc.returncode}\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
    return result


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and the first and third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def text(stats: tuple[float, float, float]) -> str:
    return f"{stats[0]:.4g} [{stats[1]:.4g}, {stats[2]:.4g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="checkout to compare against")
    parser.add_argument("candidate", type=Path, help="checkout under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="seeds, e.g. 101-110 or 5,7,9; one pair each")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--claim", metavar="METRIC",
                        help="end-to-end metric the candidate claims to improve")
    args = parser.parse_args(argv)
    sides = {"baseline": args.baseline.resolve(), "candidate": args.candidate.resolve()}
    declared = json.loads((sides["baseline"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {entry["name"]: entry["better"] for entry in declared["end_to_end"]}
    bound = {entry["name"]: entry.get("bound") for entry in declared["end_to_end"]}
    if args.claim is not None and args.claim not in better:
        parser.error(f"--claim {args.claim} is not an end-to-end metric of "
                     f"{sides['baseline'] / 'BENCHMARK.json'}")

    pairs: list[dict[str, dict]] = []
    for number, seed in enumerate(args.seeds):
        order = list(sides) if number % 2 == 0 else list(reversed(sides))
        pair = {side: run_once(sides[side], args.workload, seed, args.seconds)
                for side in order}
        pairs.append(pair)
        claims = {side: pair[side]["metrics"].get("claims_per_s", {}).get("value")
                  for side in sides}
        print(f"seed {seed} ({order[0]} first): claims_per_s {claims}",
              file=sys.stderr, flush=True)

    print(f"{args.workload}: {len(pairs)} pairs, {args.seconds:g} s per run; "
          f"baseline {sides['baseline']}, candidate {sides['candidate']}")
    print(f"{'metric':<14} {'baseline median [q1, q3]':<30} "
          f"{'candidate median [q1, q3]':<30} {'change':>8} {'>IQR':>5} {'won':>6}")
    regressed = []
    # Pairs won, the median's gain and the baseline's quartile distance for
    # the claimed metric; none won and no gain when no pair has it.
    claimed = (0, float("nan"), float("nan"))
    for name, direction in better.items():
        complete = [pair for pair in pairs
                    if all(name in pair[side]["metrics"] for side in sides)]
        if not complete:
            continue
        value = {side: [pair[side]["metrics"][name]["value"] for pair in complete]
                 for side in sides}
        base, cand = summary(value["baseline"]), summary(value["candidate"])
        sign = 1 if direction == "higher" else -1
        won = sum(sign * (c - b) > 0
                  for b, c in zip(value["baseline"], value["candidate"]))
        change = (cand[0] - base[0]) / base[0] * 100 if base[0] else float("nan")
        beyond = "yes" if abs(cand[0] - base[0]) > base[2] - base[1] else "no"
        limit = bound[name]
        worse = limit is not None and sign * (cand[0] - base[0]) < -limit * abs(base[0])
        if worse:
            regressed.append(name)
        unresolved = (
            limit is not None
            and base[2] - base[1] > limit * abs(base[0])
            and not all(sign * (c - b) > 0
                        for b in value["baseline"] for c in value["candidate"])
        )
        print(f"{name:<14} {text(base):<30} {text(cand):<30} {change:>+7.1f}% "
              f"{beyond:>5} {won:>3}/{len(complete)}"
              + (f" REGRESSION (bound {limit:.0%})" if worse else "")
              + (" UNRESOLVED" if unresolved else ""))
        if name == args.claim:
            claimed = won, sign * (cand[0] - base[0]), base[2] - base[1]
    totals = {side: [sum(pair[side].get(field, 0) for pair in pairs)
                     for field in ("failed", "attempted")]
              for side in sides}
    print(f"failed/attempted: baseline {'/'.join(map(str, totals['baseline']))}, "
          f"candidate {'/'.join(map(str, totals['candidate']))}")
    failed = [(side, seed) for pair, seed in zip(pairs, args.seeds)
              for side in sides if not pair[side]["ok"]]
    for side, seed in failed:
        print(f"FAILED: {side} seed {seed}")
    unmet = False
    if args.claim is not None:
        won, gain, spread = claimed
        (base_failed, base_tried), (cand_failed, cand_tried) = (
            totals["baseline"], totals["candidate"])
        more_failed = cand_failed * base_tried > base_failed * cand_tried
        unmet = won * 10 < 9 * len(pairs) or not gain > spread or more_failed
        print(f"claim {args.claim}: {'NOT MET' if unmet else 'MET'} "
              f"(won {won}/{len(pairs)} pairs; median better by {gain:.4g}, "
              f"baseline IQR {spread:.4g}; "
              f"{'larger' if more_failed else 'no larger'} share failed)")
    return 1 if failed or regressed or unmet else 0


if __name__ == "__main__":
    sys.exit(main())
