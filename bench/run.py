#!/usr/bin/env python3
"""Offline benchmark of claimpipe on seeded synthetic workloads.

Runs one workload through the library's public API (``load_generic``,
``PromptLibrary.load``, ``run_eval`` / ``run_ablation_matrix`` with two
workers), checks every verdict against the outcomes planted in the
generated inputs, and prints each metric with its unit. The last line of
standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of three extra traced passes with
``--trace 1``. The exit code is 1 if any output is wrong.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload offline-long-evidence --seed 1 --seconds 40 --trace 0

Workloads: offline-long-evidence and live-stub, declared in BENCHMARK.json,
and ablate-matrix, which runs the same way but is not declared because its
timings are not steady on a shared two-vCPU host (see METRICS.md). Generated
inputs and caches live in ``.bench_work/`` and are removed after the run;
the run's ``result.json`` (and ``spans.jsonl`` with ``--trace 1``) stay.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest(package: Path) -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(package)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def parse_args(argv: list[str] | None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    package = SRC / "claimpipe"
    if not (package / "__init__.py").is_file():
        print(f"error: program sources not found at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Requests to the loopback stub must never go through a proxy.
    os.environ["NO_PROXY"] = "127.0.0.1,localhost"
    import harness  # imports claimpipe from SRC

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": harness.WORKERS,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(ROOT),
        "source_sha256": source_digest(package),
    }
    print("# " + json.dumps(meta))
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    harness.write_inputs(args.workload, args.seed, work / "inputs")

    with harness.Bench(harness.WORKLOADS[args.workload], work / "inputs", work) as bench:
        bench.setup()
        bench.run_pass()  # warm-up; its report is the reference for every pass
        untraced = bench.untraced(args.seconds)
        e2e = harness.end_to_end(bench, untraced)
        layers, reasons = {}, {}
        if args.trace:
            traced, tracer, side = bench.traced()
            reasons = harness.not_applicable(bench.workload, bench.variants)
            layers = {
                name: value
                for name, value in harness.per_layer(bench, untraced, traced, tracer, side).items()
                if name not in reasons
            }
            tracer.write(work / "spans.jsonl")
    shutil.rmtree(work / "inputs")
    gate = bench.gate

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"end-to-end metrics (tracing off; {sum(untraced.verifications)} "
          f"verifications in {len(untraced.walls)} passes, {sum(untraced.walls):.2f} s)")
    for name, value in e2e.items():
        print(f"  {name:<44} {value:>14.4f} {harness.END_TO_END[name]}")
    units = {entry["name"]: entry["unit"] for entry in declared["per_layer"]}
    if layers:
        print("per-layer metrics (traced run; * = not in BENCHMARK.json)")
        for name, value in layers.items():
            unit = units.get(name) or harness.UNDECLARED_UNITS[name]
            mark = " " if name in units else "*"
            print(f" {mark}{name:<44} {value:.4f} {unit}")
        for name, reason in reasons.items():
            print(f" *{name:<44} n/a: {reason}")
    print(f"correctness: {gate.attempted} verifications in {gate.passes} passes checked, "
          f"{gate.failed} failed")
    for problem in gate.problems:
        print(f"  FAIL {problem}")

    (work / "result.json").write_text(json.dumps({
        "meta": meta, "end_to_end": e2e, "per_layer": layers,
        "not_applicable": reasons, "correct": gate.correct,
        "problems": gate.problems, "digest": gate.digest,
        "passes": {"verifications": untraced.verifications, "wall_s": untraced.walls,
                   "cpu_s": untraced.cpus, "latency_s": untraced.latencies},
        "setup_samples_s": bench.setup_samples,
    }, indent=2, ensure_ascii=False))
    if args.trace:
        metrics = {
            entry["name"]: {"value": layers[entry["name"]], "unit": entry["unit"]}
            for entry in declared["per_layer"]
        }
    else:
        metrics = {
            entry["name"]: {"value": e2e[entry["name"]], "unit": entry["unit"]}
            for entry in declared["end_to_end"]
        }
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
