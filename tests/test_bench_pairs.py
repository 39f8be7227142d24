"""``scripts/bench_pairs.py`` against two fake checkouts.

Each fake ``bench/run.py`` appends its side and seed to a shared log and
prints a result line whose metrics depend on the side, so the test checks
the run order, the summary, the bound marks and the exit code without
running the real benchmark.
"""
from __future__ import annotations

import json
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAKE_RUN = """\
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
with open(LOG, "a") as log:
    log.write(f"{SIDE} {seed}\\n")
print("# meta line")
print(json.dumps({
    "correct": seed != BAD_SEED, "attempted": 4, "failed": int(seed == BAD_SEED),
    "metrics": {"claims_per_s": {"value": RATE + seed, "unit": "1/s"},
                "claim_ms_p50": {"value": 1000.0 / (RATE + seed), "unit": "ms"}},
}))
sys.exit(0 if seed != BAD_SEED else 1)
"""


def fake_checkout(
    directory: Path, side: str, rate: float, log: Path, bad_seed: int, bounds: dict
) -> Path:
    (directory / "bench").mkdir(parents=True)
    (directory / "bench" / "run.py").write_text(
        f"LOG, SIDE, RATE, BAD_SEED = {str(log)!r}, {side!r}, {rate}, {bad_seed}\n"
        + FAKE_RUN
    )
    metrics = [
        {"name": "claims_per_s", "better": "higher"},
        {"name": "claim_ms_p50", "better": "lower"},
    ]
    for metric in metrics:
        if metric["name"] in bounds:
            metric["bound"] = bounds[metric["name"]]
    (directory / "BENCHMARK.json").write_text(json.dumps({"end_to_end": metrics}))
    return directory


def run_pairs(tmp_path, capsys, bad_seed, rates=(100.0, 200.0), bounds=None):
    log, bounds = tmp_path / "order.log", bounds or {}
    baseline = fake_checkout(tmp_path / "a", "baseline", rates[0], log, bad_seed, bounds)
    candidate = fake_checkout(tmp_path / "b", "candidate", rates[1], log, bad_seed, bounds)
    main = runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))["main"]
    code = main([str(baseline), str(candidate), "--workload", "w",
                 "--seeds", "1-3,7", "--seconds", "1"])
    return code, log.read_text().split("\n")[:-1], capsys.readouterr().out


def test_alternates_order_and_counts_wins(tmp_path, capsys):
    code, order, out = run_pairs(tmp_path, capsys, bad_seed=-1)
    assert code == 0
    assert order == [
        "baseline 1", "candidate 1", "candidate 2", "baseline 2",
        "baseline 3", "candidate 3", "candidate 7", "baseline 7",
    ]
    rows = {line.split()[0]: line for line in out.splitlines()}
    # Baseline rates 101, 102, 103, 107: median 102.5, quartiles 101.75 and 104.
    assert "102.5 [101.8, 104]" in rows["claims_per_s"]
    assert rows["claims_per_s"].endswith("yes   4/4")
    assert rows["claim_ms_p50"].endswith("yes   4/4")


def test_failed_gate_exits_nonzero(tmp_path, capsys):
    code, _, out = run_pairs(tmp_path, capsys, bad_seed=2)
    assert code == 1
    assert "FAILED: baseline seed 2" in out
    assert "FAILED: candidate seed 2" in out


def test_counts_failed_and_attempted_per_side(tmp_path, capsys):
    _, _, out = run_pairs(tmp_path, capsys, bad_seed=2)
    assert "failed/attempted: baseline 1/16, candidate 1/16" in out.splitlines()


def test_marks_a_metric_worse_than_its_bound(tmp_path, capsys):
    # Candidate rates 101, 102, 103, 107 against 201, 202, 203, 207: about 49%
    # fewer claims per second and twice the time per claim.
    code, _, out = run_pairs(
        tmp_path, capsys, bad_seed=-1, rates=(200.0, 100.0),
        bounds={"claims_per_s": 0.25, "claim_ms_p50": 1.5},
    )
    assert code == 1
    rows = {line.split()[0]: line for line in out.splitlines()}
    assert rows["claims_per_s"].endswith("0/4 REGRESSION (bound 25%)")
    assert rows["claim_ms_p50"].endswith("0/4")
    assert "failed/attempted: baseline 0/16, candidate 0/16" in out.splitlines()


def test_within_the_bound_or_without_one_is_not_marked(tmp_path, capsys):
    code, _, out = run_pairs(
        tmp_path, capsys, bad_seed=-1, rates=(200.0, 190.0),
        bounds={"claims_per_s": 0.25},
    )
    assert code == 0
    assert "REGRESSION" not in out
    code, _, out = run_pairs(tmp_path / "unbounded", capsys, bad_seed=-1, rates=(200.0, 100.0))
    assert code == 0
    assert "REGRESSION" not in out
