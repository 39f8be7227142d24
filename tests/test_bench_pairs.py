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

import pytest

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


def test_a_spread_wider_than_the_bound_is_unresolved(tmp_path, capsys):
    # Baseline rates 101, 102, 103, 107: quartile distance 2.25, over 1% of the
    # median 102.5. Candidate rates 1.5 higher do not beat every baseline run.
    bounds = {"claims_per_s": 0.01}
    code, _, out = run_pairs(
        tmp_path, capsys, bad_seed=-1, rates=(100.0, 101.5), bounds=bounds
    )
    assert code == 0
    rows = {line.split()[0]: line for line in out.splitlines()}
    assert rows["claims_per_s"].endswith("4/4 UNRESOLVED")
    assert rows["claim_ms_p50"].endswith("4/4")
    # Every candidate run beats every baseline run: resolved.
    code, _, out = run_pairs(
        tmp_path / "apart", capsys, bad_seed=-1, rates=(100.0, 200.0), bounds=bounds
    )
    assert code == 0
    assert "UNRESOLVED" not in out


# A fake run whose claims_per_s per seed, and failed count, are set per side.
FAKE_CLAIM_RUN = """\
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
print(json.dumps({
    "correct": True, "attempted": 10, "failed": FAILED,
    "metrics": {"claims_per_s": {"value": RATES[int(args["--seed"])], "unit": "1/s"}},
}))
"""


def run_claim(tmp_path, capsys, baseline, candidate, failed=(0, 0), claim="claims_per_s"):
    """``--claim`` over seeds 1-10, each side's claims_per_s per seed given
    as a list; the exit code and the output's last line."""
    checkouts = []
    for side, rates, fails in zip(("a", "b"), (baseline, candidate), failed):
        directory = tmp_path / side
        (directory / "bench").mkdir(parents=True)
        table = dict(zip(range(1, 11), rates))
        (directory / "bench" / "run.py").write_text(
            f"RATES, FAILED = {table!r}, {fails}\n" + FAKE_CLAIM_RUN
        )
        metrics = [{"name": "claims_per_s", "better": "higher"}]
        (directory / "BENCHMARK.json").write_text(json.dumps({"end_to_end": metrics}))
        checkouts.append(str(directory))
    main = runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))["main"]
    code = main([*checkouts, "--workload", "w", "--seeds", "1-10", "--seconds", "1",
                 "--claim", claim])
    return code, capsys.readouterr().out.splitlines()[-1]


def test_a_claim_is_met_in_nine_tenths_of_the_pairs(tmp_path, capsys):
    # One tie, which counts for neither side.
    code, verdict = run_claim(tmp_path, capsys, [100.0] * 10, [100.0] + [200.0] * 9)
    assert code == 0
    assert verdict.startswith("claim claims_per_s: MET (won 9/10 pairs;")


def test_a_claim_won_in_fewer_pairs_is_not_met(tmp_path, capsys):
    code, verdict = run_claim(tmp_path, capsys, [100.0] * 10, [100.0] * 2 + [200.0] * 8)
    assert code == 1
    assert verdict.startswith("claim claims_per_s: NOT MET (won 8/10 pairs;")


def test_a_claim_needs_a_gain_beyond_the_baseline_quartiles(tmp_path, capsys):
    # Better in every pair, but the medians differ by less than the
    # baseline's quartile distance, 101.75 - 96.25 = 5.5.
    baseline = [90.0, 95.0, 96.0, 97.0, 98.0, 100.0, 101.0, 102.0, 102.0, 110.0]
    code, verdict = run_claim(tmp_path, capsys, baseline, [b + 1 for b in baseline])
    assert code == 1
    assert "NOT MET (won 10/10 pairs; median better by 1, baseline IQR 5.5;" in verdict


def test_a_claim_counts_in_its_metric_direction(tmp_path, capsys):
    # Worse in every pair by far more than the quartile distance.
    code, verdict = run_claim(tmp_path, capsys, [200.0] * 10, [100.0] * 10)
    assert code == 1
    assert "NOT MET (won 0/10 pairs; median better by -100," in verdict


def test_a_claim_with_a_larger_share_failed_is_not_met(tmp_path, capsys):
    code, verdict = run_claim(
        tmp_path, capsys, [100.0] * 10, [200.0] * 10, failed=(0, 1)
    )
    assert code == 1
    assert verdict.startswith("claim claims_per_s: NOT MET (won 10/10 pairs;")
    assert verdict.endswith("larger share failed)")


def test_a_claim_on_an_undeclared_metric_is_refused(tmp_path, capsys):
    with pytest.raises(SystemExit) as stop:
        run_claim(tmp_path, capsys, [100.0] * 10, [200.0] * 10, claim="speed")
    assert stop.value.code == 2
    assert "--claim speed is not an end-to-end metric" in capsys.readouterr().err
