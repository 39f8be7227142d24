"""Tests of the benchmark itself: generator, stub, gate and command.

Run from the repository root:

    python3 -m pytest -q bench
"""
from __future__ import annotations

import dataclasses
import hashlib
import http.client
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import corpus  # noqa: E402
import harness  # noqa: E402
import stub  # noqa: E402
from claimpipe.pipeline import (  # noqa: E402
    Ablation,
    Verdict,
    parse_keyword_list,
    select_keywords,
)
from claimpipe.prompts import PromptLibrary  # noqa: E402

TINY = corpus.Shape(
    claims=12, pieces=2, piece_words=(8, 16), keyword_lengths=(6, 8, 10),
    subclaims=2, variants=tuple(Ablation),
)
LONG = corpus.Shape(
    claims=6, pieces=4, piece_words=(60, 160),
    keyword_lengths=(5, 6, 7, 8, 10, 12), subclaims=3, variants=(Ablation.NONE,),
)


def _files(directory: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


def test_generator_is_deterministic_for_a_seed(tmp_path):
    prompts = PromptLibrary.load()
    written = []
    for run, seed in enumerate((7, 7, 8)):
        made = corpus.generate(TINY, seed, prompts, "tiny")
        made.write(tmp_path / str(run))
        written.append((_files(tmp_path / str(run)), made.expected))
    assert written[0] == written[1]
    assert written[0][0] != written[2][0]


@pytest.mark.parametrize("shape", [TINY, LONG], ids=["short", "long"])
def test_planted_keywords_are_exactly_the_selected_ones(shape):
    made = corpus.generate(shape, 3, PromptLibrary.load(), "plan")
    kept = dropped = 0
    for record in made.records:
        keywords = _claim_keywords(made, record)
        for piece, want in zip(record["evidence"], made.plan[record["id"]]):
            assert list(select_keywords(keywords, piece["text"]).keywords()) == want
            kept += len(want)
            dropped += len(keywords) - len(want)
    assert kept and dropped


def _claim_keywords(made: corpus.Corpus, record: dict) -> list[str]:
    """The keyword list the script answers for this claim's extraction prompt."""
    prompt = PromptLibrary.load().render_keyword_extraction(record["claim"])
    digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
    for entry in made.script:
        if entry["hash"] == digest:
            return parse_keyword_list(entry["response"])
    raise AssertionError("no keyword extraction entry")


def test_planted_verdicts_give_a_nontrivial_macro_f1():
    made = corpus.generate(
        corpus.Shape(claims=200, pieces=2, piece_words=(8, 16),
                     keyword_lengths=(6, 8, 10), subclaims=2, variants=(Ablation.NONE,)),
        5, PromptLibrary.load(), "f1",
    )
    predictions = [made.expected[r["id"]]["none"][0] for r in made.records]
    golds = [r["label"] for r in made.records]
    assert 50.0 < harness.expected_macro_f1(predictions, golds) < 100.0


def _find_prompts(faulty: bool, count: int) -> list[str]:
    found, n = [], 0
    while len(found) < count:
        prompt = f"prompt {n}"
        digest = int(hashlib.sha256(prompt.encode()).hexdigest(), 16)
        if (digest % 100 == 0) == faulty:
            found.append(prompt)
        n += 1
    return found


def _post(port: int, prompt: str) -> int:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        body = json.dumps({"messages": [{"role": "user", "content": prompt}]})
        conn.request("POST", "/v1/chat/completions", body,
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


@pytest.fixture
def server():
    faulty = _find_prompts(True, 1)
    plain = _find_prompts(False, 3)
    script = {
        hashlib.sha256(p.encode()).hexdigest(): "Yes." for p in faulty + plain
    }
    state = stub.StubState(script, base_ms=1.0, per_word_ms=0.0, fault_every=100)
    srv = stub.make_server(state)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv, state, faulty[0], plain
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_stub_fault_schedule_and_counters_are_exact(server):
    srv, state, faulty, plain = server
    port = srv.server_address[1]
    statuses = [_post(port, faulty) for _ in range(4)]
    statuses += [_post(port, p) for p in plain]
    statuses.append(_post(port, "not in the script"))
    assert statuses == [503, 200, 503, 200, 200, 200, 200, 404]
    stats = state.snapshot()
    assert stats["requests"] == 8
    assert stats["faults"] == 2
    assert stats["connections"] == 8
    assert stats["peak_inflight"] == 1
    assert len(stats["service_ms"]) == 8


def test_stub_counts_concurrent_requests_in_flight(server):
    srv, state, _, plain = server
    state.base_ms = 300.0
    threads = [
        threading.Thread(target=_post, args=(srv.server_address[1], p)) for p in plain
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert state.snapshot()["peak_inflight"] == 3
    assert state.snapshot()["peak_inflight"] == 0


def test_stub_process_reports_stats_and_stops(tmp_path):
    prompt = _find_prompts(False, 1)[0]
    entry = {"hash": hashlib.sha256(prompt.encode()).hexdigest(), "response": "Yes."}
    script = tmp_path / "script.json"
    script.write_text(json.dumps([entry]))
    with stub.StubProcess(script, 1.0, 0.0, 100) as child:
        port = int(child.url.split(":")[2].split("/")[0])
        assert _post(port, prompt) == 200
        stats = child.stats()
    assert (stats["requests"], stats["faults"], stats["connections"]) == (1, 0, 1)
    assert child.proc.returncode == 0


@pytest.fixture
def tiny_bench(tmp_path):
    corpus.generate(TINY, 11, PromptLibrary.load(), "tiny").write(tmp_path / "inputs")
    workload = harness.Workload(http=False, cache=True)
    with harness.Bench(workload, tmp_path / "inputs", tmp_path) as bench:
        bench.setup()
        yield bench


def test_gate_passes_a_correct_run_and_repeats(tiny_bench):
    tiny_bench.run_pass()
    tiny_bench.run_pass()
    gate = tiny_bench.gate
    assert gate.correct, gate.problems
    assert gate.attempted == 2 * TINY.claims * len(Ablation)
    assert gate.failed == 0
    assert not (tiny_bench.work / "out").exists()
    assert not (tiny_bench.work / "cache").exists()


def test_gate_fails_on_a_planted_wrong_verdict(tiny_bench):
    entries = json.loads(tiny_bench.script.read_text(encoding="utf-8"))
    for entry in entries:
        if entry["response"] in ("Yes.", "Unclear."):
            entry["response"] = "No."
    tiny_bench.script.write_text(json.dumps(entries, ensure_ascii=False), encoding="utf-8")
    tiny_bench.run_pass()
    assert not tiny_bench.gate.correct
    assert tiny_bench.gate.failed >= 1


def test_gate_fails_when_a_repeated_report_differs(tiny_bench):
    tiny_bench.run_pass()
    first = tiny_bench.instances[0]
    flipped = Verdict.from_bool(not first.gold_label.as_bool())
    tiny_bench.instances[0] = dataclasses.replace(first, gold_label=flipped)
    tiny_bench.run_pass()
    assert any("differs" in problem for problem in tiny_bench.gate.problems)


def _run_command(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ablate-matrix", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_declared_metric(trace):
    result = _run_command(ROOT, trace)
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 100
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    assert last["metrics"] == {
        entry["name"]: {"value": last["metrics"][entry["name"]]["value"],
                        "unit": entry["unit"]}
        for entry in section
    }
    if trace:
        saved = json.loads(
            (ROOT / ".bench_work" / "ablate-matrix-seed3" / "result.json").read_text()
        )
        names = {entry["name"] for entry in section}
        assert not set(saved["per_layer"]) & set(saved["not_applicable"])
        assert set(saved["per_layer"]) | set(saved["not_applicable"]) == (
            names | set(harness.UNDECLARED_UNITS)
        )


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = _run_command(tmp_path, 0)
    assert result.returncode != 0
    assert not result.stdout.strip()


def test_benchmark_json_names_the_harness_workloads_and_units():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} <= set(harness.WORKLOADS)
    assert list(corpus.SHAPES) == list(harness.WORKLOADS)
    for entry in declared["end_to_end"]:
        assert harness.END_TO_END[entry["name"]] == entry["unit"]


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_declared_layer_metrics_apply_to_every_workload(name):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {entry["name"] for entry in declared["per_layer"]}
    reasons = harness.not_applicable(harness.WORKLOADS[name], list(corpus.SHAPES[name].variants))
    assert not names & set(reasons)
    assert set(reasons) <= set(harness.UNDECLARED_UNITS)
