"""Byte goldens for the JSON the CLI writes on the six-claim bundle.

``eval --out`` (its report and six traces) and ``verify --out`` are compared
with files under ``tests/goldens/six_claims``, key order included. Two kinds
of value are masked first: each backend's ``script_path``, which names the
test's temporary directory, and the ``timing`` block, which reads the clock.
Everything else, including the layout of the JSON text, must match exactly.
"""
from __future__ import annotations

import json
from pathlib import Path

from fixture_six import CLAIMS
from claimpipe.cli import main

GOLDEN_DIR = Path(__file__).parent / "goldens" / "six_claims"
MASK = "<masked>"


def masked_text(path: Path) -> str:
    """The file's text with the run-dependent values masked; the file itself
    must be exactly the indented dump of what it holds."""
    text = path.read_text(encoding="utf-8")
    payload = json.loads(text)
    assert text == json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    for backend in payload.get("config", {}).values():
        if isinstance(backend, dict) and "script_path" in backend:
            backend["script_path"] = MASK
    if "timing" in payload:
        payload["timing"] = MASK
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def run_outputs(bundle, tmp_path: Path) -> dict[str, Path]:
    """Run ``eval --out`` and ``verify --out``; map each golden's name
    (relative to GOLDEN_DIR) to the file the run wrote."""
    common = [
        "--backend", "scripted",
        "--script", str(bundle.script_path),
        "--cache-dir", str(tmp_path / "cache"),
    ]
    eval_dir = tmp_path / "eval"
    assert main(
        [
            "eval",
            "--data-path", str(bundle.dataset_path),
            "--workers", "2",
            "--out", str(eval_dir),
            *common,
        ]
    ) == 0
    evidence = tmp_path / "evidence.json"
    evidence.write_text(
        json.dumps([{"title": t, "text": x} for t, x in CLAIMS[0]["evidence"]]),
        encoding="utf-8",
    )
    verify_dir = tmp_path / "verify"
    assert main(
        [
            "verify",
            "--claim", CLAIMS[0]["claim"],
            "--evidence", str(evidence),
            "--out", str(verify_dir),
            *common,
        ]
    ) == 0
    outputs = {"eval/report.json": eval_dir / "report.json"}
    for path in (eval_dir / "traces").glob("*.json"):
        outputs[f"eval/traces/{path.name}"] = path
    outputs["verify/verify.json"] = verify_dir / "verify.json"
    return outputs


def test_cli_json_outputs_match_goldens(six_bundle, tmp_path, capsys):
    outputs = run_outputs(six_bundle, tmp_path)
    capsys.readouterr()
    goldens = sorted(
        path.relative_to(GOLDEN_DIR).as_posix()
        for path in GOLDEN_DIR.rglob("*.json")
    )
    assert sorted(outputs) == goldens
    assert len(goldens) == 8
    for name in goldens:
        golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        assert masked_text(outputs[name]) == golden, name
