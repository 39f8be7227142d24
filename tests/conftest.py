from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import pytest

import fixture_six
from claimpipe.llm import BackendConfig, BackendKind, prompt_sha256
from claimpipe.pipeline import ClaimInstance, EvidencePiece, PipelineConfig, Verdict
from claimpipe.prompts import PromptLibrary, format_evidence_block


@dataclass
class SixClaimBundle:
    """The frozen six-claim dataset plus a script covering its full run."""

    dataset_path: Path
    script_path: Path
    expected_macro_f1: float


def fixture_instances() -> list[ClaimInstance]:
    return [
        ClaimInstance(
            id=case["id"],
            claim=case["claim"],
            evidence=tuple(
                EvidencePiece(text=text, title=title)
                for title, text in case["evidence"]
            ),
            gold_label=Verdict.from_bool(case["gold"]),
        )
        for case in fixture_six.CLAIMS
    ]


def script_entry(prompt: str, response: str) -> dict:
    """Build a hash-keyed script entry for a known prompt."""
    return {"hash": prompt_sha256(prompt), "response": response}


def six_claim_script_entries(prompts: PromptLibrary) -> list[dict]:
    """Hash-keyed responses for every prompt the six-claim run issues.

    Subclaim verification entries cover both claim-context settings so the
    same script serves library runs and CLI runs.
    """
    entries: list[dict] = []
    for case in fixture_six.CLAIMS:
        entries.append(
            script_entry(
                prompts.render_keyword_extraction(case["claim"]), case["ke_response"]
            )
        )
        abstracted: list[str] = []
        for (_, text), selected, es_response in zip(
            case["evidence"], case["selected"], case["es_responses"]
        ):
            if len(selected) >= 2:
                entries.append(
                    script_entry(
                        prompts.render_evidence_summarization(text, selected),
                        es_response,
                    )
                )
                abstracted.append(es_response)
        entries.append(
            script_entry(
                prompts.render_claim_deconstruction(case["claim"]),
                case["cd_response"],
            )
        )
        block = format_evidence_block(
            abstracted, [text for _, text in case["evidence"]]
        )
        for subclaim, answer in zip(case["subclaims"], case["sv_answers"]):
            for with_context in (True, False):
                entries.append(
                    script_entry(
                        prompts.render_subclaim_verification(
                            block,
                            subclaim,
                            claim=case["claim"],
                            with_context=with_context,
                        ),
                        answer,
                    )
                )
    return entries


def build_six_claim_bundle(
    directory: Path, prompts: PromptLibrary
) -> SixClaimBundle:
    directory.mkdir(parents=True, exist_ok=True)
    dataset_path = directory / "six_claims.jsonl"
    with open(dataset_path, "w", encoding="utf-8") as fh:
        for case in fixture_six.CLAIMS:
            record = {
                "id": case["id"],
                "claim": case["claim"],
                "label": case["gold"],
                "evidence": [
                    {"title": title, "text": text}
                    for title, text in case["evidence"]
                ],
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    script_path = directory / "six_claims_script.json"
    script_path.write_text(
        json.dumps(six_claim_script_entries(prompts), ensure_ascii=False, indent=1),
        encoding="utf-8",
    )
    return SixClaimBundle(
        dataset_path=dataset_path,
        script_path=script_path,
        expected_macro_f1=fixture_six.EXPECTED_MACRO_F1,
    )


# One regex entry per prompt kind; responses are generic so any claim runs.
REGEX_SCRIPT_ENTRIES = [
    {"regex": r"such as important verbs", "response": "alpha, beta."},
    {"regex": r"based on specified keywords", "response": "Keyword summary line."},
    {"regex": r"based on a given claim", "response": "Claim summary line."},
    {
        "regex": r"Dissect a given claim",
        "response": "\\n #1 First part. \\n #2 Second part.",
    },
    {"regex": r"\(Yes or No\)", "response": "Yes."},
]


def write_regex_script(path: Path, entries: list[dict] | None = None) -> Path:
    path.write_text(
        json.dumps(
            entries if entries is not None else REGEX_SCRIPT_ENTRIES,
            ensure_ascii=False,
            indent=1,
        ),
        encoding="utf-8",
    )
    return path


def scripted_backend(script_path: Path | str) -> BackendConfig:
    return BackendConfig(kind=BackendKind.SCRIPTED, script_path=str(script_path))


def scripted_config(
    script_path: Path | str, with_claim_context: bool = True, **overrides
) -> PipelineConfig:
    backend = scripted_backend(script_path)
    return PipelineConfig(
        with_claim_context=with_claim_context,
        abstraction_backend=backend,
        verification_backend=backend,
        **overrides,
    )


@pytest.fixture(scope="session")
def prompt_library() -> PromptLibrary:
    return PromptLibrary.load()


@pytest.fixture
def six_bundle(tmp_path, prompt_library) -> SixClaimBundle:
    return build_six_claim_bundle(tmp_path / "bundle", prompt_library)
