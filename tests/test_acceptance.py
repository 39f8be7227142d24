"""End-to-end guarantees of the package, one test per guarantee.

Each test prints a PASS or FAIL line on the terminal (bypassing capture)
so a run of this module reads as a checklist. Everything here is offline
and deterministic; the live-endpoint path is only checked for presence,
never executed.
"""
from __future__ import annotations

import itertools
import json
import random
import runpy
from contextlib import contextmanager
from pathlib import Path

import pytest

import oracles
from conftest import scripted_config, write_regex_script
from fixture_six import CLAIMS, EXPECTED_MACRO_F1
from claimpipe.data import load_generic
from claimpipe.evaluation import macro_f1, run_eval
from claimpipe.fuzzy import (
    indel_distance,
    partial_ratio,
    preprocess,
    simple_ratio,
    token_set_ratio,
)
from claimpipe.llm import CompletionClient, prompt_sha256
from claimpipe.pipeline import (
    Ablation,
    ClaimInstance,
    ClaimVerifier,
    EvidencePiece,
    SubclaimResult,
    Subclaim,
    Verdict,
    aggregate,
    select_keywords,
)
from claimpipe.prompts import format_evidence_block

SEED = 20260822
ALPHABET = "abcd 012"

PACKAGE_ROOT = Path(__file__).parent.parent
GOLDEN_DIR = Path(__file__).parent / "goldens"


@contextmanager
def passline(capsys, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"FAIL: {name}")
        raise
    with capsys.disabled():
        print(f"PASS: {name}")


def random_text(rng, max_length=40):
    length = rng.randint(0, max_length)
    return "".join(rng.choice(ALPHABET) for _ in range(length))


def test_fuzzy_matches_brute_force_oracles_on_seeded_corpus(capsys):
    with passline(
        capsys, "fuzzy scores match brute-force oracles on 1000 seeded pairs"
    ):
        rng = random.Random(SEED)
        for _ in range(1000):
            a = random_text(rng)
            b = random_text(rng)
            assert indel_distance(a, b) == oracles.indel_oracle(a, b)
            assert simple_ratio(a, b) == oracles.simple_ratio_oracle(a, b)
            assert partial_ratio(a, b) == oracles.partial_ratio_oracle(a, b)
            assert token_set_ratio(a, b) == oracles.token_set_ratio_oracle(a, b)


def test_fuzzy_matches_rolling_oracles_on_prose(capsys):
    with passline(capsys, "fuzzy scores match rolling-row oracles on 200 prose pairs"):
        script = PACKAGE_ROOT / "scripts" / "replay_selection.py"
        prose_calls = runpy.run_path(str(script))["prose_calls"]
        # Keyword-piece pairs in the order select_keywords meets them.
        pairs = (
            (keyword, piece)
            for keywords, pieces in prose_calls(7)
            for piece in pieces
            for keyword in keywords
        )
        indel = oracles.indel_rolling_oracle
        for keyword, piece in itertools.islice(pairs, 200):
            a, b = preprocess(keyword).normalized, preprocess(piece).normalized
            assert partial_ratio(a, b) == oracles.partial_ratio_oracle(a, b, indel)
            assert token_set_ratio(a, b) == oracles.token_set_ratio_oracle(a, b, indel)


def test_fuzzy_invariants_hold_on_seeded_corpus(capsys):
    with passline(capsys, "fuzzy invariants hold on 500+ random cases each"):
        rng = random.Random(SEED + 1)
        for _ in range(500):
            a = random_text(rng, 24)
            b = random_text(rng, 24)
            for fn in (simple_ratio, token_set_ratio):
                score = fn(a, b)
                assert score == fn(b, a)
                assert 0.0 <= score <= 100.0
            assert 0.0 <= partial_ratio(a, b) <= 100.0
            assert simple_ratio(a, a) == 100.0
            assert token_set_ratio(a, a) == 100.0
        for _ in range(500):
            # A needle embedded verbatim in a haystack scores a partial 100.
            needle = random_text(rng, 8)
            haystack = random_text(rng, 12) + needle + random_text(rng, 12)
            assert partial_ratio(needle, haystack) == 100.0
        for _ in range(500):
            # Token set comparison ignores token order and duplication.
            words = [random_text(rng, 5).replace(" ", "x") or "w" for _ in range(4)]
            left = " ".join(words)
            shuffled = words[:]
            rng.shuffle(shuffled)
            right = " ".join(shuffled + [rng.choice(words)])
            assert token_set_ratio(left, right) == 100.0


WORD_POOL = [
    "alpha", "alpa", "beta", "bet", "gamma", "gamm",
    "delta", "dleta", "epsilon", "zeta", "kettle", "spam",
]


def test_keyword_selection_is_sound_and_threshold_monotone(capsys):
    with passline(
        capsys,
        "keyword selection is score-sound and raising thresholds never adds",
    ):
        rng = random.Random(SEED + 2)
        for _ in range(200):
            count = rng.randint(1, 5)
            keywords = []
            for _ in range(count):
                phrase = " ".join(
                    rng.sample(WORD_POOL, rng.randint(1, 2))
                )
                if phrase not in keywords:
                    keywords.append(phrase)
            evidence = " ".join(
                rng.choice(WORD_POOL) for _ in range(rng.randint(3, 10))
            ) + "."

            loose = select_keywords(keywords, evidence, t1=60.0, t2=60.0)
            for entry in loose.selected:
                assert entry.partial_score > 60.0 or entry.token_set_score > 60.0

            evidence_norm = preprocess(evidence).normalized
            expected = [
                k
                for k in keywords
                if oracles.partial_ratio_oracle(
                    preprocess(k).normalized, evidence_norm
                )
                > 60.0
                or oracles.token_set_ratio_oracle(
                    preprocess(k).normalized, evidence_norm
                )
                > 60.0
            ]
            assert list(loose.keywords()) == expected

            strict = select_keywords(keywords, evidence, t1=80.0, t2=80.0)
            assert set(strict.keywords()) <= set(loose.keywords())


def test_aggregation_is_false_iff_any_subclaim_false(capsys):
    with passline(
        capsys, "aggregation over all verdict vectors up to n=4 is exact"
    ):
        for n in range(1, 5):
            for bits in itertools.product([True, False], repeat=n):
                results = [
                    SubclaimResult(
                        subclaim=Subclaim(index=i + 1, text=f"s{i + 1}"),
                        raw_answer="Yes." if bit else "No.",
                        verdict=Verdict.from_bool(bit),
                        abstained=False,
                    )
                    for i, bit in enumerate(bits)
                ]
                expected = Verdict.from_bool(all(bits))
                assert aggregate(results) is expected


SPAM_CLAIM = (
    "Spam is canned cooked meat by Hormel Foods Corporation is never used to "
    "make a popular snack and lunch food in Hawaii."
)
MUSUBI = (
    "Spam msubi is a popular snack and lunch food in Hawaii composed of a "
    "slice of grilled Spam on top of a block of rice, wrapped together with "
    "nori in the traditional of Japanese `omusubi'."
)
SUBCLAIM = "Spam is not used to make a popular snack and lunch food in Hawaii."


def test_prompt_renders_are_byte_identical_to_goldens(capsys, prompt_library):
    with passline(
        capsys, "prompt renders are byte-identical to the checked-in goldens"
    ):
        block = format_evidence_block(
            ["Spam is popular snack and lunch food in Hawaii."], [MUSUBI]
        )
        renders = {
            "keyword_extraction.golden.txt": prompt_library.render_keyword_extraction(
                "Oxygen is a chemical element with symbol O."
            ),
            "evidence_summarization.golden.txt": prompt_library.render_evidence_summarization(
                MUSUBI, ["spam", "popular snack", "lunch food", "Hawaii"]
            ),
            "claim_guided_summarization.golden.txt": prompt_library.render_claim_guided_summarization(
                MUSUBI, SPAM_CLAIM
            ),
            "claim_deconstruction.golden.txt": prompt_library.render_claim_deconstruction(
                SPAM_CLAIM
            ),
            "subclaim_verification_context.golden.txt": prompt_library.render_subclaim_verification(
                block, SUBCLAIM, claim=SPAM_CLAIM, with_context=True
            ),
            "subclaim_verification_plain.golden.txt": prompt_library.render_subclaim_verification(
                block, SUBCLAIM, with_context=False
            ),
        }
        for name, text in renders.items():
            assert text == (GOLDEN_DIR / name).read_text(encoding="utf-8")
        with_context = renders["subclaim_verification_context.golden.txt"]
        plain = renders["subclaim_verification_plain.golden.txt"]
        assert "In the saying of" in with_context
        assert "In the saying of" not in plain
        assert with_context.endswith("(Yes or No)")
        assert plain.endswith("(Yes or No)")


def test_six_claim_run_is_pinned_and_deterministic(capsys, six_bundle, prompt_library):
    with passline(
        capsys,
        "six-claim scripted run reproduces pinned verdicts and the "
        "hand-computed macro-F1, byte-identically across runs",
    ):
        instances = load_generic(six_bundle.dataset_path)
        config = scripted_config(six_bundle.script_path, with_claim_context=True)
        report = run_eval(instances, config, prompt_library)
        predicted = {row.claim_id: row.predicted.as_bool() for row in report.rows}
        for case in CLAIMS:
            assert predicted[case["id"]] is case["final"]
        assert report.counts.error_count == 0
        assert report.counts.abstain_count == 1
        assert abs(report.macro_f1 - EXPECTED_MACRO_F1) < 1e-9
        again = run_eval(instances, config, prompt_library)
        assert json.dumps(report.to_dict(include_timing=False), sort_keys=True) == (
            json.dumps(again.to_dict(include_timing=False), sort_keys=True)
        )


ABLATION_CLAIM = "alpha beta gamma."
ABLATION_EVIDENCE = ("alpha beta delta epsilon.", "alpha murmur wolf.")
KEYWORD_SUMMARY = "Keyword summary line."
CLAIM_SUMMARY = "Claim summary line."

EXPECTED_STAGES = {
    Ablation.NONE: [
        "keyword_extraction", "evidence_summarization",
        "claim_deconstruction", "subclaim_verification", "subclaim_verification",
    ],
    Ablation.NO_CLAIM_DECONSTRUCTION: [
        "keyword_extraction", "evidence_summarization", "subclaim_verification",
    ],
    Ablation.NO_EVIDENCE_ABSTRACTION: [
        "claim_deconstruction", "subclaim_verification", "subclaim_verification",
    ],
    Ablation.NO_KEYWORD_GUIDANCE: [
        "claim_guided_summarization", "claim_guided_summarization",
        "claim_deconstruction", "subclaim_verification", "subclaim_verification",
    ],
    Ablation.NO_KEYWORD_SELECTION: [
        "keyword_extraction", "evidence_summarization", "evidence_summarization",
        "claim_deconstruction", "subclaim_verification", "subclaim_verification",
    ],
    Ablation.NO_RAW_EVIDENCE: [
        "keyword_extraction", "evidence_summarization",
        "claim_deconstruction", "subclaim_verification", "subclaim_verification",
    ],
}


def run_variant(tmp_path, prompt_library, variant):
    script = write_regex_script(tmp_path / f"{variant.value}.json")
    config = scripted_config(
        script, with_claim_context=False, ablation=variant
    )
    verifier = ClaimVerifier(
        config,
        prompt_library,
        abstraction_client=CompletionClient(config.abstraction_backend),
        verification_client=CompletionClient(config.verification_backend),
    )
    instance = ClaimInstance(
        id=f"ablate-{variant.value}",
        claim=ABLATION_CLAIM,
        evidence=tuple(EvidencePiece(text=t) for t in ABLATION_EVIDENCE),
    )
    return verifier.verify_claim(instance)


def test_ablation_variants_show_their_structural_signatures(
    capsys, tmp_path, prompt_library
):
    with passline(
        capsys,
        "each ablation variant leaves its structural signature in the trace",
    ):
        reports = {
            variant: run_variant(tmp_path, prompt_library, variant)
            for variant in Ablation
        }
        for variant, report in reports.items():
            stages = [entry.stage for entry in report.trace]
            assert stages == EXPECTED_STAGES[variant], variant.value

        def sv_hash(report):
            return next(
                entry.prompt_sha256
                for entry in report.trace
                if entry.stage == "subclaim_verification"
            )

        def sv_render(abstracted, raw):
            block = format_evidence_block(abstracted, raw)
            return prompt_sha256(
                prompt_library.render_subclaim_verification(
                    block, "First part.", with_context=False
                )
            )

        # The full pipeline verifies against abstracted plus raw lines.
        assert sv_hash(reports[Ablation.NONE]) == sv_render(
            [KEYWORD_SUMMARY], list(ABLATION_EVIDENCE)
        )
        # Without raw evidence only the abstracted line remains.
        assert sv_hash(reports[Ablation.NO_RAW_EVIDENCE]) == sv_render(
            [KEYWORD_SUMMARY], []
        )
        # Without abstraction only the raw lines remain.
        assert sv_hash(reports[Ablation.NO_EVIDENCE_ABSTRACTION]) == sv_render(
            [], list(ABLATION_EVIDENCE)
        )
        # Without selection every extracted keyword reaches every summary.
        expected_es = [
            prompt_sha256(
                prompt_library.render_evidence_summarization(
                    text, ["alpha", "beta"]
                )
            )
            for text in ABLATION_EVIDENCE
        ]
        got_es = [
            entry.prompt_sha256
            for entry in reports[Ablation.NO_KEYWORD_SELECTION].trace
            if entry.stage == "evidence_summarization"
        ]
        assert got_es == expected_es
        # Without keywords the summaries are guided by the claim itself.
        expected_cgs = [
            prompt_sha256(
                prompt_library.render_claim_guided_summarization(
                    text, ABLATION_CLAIM
                )
            )
            for text in ABLATION_EVIDENCE
        ]
        got_cgs = [
            entry.prompt_sha256
            for entry in reports[Ablation.NO_KEYWORD_GUIDANCE].trace
            if entry.stage == "claim_guided_summarization"
        ]
        assert got_cgs == expected_cgs
        # Without deconstruction the whole claim is the single subclaim.
        no_cd = reports[Ablation.NO_CLAIM_DECONSTRUCTION]
        assert [r.subclaim.text for r in no_cd.results] == [ABLATION_CLAIM]


def test_macro_f1_matches_independent_confusion_computation(capsys):
    with passline(
        capsys,
        "macro-F1 matches an independent confusion-matrix computation",
    ):
        rng = random.Random(SEED + 3)
        for _ in range(100):
            n = rng.randint(1, 60)
            preds = [rng.random() < 0.5 for _ in range(n)]
            golds = [rng.random() < 0.5 for _ in range(n)]
            got = macro_f1(
                [Verdict.from_bool(p) for p in preds],
                [Verdict.from_bool(g) for g in golds],
            )
            assert abs(got - oracles.macro_f1_oracle(preds, golds)) < 1e-9
        worked = macro_f1(
            [Verdict.from_bool(b) for b in (True, False, False, False)],
            [Verdict.from_bool(b) for b in (True, True, False, False)],
        )
        assert worked == pytest.approx(73.33333333333334)
        all_wrong = macro_f1(
            [Verdict.FALSE] * 3, [Verdict.TRUE] * 3
        )
        assert all_wrong == 0.0
        fixture = macro_f1(
            [Verdict.from_bool(c["final"]) for c in CLAIMS],
            [Verdict.from_bool(c["gold"]) for c in CLAIMS],
        )
        assert abs(fixture - EXPECTED_MACRO_F1) < 1e-9


def test_live_reproduction_path_is_documented(capsys):
    with passline(
        capsys,
        "live-endpoint reproduction path exists and is documented (not run here)",
    ):
        script = PACKAGE_ROOT / "scripts" / "reproduce_live.sh"
        assert script.exists()
        assert script.stat().st_mode & 0o111, "script must be executable"
        text = script.read_text(encoding="utf-8")
        assert "--dataset hover" in text
        assert "--hops 2" in text
        assert "ENDPOINT" in text and "MODEL" in text
        readme = (PACKAGE_ROOT / "README.md").read_text(encoding="utf-8")
        assert "reproduce_live.sh" in readme
        assert "LLM_API_KEY" in readme
        demo = PACKAGE_ROOT / "scripts" / "run_scripted_demo.py"
        assert demo.exists()


def test_scripted_demo_runs_eval_and_ablate(capsys, tmp_path):
    with passline(capsys, "scripts/run_scripted_demo.py runs eval and ablate offline"):
        demo = runpy.run_path(str(PACKAGE_ROOT / "scripts" / "run_scripted_demo.py"))
        assert demo["run"](tmp_path) == 0
        # One from eval, one per ablation variant.
        assert len(list(tmp_path.rglob("report.json"))) == 7
        assert len(list((tmp_path / "ablate").glob("*/report.json"))) == 6
