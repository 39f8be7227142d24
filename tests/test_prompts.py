from __future__ import annotations

from pathlib import Path

import pytest

from claimpipe.prompts import (
    _SLOT_RE,
    FewShotExample,
    PromptError,
    PromptLibrary,
    PromptTask,
    PromptTemplate,
    format_evidence_block,
    format_keyword_list,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"

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


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


class TestGoldenRenders:
    def test_keyword_extraction(self, prompt_library):
        got = prompt_library.render_keyword_extraction(
            "Oxygen is a chemical element with symbol O."
        )
        assert got == golden("keyword_extraction.golden.txt")

    def test_evidence_summarization(self, prompt_library):
        got = prompt_library.render_evidence_summarization(
            MUSUBI, ["spam", "popular snack", "lunch food", "Hawaii"]
        )
        assert got == golden("evidence_summarization.golden.txt")

    def test_claim_guided_summarization(self, prompt_library):
        got = prompt_library.render_claim_guided_summarization(MUSUBI, SPAM_CLAIM)
        assert got == golden("claim_guided_summarization.golden.txt")

    def test_claim_deconstruction(self, prompt_library):
        got = prompt_library.render_claim_deconstruction(SPAM_CLAIM)
        assert got == golden("claim_deconstruction.golden.txt")

    def test_subclaim_verification_with_context(self, prompt_library):
        block = format_evidence_block(
            ["Spam is popular snack and lunch food in Hawaii."], [MUSUBI]
        )
        got = prompt_library.render_subclaim_verification(
            block, SUBCLAIM, claim=SPAM_CLAIM, with_context=True
        )
        assert got == golden("subclaim_verification_context.golden.txt")

    def test_subclaim_verification_without_context(self, prompt_library):
        block = format_evidence_block(
            ["Spam is popular snack and lunch food in Hawaii."], [MUSUBI]
        )
        got = prompt_library.render_subclaim_verification(
            block, SUBCLAIM, with_context=False
        )
        assert got == golden("subclaim_verification_plain.golden.txt")

    def test_rendering_is_deterministic(self, prompt_library):
        first = prompt_library.render_claim_deconstruction(SPAM_CLAIM)
        second = prompt_library.render_claim_deconstruction(SPAM_CLAIM)
        assert first == second


class TestTemplateContent:
    def test_verification_prompt_cues(self, prompt_library):
        got = prompt_library.render_subclaim_verification(
            "- a line", "X happened", claim="C happened", with_context=True
        )
        assert got.startswith("Given golden evidence:\n")
        assert "In the saying of C happened. " in got
        assert got.endswith("Is it true that X happened? (Yes or No)")

    def test_context_segment_absent_by_default(self, prompt_library):
        got = prompt_library.render_subclaim_verification("- a line", "X happened")
        assert "In the saying of" not in got

    def test_generation_prompts_end_with_output_cue(self, prompt_library):
        renders = [
            prompt_library.render_keyword_extraction("A claim."),
            prompt_library.render_evidence_summarization("Evidence.", ["a", "b"]),
            prompt_library.render_claim_guided_summarization("Evidence.", "A claim."),
            prompt_library.render_claim_deconstruction("A claim."),
        ]
        for prompt in renders:
            assert prompt.endswith("Output:")

    def test_examples_precede_the_query(self, prompt_library):
        got = prompt_library.render_keyword_extraction("Fresh input claim.")
        first_example = got.index("Input: Spam is canned cooked meat")
        query = got.index("Input: Fresh input claim.")
        assert first_example < query

    def test_deconstruction_examples_keep_literal_backslash_markers(
        self, prompt_library
    ):
        got = prompt_library.render_claim_deconstruction("A claim.")
        # The demonstrations separate statements with a literal backslash-n.
        assert "\\n #1 " in got
        assert "\\n #2 " in got

    def test_keyword_slot_format(self, prompt_library):
        got = prompt_library.render_evidence_summarization(
            "Some evidence.", ["alpha", "beta gamma"]
        )
        assert "\nKeywords: alpha, beta gamma.\n" in got


class TestSlotHandling:
    def test_single_pass_substitution(self, prompt_library):
        # Slot-like text inside values must come through literally.
        got = prompt_library.render_claim_deconstruction("About {{examples}} here.")
        assert "Claim: About {{examples}} here." in got

    def test_missing_slot_raises(self):
        template = PromptTemplate(
            task=PromptTask.KEYWORD_EXTRACTION, body="A {{claim}} B {{other}}"
        )
        with pytest.raises(PromptError, match="missing slots"):
            template.render(claim="x")

    def test_unknown_slot_raises(self):
        template = PromptTemplate(
            task=PromptTask.KEYWORD_EXTRACTION, body="A {{claim}} B"
        )
        with pytest.raises(PromptError, match="unknown slots"):
            template.render(claim="x", bogus="y")

    def test_empty_claim_rejected(self, prompt_library):
        with pytest.raises(PromptError):
            prompt_library.render_keyword_extraction("   ")
        with pytest.raises(PromptError):
            prompt_library.render_claim_deconstruction("")

    def test_too_few_keywords_rejected(self, prompt_library):
        with pytest.raises(PromptError):
            prompt_library.render_evidence_summarization("Evidence.", ["only one"])

    def test_context_without_claim_rejected(self, prompt_library):
        with pytest.raises(PromptError):
            prompt_library.render_subclaim_verification(
                "- a line", "X", with_context=True
            )

    def test_empty_subclaim_and_block_rejected(self, prompt_library):
        with pytest.raises(PromptError):
            prompt_library.render_subclaim_verification("", "X")
        with pytest.raises(PromptError):
            prompt_library.render_subclaim_verification("- a line", "  ")


# Slot markers, regex replacement escapes and format specifiers, none of
# which a slot value may expand into anything but itself.
ADVERSARIAL_VALUES = ["{{claim}}", "{{examples}}", "\\1", "\\g<0>", "%s", "{}"]


def substituted(library, task, **values):
    """``task``'s prompt by one regex substitution over its body, with the
    task's examples joined into ``{{examples}}``."""
    template = library.template(task)
    examples = "\n".join(example.render() for example in template.examples)
    filled = {"examples": examples, **values}
    return _SLOT_RE.sub(lambda match: filled[match.group(1)], template.body)


class TestRenderer:
    @pytest.mark.parametrize("value", ADVERSARIAL_VALUES)
    def test_every_render_method_equals_a_substitution(self, prompt_library, value):
        lib, text = prompt_library, f"{value} and {value}"
        keywords = [value, text]
        renders = [
            (
                lib.render_keyword_extraction(value),
                substituted(lib, PromptTask.KEYWORD_EXTRACTION, claim=value),
            ),
            (
                lib.render_evidence_summarization(text, keywords),
                substituted(
                    lib,
                    PromptTask.EVIDENCE_SUMMARIZATION,
                    evidence=text,
                    keywords=format_keyword_list(keywords),
                ),
            ),
            (
                lib.render_claim_guided_summarization(text, value),
                substituted(
                    lib, PromptTask.CLAIM_GUIDED_SUMMARIZATION, evidence=text, claim=value
                ),
            ),
            (
                lib.render_claim_deconstruction(text),
                substituted(lib, PromptTask.CLAIM_DECONSTRUCTION, claim=text),
            ),
        ]
        for with_context, context in ((False, ""), (True, f"In the saying of {text}. ")):
            renders.append(
                (
                    lib.render_subclaim_verification(
                        f"- {value}", value, claim=text, with_context=with_context
                    ),
                    substituted(
                        lib,
                        PromptTask.SUBCLAIM_VERIFICATION,
                        evidence=f"- {value}",
                        claim_context=context,
                        subclaim=value,
                    ),
                )
            )
        for got, expected in renders:
            assert got.encode("utf-8") == expected.encode("utf-8")
            assert value in got


class TestHelpers:
    def test_format_keyword_list(self):
        assert format_keyword_list(["a", "b c"]) == "a, b c."
        with pytest.raises(PromptError):
            format_keyword_list([])

    def test_format_evidence_block_order(self):
        block = format_evidence_block(["abstract one"], ["raw one", "raw two"])
        assert block == "- abstract one\n- raw one\n- raw two"
        with pytest.raises(PromptError):
            format_evidence_block([], [])

    def test_few_shot_example_render(self):
        example = FewShotExample(
            input_fields=(("Input", "X"), ("Keywords", "a, b.")), output="Y"
        )
        assert example.render() == "Input: X\nKeywords: a, b.\nOutput: Y"


class TestLibraryLoading:
    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(PromptError, match="not found"):
            PromptLibrary.load(tmp_path / "nope")

    def test_load_missing_template_file(self, tmp_path):
        (tmp_path / "keyword_extraction.txt").write_text("x {{claim}}")
        with pytest.raises(PromptError, match="missing template file"):
            PromptLibrary.load(tmp_path)

    def test_custom_directory_overrides_default(self, tmp_path, prompt_library):
        for task in PromptTask:
            (tmp_path / f"{task.value}.txt").write_text(
                "CUSTOM {{claim}}"
                if "claim" in prompt_library.template(task).slots()
                and task is PromptTask.CLAIM_DECONSTRUCTION
                else prompt_library.template(task).body,
                encoding="utf-8",
            )
        library = PromptLibrary.load(tmp_path)
        got = library.render_claim_deconstruction("A claim.")
        assert got == "CUSTOM A claim."

    def test_trailing_newlines_stripped_at_load(self, prompt_library):
        for task in PromptTask:
            assert not prompt_library.template(task).body.endswith("\n")

    def test_verification_template_is_zero_shot(self, prompt_library):
        assert prompt_library.template(PromptTask.SUBCLAIM_VERIFICATION).examples == []

    def test_generation_templates_have_examples(self, prompt_library):
        for task in (
            PromptTask.KEYWORD_EXTRACTION,
            PromptTask.EVIDENCE_SUMMARIZATION,
            PromptTask.CLAIM_GUIDED_SUMMARIZATION,
            PromptTask.CLAIM_DECONSTRUCTION,
        ):
            assert len(prompt_library.template(task).examples) >= 2
