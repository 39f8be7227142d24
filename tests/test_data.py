from __future__ import annotations

import json
import logging

import pytest

from claimpipe.data import (
    DataError,
    FEVEROUS_LABELS,
    HOVER_LABELS,
    LabelMap,
    dump_generic,
    load_evidence,
    load_feverous,
    load_generic,
    load_hover,
)
from claimpipe.data import write_json as write_json_output
from claimpipe.pipeline import ClaimInstance, EvidencePiece, Verdict


def write_json(path, payload):
    path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
    return path


def write_jsonl(path, records):
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
        encoding="utf-8",
    )
    return path


class TestLabelMaps:
    def test_hover(self):
        assert HOVER_LABELS.apply("SUPPORTED") is Verdict.TRUE
        assert HOVER_LABELS.apply("NOT_SUPPORTED") is Verdict.FALSE
        with pytest.raises(DataError, match="unknown label"):
            HOVER_LABELS.apply("REFUTES")

    def test_feverous(self):
        assert FEVEROUS_LABELS.apply("SUPPORTS") is Verdict.TRUE
        assert FEVEROUS_LABELS.apply("REFUTES") is Verdict.FALSE
        with pytest.raises(DataError, match="unknown label"):
            FEVEROUS_LABELS.apply("NOT ENOUGH INFO")

    def test_custom_map(self):
        label_map = LabelMap((("yes", Verdict.TRUE),))
        assert label_map.apply("yes") is Verdict.TRUE
        with pytest.raises(DataError):
            label_map.apply("no")


class TestLoadHover:
    def record(self, **overrides):
        base = {
            "uid": "h1",
            "claim": "Some claim.",
            "label": "SUPPORTED",
            "num_hops": 2,
            "evidence": [["Page A", "Sentence one."], ["Page B", "Sentence two."]],
        }
        base.update(overrides)
        return base

    def test_duplicate_ids_rejected_naming_both_records(self, tmp_path):
        # Ids compare as strings: 7 and "7" name the same trace file.
        records = [self.record(uid=7), self.record(uid="h2"), self.record(uid="7")]
        path = write_json(tmp_path / "hover.json", records)
        with pytest.raises(DataError, match=r"\[2\]: duplicate id '7'.*\[0\]"):
            load_hover(path)

    def test_pair_shape(self, tmp_path):
        path = write_json(tmp_path / "hover.json", [self.record()])
        got = load_hover(path)
        assert len(got) == 1
        assert got[0].id == "h1"
        assert got[0].gold_label is Verdict.TRUE
        assert got[0].evidence == (
            EvidencePiece(text="Sentence one.", title="Page A"),
            EvidencePiece(text="Sentence two.", title="Page B"),
        )

    def test_sentence_lists_joined(self, tmp_path):
        record = self.record(evidence=[["Page A", ["First.", "Second."]]])
        path = write_json(tmp_path / "hover.json", [record])
        got = load_hover(path)
        assert got[0].evidence[0].text == "First. Second."

    def test_same_title_grouped_in_first_seen_order(self, tmp_path):
        record = self.record(
            evidence=[
                ["Page A", "A one."],
                ["Page B", "B one."],
                ["Page A", "A two."],
            ]
        )
        path = write_json(tmp_path / "hover.json", [record])
        got = load_hover(path)
        assert got[0].evidence == (
            EvidencePiece(text="A one. A two.", title="Page A"),
            EvidencePiece(text="B one.", title="Page B"),
        )

    def test_dict_and_string_evidence_shapes(self, tmp_path):
        record = self.record(
            evidence=[{"title": "T", "text": "From dict."}, "Bare string."]
        )
        path = write_json(tmp_path / "hover.json", [record])
        got = load_hover(path)
        assert got[0].evidence == (
            EvidencePiece(text="From dict.", title="T"),
            EvidencePiece(text="Bare string.", title=None),
        )

    def test_hops_filter(self, tmp_path):
        records = [
            self.record(uid="a", num_hops=2),
            self.record(uid="b", num_hops=3),
            self.record(uid="c", num_hops=3),
        ]
        path = write_json(tmp_path / "hover.json", records)
        assert [i.id for i in load_hover(path, hops=3)] == ["b", "c"]
        assert len(load_hover(path)) == 3

    def test_hops_filter_removing_everything_is_an_error(self, tmp_path):
        path = write_json(tmp_path / "hover.json", [self.record(num_hops=2)])
        with pytest.raises(DataError, match="hops"):
            load_hover(path, hops=4)

    def test_unresolved_sentence_indices_rejected(self, tmp_path):
        record = self.record(evidence=[["Page A", [0, 2]]])
        path = write_json(tmp_path / "hover.json", [record])
        with pytest.raises(DataError, match="resolve"):
            load_hover(path)

    def test_unknown_label_rejected(self, tmp_path):
        path = write_json(tmp_path / "hover.json", [self.record(label="MAYBE")])
        with pytest.raises(DataError, match="unknown label"):
            load_hover(path)

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_hover(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        with pytest.raises(DataError, match="not valid JSON"):
            load_hover(bad)

    def test_non_array_rejected(self, tmp_path):
        path = write_json(tmp_path / "hover.json", {"claim": "x"})
        with pytest.raises(DataError, match="array"):
            load_hover(path)

    def test_missing_fields_name_the_record(self, tmp_path):
        record = self.record()
        del record["claim"]
        path = write_json(tmp_path / "hover.json", [record])
        with pytest.raises(DataError, match=r"\[0\].*claim"):
            load_hover(path)


class TestLoadFeverous:
    def record(self, **overrides):
        base = {
            "id": 11,
            "claim": "Some claim.",
            "label": "REFUTES",
            "evidence": [{"title": "Page", "text": "A sentence."}],
        }
        base.update(overrides)
        return base

    def test_duplicate_ids_rejected_naming_both_lines(self, tmp_path):
        path = write_jsonl(
            tmp_path / "fev.jsonl", [self.record(), self.record(id=12), self.record()]
        )
        with pytest.raises(DataError, match=r":3: duplicate id '11'.*line 1"):
            load_feverous(path)

    def test_basic_load(self, tmp_path):
        path = write_jsonl(tmp_path / "fev.jsonl", [self.record()])
        got = load_feverous(path)
        assert got[0].id == "11"
        assert got[0].gold_label is Verdict.FALSE
        assert got[0].evidence[0].text == "A sentence."

    def test_structured_only_records_skipped_and_counted(self, tmp_path, caplog):
        records = [
            self.record(),
            self.record(
                id=12,
                evidence=[
                    {"content": ["Page_cell_0_1_2", "Page_table_caption_0"]}
                ],
            ),
            self.record(
                id=13,
                evidence=[{"content": ["Page_item_3"]}],
            ),
        ]
        path = write_jsonl(tmp_path / "fev.jsonl", records)
        with caplog.at_level(logging.INFO, logger="claimpipe.data"):
            got = load_feverous(path)
        assert [i.id for i in got] == ["11"]
        assert "skipped 2 record(s) with structured-only evidence" in caplog.text

    def test_unresolved_sentence_ids_rejected(self, tmp_path):
        record = self.record(evidence=[{"content": ["Page_sentence_4"]}])
        path = write_jsonl(tmp_path / "fev.jsonl", [record])
        with pytest.raises(DataError, match="resolve"):
            load_feverous(path)

    def test_nei_label_rejected(self, tmp_path):
        record = self.record(label="NOT ENOUGH INFO")
        path = write_jsonl(tmp_path / "fev.jsonl", [record])
        with pytest.raises(DataError, match="unknown label"):
            load_feverous(path)

    def test_header_line_skipped(self, tmp_path):
        path = tmp_path / "fev.jsonl"
        path.write_text(
            json.dumps({"header": True})
            + "\n"
            + json.dumps(self.record())
            + "\n",
            encoding="utf-8",
        )
        got = load_feverous(path)
        assert len(got) == 1

    def test_bad_line_reports_line_number(self, tmp_path):
        path = tmp_path / "fev.jsonl"
        path.write_text(
            json.dumps(self.record()) + "\n{oops\n", encoding="utf-8"
        )
        with pytest.raises(DataError, match=":2"):
            load_feverous(path)

    def test_all_records_structured_is_an_error(self, tmp_path):
        record = self.record(evidence=[{"content": ["P_cell_0_0_0"]}])
        path = write_jsonl(tmp_path / "fev.jsonl", [record])
        with pytest.raises(DataError, match="no usable records"):
            load_feverous(path)


class TestGenericRoundTrip:
    def record(self, **overrides):
        base = {
            "id": "g1",
            "claim": "A claim.",
            "label": True,
            "evidence": [{"title": "T", "text": "Evidence text."}],
        }
        base.update(overrides)
        return base

    def test_load(self, tmp_path):
        path = write_jsonl(tmp_path / "g.jsonl", [self.record()])
        got = load_generic(path)
        assert got[0] == ClaimInstance(
            id="g1",
            claim="A claim.",
            evidence=(EvidencePiece(text="Evidence text.", title="T"),),
            gold_label=Verdict.TRUE,
        )

    def test_string_labels_any_case(self, tmp_path):
        records = [
            self.record(id="a", label="true"),
            self.record(id="b", label="False"),
        ]
        path = write_jsonl(tmp_path / "g.jsonl", records)
        got = load_generic(path)
        assert got[0].gold_label is Verdict.TRUE
        assert got[1].gold_label is Verdict.FALSE

    def test_other_labels_rejected(self, tmp_path):
        path = write_jsonl(tmp_path / "g.jsonl", [self.record(label="maybe")])
        with pytest.raises(DataError, match="label"):
            load_generic(path)

    def test_duplicate_ids_rejected_naming_both_lines(self, tmp_path):
        path = write_jsonl(
            tmp_path / "g.jsonl", [self.record(), self.record()]
        )
        with pytest.raises(DataError, match="duplicate id.*line 1"):
            load_generic(path)

    def test_empty_evidence_rejected(self, tmp_path):
        path = write_jsonl(tmp_path / "g.jsonl", [self.record(evidence=[])])
        with pytest.raises(DataError, match="no usable evidence"):
            load_generic(path)

    def test_empty_claim_rejected(self, tmp_path):
        path = write_jsonl(tmp_path / "g.jsonl", [self.record(claim="  ")])
        with pytest.raises(DataError, match="claim text is empty"):
            load_generic(path)

    def test_empty_evidence_text_rejected(self, tmp_path):
        record = self.record(evidence=[{"text": ""}])
        path = write_jsonl(tmp_path / "g.jsonl", [record])
        with pytest.raises(DataError, match="empty text"):
            load_generic(path)

    def test_round_trip_identity(self, tmp_path):
        records = [
            self.record(id="a", label=True),
            self.record(
                id="b",
                label=False,
                claim="Another claim.",
                evidence=[
                    {"title": None, "text": "Untitled piece."},
                    {"title": "T2", "text": "Titled piece."},
                ],
            ),
        ]
        path = write_jsonl(tmp_path / "g.jsonl", records)
        first = load_generic(path)
        out = tmp_path / "again.jsonl"
        dump_generic(first, out)
        second = load_generic(out)
        assert first == second

    def test_hover_to_generic_round_trip(self, tmp_path):
        hover_path = write_json(
            tmp_path / "hover.json",
            [
                {
                    "uid": "h1",
                    "claim": "C.",
                    "label": "NOT_SUPPORTED",
                    "num_hops": 2,
                    "evidence": [["Page", "Text one."]],
                }
            ],
        )
        instances = load_hover(hover_path)
        out = tmp_path / "generic.jsonl"
        dump_generic(instances, out)
        assert load_generic(out) == instances

    def test_dump_requires_gold_label(self, tmp_path):
        instance = ClaimInstance(
            id="x", claim="C.", evidence=(EvidencePiece(text="E."),)
        )
        with pytest.raises(DataError, match="gold label"):
            dump_generic([instance], tmp_path / "out.jsonl")

    def test_a_missing_gold_label_leaves_the_output_untouched(self, tmp_path):
        labelled = ClaimInstance(
            id="a", claim="C.", evidence=(EvidencePiece(text="E."),),
            gold_label=Verdict.TRUE,
        )
        unlabelled = ClaimInstance(
            id="b", claim="C.", evidence=(EvidencePiece(text="E."),)
        )
        out = tmp_path / "out.jsonl"
        out.write_text("earlier contents\n", encoding="utf-8")
        with pytest.raises(DataError, match="instance b: .*gold label"):
            dump_generic([labelled, unlabelled], out)
        assert out.read_text(encoding="utf-8") == "earlier contents\n"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="no records"):
            load_generic(path)


class TestSharedRecordRules:
    @pytest.mark.parametrize("loader", [load_hover, load_feverous, load_generic])
    def test_undecodable_file_is_a_data_error(self, tmp_path, loader):
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe[{"id": 1}]\n')
        with pytest.raises(DataError, match="cannot read"):
            loader(path)

    def test_untitled_entries_are_never_merged(self, tmp_path):
        record = {
            "uid": "h1",
            "claim": "C.",
            "label": "SUPPORTED",
            "evidence": ["a.", ["T", "x."], "a.", ["T", "y."], [None, "b."]],
        }
        path = write_json(tmp_path / "hover.json", [record])
        assert load_hover(path)[0].evidence == (
            EvidencePiece(text="a.", title=None),
            EvidencePiece(text="x. y.", title="T"),
            EvidencePiece(text="a.", title=None),
            EvidencePiece(text="b.", title=None),
        )


def surrogate_file(tmp_path, loader, field, text):
    """A file for ``loader`` of two records, the second with ``text`` in
    ``field``, and that record's reference in error messages. json.dumps
    writes a surrogate in ``text`` as a ``\\udXXX`` escape."""
    records = []
    for number in range(2):
        values = {"id": f"r{number}", "claim": "C.", "title": "T", "text": "E."}
        if number:
            values[field] = text
        uid, claim, title, body = values.values()
        if loader is load_hover:
            evidence = [[title, body]]
            records.append(
                {"uid": uid, "claim": claim, "label": "SUPPORTED", "evidence": evidence}
            )
            continue
        evidence = [{"title": title, "text": body}]
        if loader is load_feverous:
            records.append(
                {"id": uid, "claim": claim, "label": "SUPPORTS", "evidence": evidence}
            )
        elif loader is load_generic:
            records.append(
                {"id": uid, "claim": claim, "label": True, "evidence": evidence}
            )
        else:
            records.extend(evidence)
    if loader in (load_feverous, load_generic):
        path = tmp_path / "data.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), "ascii")
        return path, f"{path}:2"
    path = tmp_path / "data.json"
    path.write_text(json.dumps(records), "ascii")
    return path, f"{path}[1]"


LOADERS = {
    "hover": load_hover,
    "feverous": load_feverous,
    "generic": load_generic,
    "evidence": load_evidence,
}


class TestLoneSurrogates:
    # An evidence file holds no ids or claims.
    @pytest.mark.parametrize(
        "loader, field",
        [
            pytest.param(loader, field, id=f"{name}-{field}")
            for name, loader in LOADERS.items()
            for field in ("id", "claim", "title", "text")
            if loader is not load_evidence or field in ("title", "text")
        ],
    )
    @pytest.mark.parametrize("lone", ["\ud800", "\udfff"], ids=["high", "low"])
    def test_a_lone_surrogate_is_a_data_error_naming_the_record(
        self, tmp_path, loader, field, lone
    ):
        path, ref = surrogate_file(tmp_path, loader, field, f"half {lone} pair")
        with pytest.raises(DataError) as info:
            loader(path)
        assert str(info.value).startswith(f"{ref}: text holds a lone surrogate")

    @pytest.mark.parametrize("loader", LOADERS.values(), ids=LOADERS.keys())
    def test_a_surrogate_pair_is_one_character(self, tmp_path, loader):
        path, _ = surrogate_file(tmp_path, loader, "text", "smile \U0001f600")
        assert "\\ud83d\\ude00" in path.read_text(encoding="ascii")
        loaded = loader(path)
        pieces = loaded if loader is load_evidence else loaded[1].evidence
        assert pieces[-1].text == "smile \U0001f600"


class ReprFloat(float):
    """A float whose own text is not its number's; JSON writes the number."""

    def __repr__(self):
        return "ReprFloat()"

    __str__ = __repr__


class ReprInt(int):
    """An int whose own text is not its number's; JSON writes the number."""

    def __repr__(self):
        return "ReprInt()"

    __str__ = __repr__


def lines(*texts):
    return "".join(text + "\n" for text in texts)


class TestWriteJson:
    """Every JSON output's bytes: indented by two spaces, non-ASCII kept, and
    the literals and key spellings of Python's encoder."""

    @pytest.mark.parametrize(
        "payload, text",
        [
            ({}, lines("{}")),
            ([[], (), {"": {}}], lines(
                "[", "  [],", "  [],", "  {", '    "": {}', "  }", "]")),
            (
                {"\x00é": [True, 1, False, 0, None, 2**100, -(2**70)]},
                lines(
                    "{", '  "\\u0000é": [', "    true,", "    1,", "    false,",
                    "    0,", "    null,", "    1267650600228229401496703205376,",
                    "    -1180591620717411303424", "  ]", "}",
                ),
            ),
            (
                [-0.0, float("nan"), float("inf"), float("-inf"), 1e-7, 0.1],
                lines("[", "  -0.0,", "  NaN,", "  Infinity,", "  -Infinity,",
                      "  1e-07,", "  0.1", "]"),
            ),
            (
                {1: "a", 2.5: "b", False: "c", None: "d", float("nan"): "e"},
                lines("{", '  "1": "a",', '  "2.5": "b",', '  "false": "c",',
                      '  "null": "d",', '  "NaN": "e"', "}"),
            ),
            (
                [ReprFloat(0.5), ReprInt(3), {ReprFloat(1.5): ReprInt(-2)}],
                lines("[", "  0.5,", "  3,", "  {", '    "1.5": -2', "  }", "]"),
            ),
        ],
        ids=["empty", "nested-empty", "scalars", "floats", "key-types", "subclasses"],
    )
    def test_bytes(self, tmp_path, payload, text):
        path = tmp_path / "made" / "out.json"
        write_json_output(path, payload)
        assert path.read_bytes() == text.encode("utf-8")

    @pytest.mark.parametrize("payload", [{1, 2}, {"a": [{"b"}]}, {("k",): 1}])
    def test_unserializable_types_raise_type_error(self, tmp_path, payload):
        path = tmp_path / "out.json"
        with pytest.raises(TypeError):
            write_json_output(path, payload)
        assert not path.exists()
