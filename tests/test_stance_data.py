"""Labeled-example IO and annotation-set selection."""

import io
import json

import numpy as np
import pytest

from conftest import make_messages, msg
from opinionpulse.exceptions import InputError
from opinionpulse.filterkit import TopicQuery
from opinionpulse.stance import LabeledExample, prepare_annotation_set, read_labeled_tsv, write_labeled_tsv
from opinionpulse.stance.data import (
    LABEL_INDEX,
    LABELS,
    read_label_column,
    read_labeled_jsonl,
    write_annotation_template,
    write_labeled_jsonl,
)

QUERY = TopicQuery(name="pandemic", keywords=frozenset({"corona"}))


class TestLabeledExample:
    def test_valid(self):
        example = LabeledExample(text="corona valt mee", label="rejects")
        assert example.label == "rejects"

    def test_empty_text(self):
        with pytest.raises(ValueError, match="empty"):
            LabeledExample(text="   ", label="other")

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown label 'misschien'"):
            LabeledExample(text="x", label="misschien")

    def test_label_order_is_fixed(self):
        assert LABELS == ("supports", "rejects", "other")
        assert LABEL_INDEX == {"supports": 0, "rejects": 1, "other": 2}


class TestLabeledTsv:
    def test_round_trip(self, tmp_path):
        examples = [
            LabeledExample(text="hou vol, blijf thuis", label="supports"),
            LabeledExample(text="onzin die maatregelen", label="rejects"),
            LabeledExample(text="wat eten we vandaag", label="other"),
        ]
        path = tmp_path / "labels.tsv"
        with open(path, "w", encoding="utf-8") as handle:
            assert write_labeled_tsv(examples, handle) == 3
        assert read_labeled_tsv(path) == examples

    def test_labels_lowercased_on_read(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("SUPPORTS\tblijf thuis\n", encoding="utf-8")
        assert read_labeled_tsv(path)[0].label == "supports"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("supports\ta\n\n\nrejects\tb\n", encoding="utf-8")
        assert [e.label for e in read_labeled_tsv(path)] == ["supports", "rejects"]

    def test_text_may_contain_tabs(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("other\tlinks\trechts\n", encoding="utf-8")
        assert read_labeled_tsv(path)[0].text == "links\trechts"

    def test_missing_tab_reports_line(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("supports\ta\nrejects zonder tab\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"label<TAB>text, line 2"):
            read_labeled_tsv(path)

    def test_bad_label_reports_line(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("supports\ta\nmwah\tb\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"unknown label 'mwah'.*line 2"):
            read_labeled_tsv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="label file not found"):
            read_labeled_tsv(tmp_path / "nope.tsv")


class TestReadLabelColumn:
    def test_reads_first_column(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("supports\tiets\nREJECTS\tanders\n", encoding="utf-8")
        assert read_label_column(path) == ["supports", "rejects"]

    def test_empty_label_cell(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text("supports\ta\n\tb\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"empty label, line 2"):
            read_label_column(path)


class TestPrepareAnnotationSet:
    def corpus(self):
        texts = [f"corona bericht {i}" for i in range(10)] + ["iets heel anders"]
        return make_messages(texts)

    def test_rate_one_keeps_every_unique_match(self):
        selected = prepare_annotation_set(self.corpus(), QUERY, rate=1.0, seed=1)
        assert len(selected) == 10
        assert all("corona" in m.text for m in selected)

    def test_duplicates_removed_before_sampling(self):
        msgs = make_messages(["corona corona"] * 50 + ["corona anders"])
        selected = prepare_annotation_set(msgs, QUERY, rate=1.0, seed=1)
        assert sorted(m.text for m in selected) == ["corona anders", "corona corona"]

    def test_fixed_size_selection(self):
        selected = prepare_annotation_set(self.corpus(), QUERY, n=4, seed=9)
        assert len(selected) == 4

    def test_deterministic_under_seed(self):
        first = prepare_annotation_set(self.corpus(), QUERY, n=4, seed=9)
        second = prepare_annotation_set(self.corpus(), QUERY, n=4, seed=9)
        assert [m.id for m in first] == [m.id for m in second]

    def test_template_bytes_identical_across_runs(self):
        buffers = []
        for _ in range(2):
            selected = prepare_annotation_set(self.corpus(), QUERY, n=5, seed=3)
            buffer = io.StringIO()
            write_annotation_template(selected, buffer)
            buffers.append(buffer.getvalue())
        assert buffers[0] == buffers[1]

    def test_empty_selection_names_query(self):
        msgs = make_messages(["niets relevants", "nog steeds niets"])
        with pytest.raises(InputError, match="query 'pandemic' selected no messages"):
            prepare_annotation_set(msgs, QUERY, rate=1.0, seed=1)


class TestAnnotationTemplate:
    def test_rows_have_empty_label_column(self):
        msgs = [msg("corona hier", id="a"), msg("corona daar", id="b")]
        buffer = io.StringIO()
        assert write_annotation_template(msgs, buffer) == 2
        assert buffer.getvalue() == "\tcorona hier\n\tcorona daar\n"

    def test_template_reads_back_after_labeling(self, tmp_path):
        msgs = [msg("corona hier", id="a")]
        path = tmp_path / "todo.tsv"
        with open(path, "w", encoding="utf-8") as handle:
            write_annotation_template(msgs, handle)
        labeled = path.read_text(encoding="utf-8").replace("\t", "supports\t", 1)
        path.write_text(labeled, encoding="utf-8")
        assert read_labeled_tsv(path) == [LabeledExample(text="corona hier", label="supports")]


class TestLabeledJsonl:
    def test_round_trip_keeps_float_bits(self, tmp_path):
        labeled = [
            (msg("steun dit", id="a", ts="2020-03-01T10:00:00Z"), "supports",
             np.array([0.1 + 0.2, 1 / 3, 1 - (0.1 + 0.2) - 1 / 3])),
            (msg("onzin", id="b", ts="2020-03-02T23:00:00Z"), "rejects",
             np.array([5e-17, 1 - 5e-17, 0.0])),
        ]
        path = tmp_path / "labeled.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            assert write_labeled_jsonl(labeled, LABELS, handle) == 2
        assert list(read_labeled_jsonl(path)) == [(m.timestamp, label) for m, label, _ in labeled]
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert [r["id"] for r in records] == ["a", "b"]
        for record, (_, _, probs) in zip(records, labeled):
            assert [repr(record["probs"][label]) for label in LABELS] == [repr(float(p)) for p in probs]

    def test_bad_record_names_line(self, tmp_path):
        path = tmp_path / "labeled.jsonl"
        path.write_text('{"created_at": "2020-03-01T10:00:00Z", "stance": "other"}\n{"id": "x"}\n',
                        encoding="utf-8")
        with pytest.raises(InputError, match=r"labeled.jsonl: bad labeled record, line 2"):
            list(read_labeled_jsonl(path))
