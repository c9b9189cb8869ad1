"""Labeled-example IO and annotation-set selection."""

import io
import json
import math
from datetime import datetime, timezone
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_messages, make_separable, msg, write_labels
from opinionpulse.cli import main
from opinionpulse.corpus import PLATFORMS, Message, message_to_record
from opinionpulse.exceptions import InputError
from opinionpulse.filterkit import TopicQuery
from opinionpulse.stance import (
    Hyperparams,
    LabeledExample,
    load_model,
    prepare_annotation_set,
    read_labeled_tsv,
    save_model,
    train,
)
from opinionpulse.stance.data import (
    LABEL_INDEX,
    LABELS,
    probs_dict,
    read_labeled_jsonl,
    read_paired_labels,
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
        write_labels(path, examples)
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


class TestKappaReadsLabelFilesLikeTrain:
    def kappa(self, tmp_path, first, second):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        a.write_text(first, encoding="utf-8")
        b.write_text(second, encoding="utf-8")
        return main(["kappa", "--a", str(a), "--b", str(b)])

    def test_upper_case_label_is_read_as_lower_case(self, tmp_path, capsys):
        assert self.kappa(tmp_path, "supports\tiets\nREJECTS\tanders\n",
                          "supports\tiets\nrejects\tanders\n") == 0
        assert capsys.readouterr().out.splitlines()[0] == "kappa=1.0"

    def test_empty_label_cell_names_its_line(self, tmp_path, capsys):
        assert self.kappa(tmp_path, "supports\ta\n\tb\n", "supports\ta\nother\tb\n") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a.tsv: unknown label ''")
        assert err.endswith(", line 2\n")

    @pytest.mark.parametrize("text, reason", [
        ("supprts\tx\n", "unknown label 'supprts', expected one of "
                          "('supports', 'rejects', 'other')"),
        ("supports\nrejects\n", "expected label<TAB>text"),
    ])
    def test_kappa_and_train_refuse_a_file_alike(self, text, reason, tmp_path, capsys):
        labels = tmp_path / "l.tsv"
        labels.write_text(text, encoding="utf-8")
        expected = f"error: l.tsv: {reason}, line 1\n"
        assert main(["kappa", "--a", str(labels), "--b", str(labels)]) == 2
        assert capsys.readouterr().err == expected
        assert main(["train", "--labels", str(labels), "--out", str(tmp_path / "m.bin")]) == 2
        assert capsys.readouterr().err == expected

    def test_different_texts_name_both_files_and_the_example(self, tmp_path, capsys):
        assert self.kappa(tmp_path, "supports\tx\n\nrejects\ty\nother\tz\n",
                          "supports\tx\nrejects\tanders\nother\tz\n") == 2
        assert capsys.readouterr().err == "error: a.tsv and b.tsv label different texts, example 2\n"


class TestReadPairedLabels:
    def test_labels_in_file_order(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        a.write_text("supports\tx\nrejects\ty\n", encoding="utf-8")
        b.write_text("OTHER\tx\nrejects\ty\n", encoding="utf-8")
        assert read_paired_labels(a, b) == (["supports", "rejects"], ["other", "rejects"])

    def test_a_prefix_is_left_to_kappa(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        a.write_text("supports\tx\nrejects\ty\n", encoding="utf-8")
        b.write_text("other\tx\n", encoding="utf-8")
        assert read_paired_labels(a, b) == (["supports", "rejects"], ["other"])


class TestPrepareAnnotationSet:
    def corpus(self):
        texts = [f"corona bericht {i}" for i in range(10)] + ["iets heel anders"]
        return make_messages(texts)

    def test_rate_one_keeps_every_unique_match(self):
        selected = list(prepare_annotation_set(self.corpus(), QUERY, rate=1.0, seed=1))
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

    def test_sample_larger_than_selection_names_both_numbers(self):
        msgs = iter(make_messages(["corona een", "niets", "corona twee", "corona een"]))
        with pytest.raises(ValueError, match="requested sample of 3 from population of 2"):
            prepare_annotation_set(msgs, QUERY, n=3, seed=1)

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


# characters JSON must escape, or may leave as they are
FIELD_TEXT = st.text(st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\u2028",
                                      "\U0001f600", "a", "É", " "]), min_size=1, max_size=8)
ODD_PROBS = st.lists(st.sampled_from([0.0, 5e-324, 1.0, math.nan, math.inf, -math.inf]),
                     min_size=len(LABELS), max_size=len(LABELS))


@pytest.fixture(scope="module")
def models_by_order(tmp_path_factory):
    """One trained model, loaded back under every order of its labels."""
    path = tmp_path_factory.mktemp("models") / "model.bin"
    save_model(train(make_separable(30, seed=1), Hyperparams(dim=2, epochs=1, bucket=50)), path)
    header, payload = path.read_bytes().split(b"\n", 1)
    models = {}
    for order in permutations(LABELS):
        edited = dict(json.loads(header), label_order=list(order))
        path.write_bytes(json.dumps(edited).encode("utf-8") + b"\n" + payload)
        models[order] = load_model(path)
    return models


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

    @pytest.mark.parametrize("order", list(permutations(LABELS)))
    @settings(max_examples=40, deadline=None)
    @given(msg_id=FIELD_TEXT, text=FIELD_TEXT.filter(str.strip), lang=FIELD_TEXT,
           platform=st.sampled_from(PLATFORMS), repost=st.booleans(),
           ts=st.datetimes(timezones=st.just(timezone.utc)),
           label_at=st.integers(0, len(LABELS) - 1), probs=ODD_PROBS)
    def test_record_layout(self, models_by_order, order, msg_id, text, lang, platform, repost,
                           ts, label_at, probs):
        labels = models_by_order[order].labels
        message = Message(msg_id, ts, text, lang, platform, repost)
        handle = io.StringIO()
        assert write_labeled_jsonl([(message, labels[label_at], np.array(probs))],
                                   labels, handle) == 1
        line = handle.getvalue()
        assert line.endswith("\n") and line.count("\n") == 1
        # the record json.dumps(..., ensure_ascii=False, sort_keys=True) wrote for the same triple
        expected = dict(message_to_record(message), stance=labels[label_at],
                        probs=probs_dict(labels, probs))
        record = json.loads(line)
        assert list(record) == ["id", "created_at", "text", "lang", "platform", "retweet",
                                "stance", "probs"]
        assert list(record["probs"]) == list(labels)
        # floats compare by repr, so NaN equals NaN and 5e-324 keeps its bits
        canonical = json.dumps(expected, ensure_ascii=False, sort_keys=True)
        assert json.dumps(record, ensure_ascii=False, sort_keys=True) == canonical
        assert len(line) - 1 == len(canonical)

    def test_bad_record_names_line(self, tmp_path):
        path = tmp_path / "labeled.jsonl"
        path.write_text('{"created_at": "2020-03-01T10:00:00Z", "stance": "other"}\n{"id": "x"}\n',
                        encoding="utf-8")
        with pytest.raises(InputError, match=r"labeled.jsonl: expected an object with created_at "
                                             r"and stance, line 2"):
            list(read_labeled_jsonl(path))

    def test_unknown_label_names_line(self, tmp_path):
        path = tmp_path / "lab.jsonl"
        path.write_text('{"created_at": "2020-03-01T10:00:00Z", "stance": "other"}\n\n'
                        '{"created_at": "2020-03-01T11:00:00Z", "stance": "maybe"}\n',
                        encoding="utf-8")
        with pytest.raises(InputError, match=r"^lab.jsonl: unknown stance label 'maybe', line 3$"):
            list(read_labeled_jsonl(path))
