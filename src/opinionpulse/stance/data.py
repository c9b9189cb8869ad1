"""Labeled examples, label-file IO and annotation-set preparation.

Label files are TSV, one example per line: label<TAB>text, labels
lowercase. Annotation templates are the same format with an empty label
column, ready for a human to fill in, and a line break in a text as a space.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ..constants import LABELS
from ..corpus import Message, dedup, parse_timestamp, record_members, sample
from ..exceptions import InputError, input_lines, json_loads

if TYPE_CHECKING:  # an annotation only: kappa, train and predict need no filterkit
    from ..filterkit import TopicQuery

LABEL_INDEX = {label: i for i, label in enumerate(LABELS)}


@dataclass(frozen=True)
class LabeledExample:
    text: str
    label: str

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError("example text is empty")
        if self.label not in LABELS:
            raise ValueError(f"unknown label {self.label!r}, expected one of {LABELS}")


def read_labeled_tsv(path) -> list[LabeledExample]:
    """Read label<TAB>text lines; blank lines are skipped."""
    examples = []
    with input_lines(path, "label") as lines:
        for line in lines:
            line = line.rstrip("\r\n")
            if not line.strip():
                continue
            parts = line.split("\t", 1)
            if len(parts) != 2:
                raise ValueError("expected label<TAB>text")
            examples.append(LabeledExample(text=parts[1], label=parts[0].strip().lower()))
    return examples


def read_paired_labels(path_a, path_b) -> tuple[list[str], list[str]]:
    """Two annotators' labels for the same texts in the same order; kappa checks the lengths."""
    a, b = read_labeled_tsv(path_a), read_labeled_tsv(path_b)
    for number, (x, y) in enumerate(zip(a, b), start=1):
        if x.text != y.text:
            raise InputError(f"{Path(path_a).name} and {Path(path_b).name} label different "
                             f"texts, example {number}")
    return [e.label for e in a], [e.label for e in b]


def prepare_annotation_set(
    msgs: Iterable[Message],
    query: TopicQuery,
    *,
    rate: float | None = None,
    n: int | None = None,
    seed: int,
) -> Iterable[Message]:
    """Select messages for manual labeling: filter, dedup by text, sample.

    Deterministic under a fixed seed; fails if the query matches nothing.
    Like ``corpus.sample``, returns a list for ``n`` and a one-pass iterator for ``rate``.
    """
    on_topic = (m for m in msgs if query.matches(m.text))
    unique = dedup(on_topic, mode="by_exact_text")
    first = next(unique, None)
    if first is None:
        raise InputError(f"query {query.name!r} selected no messages")
    return sample(chain([first], unique), rate=rate, n=n, seed=seed)


def write_annotation_template(msgs: Iterable[Message], handle) -> int:
    """Emit empty-label TSV rows for annotators, one line per message; return the count."""
    count = 0
    for count, msg in enumerate(msgs, start=1):
        text = msg.text.replace("\r\n", " ").replace("\r", " ").replace("\n", " ")
        handle.write(f"\t{text}\n")
    return count


def probs_dict(labels: Sequence[str], probs) -> dict:
    """Class probabilities keyed by label, as plain floats."""
    return {label: float(p) for label, p in zip(labels, probs)}


def write_labeled_jsonl(labeled: Iterable, labels: Sequence[str], handle) -> int:
    """Write (Message, label, probs) triples, one JSON record per line: the message's
    ``record_members``, then ``"stance"`` and ``"probs"``, the probabilities in ``labels`` order."""
    count = 0
    for msg, label, probs in labeled:
        handle.write(f'{{{record_members(msg)}, "stance": {json.dumps(label)}, '
                     f'"probs": {json.dumps(probs_dict(labels, probs))}}}\n')
        count += 1
    return count


def read_labeled_jsonl(path) -> Iterator:
    """Replay predict output as (timestamp, stance) pairs."""
    with input_lines(path, "labeled JSONL") as lines:
        for line in lines:
            line = line.strip()
            if not line:
                continue
            record = json_loads(line)
            if not isinstance(record, dict) or not record.keys() >= {"created_at", "stance"}:
                raise ValueError("expected an object with created_at and stance")
            if record["stance"] not in LABELS:
                raise ValueError(f"unknown stance label {record['stance']!r}")
            yield parse_timestamp(record["created_at"]), record["stance"]
