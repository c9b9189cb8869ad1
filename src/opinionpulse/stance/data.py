"""Labeled examples, label-file IO and annotation-set preparation.

Label files are TSV, one example per line: label<TAB>text, labels
lowercase. Annotation templates are the same format with an empty label
column, ready for a human to fill in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from ..corpus import Message, dedup, message_to_record, parse_timestamp, sample
from ..exceptions import InputError
from ..filterkit import TopicQuery

LABELS = ("supports", "rejects", "other")
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
    path = Path(path)
    if not path.is_file():
        raise InputError(f"label file not found: {path}")
    examples = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t", 1)
            if len(parts) != 2:
                raise InputError(f"{path.name}: expected label<TAB>text, line {lineno}")
            label, text = parts[0].strip().lower(), parts[1]
            try:
                examples.append(LabeledExample(text=text, label=label))
            except ValueError as exc:
                raise InputError(f"{path.name}: {exc}, line {lineno}") from None
    return examples


def write_labeled_tsv(examples: Iterable[LabeledExample], handle) -> int:
    count = 0
    for example in examples:
        handle.write(f"{example.label}\t{example.text}\n")
        count += 1
    return count


def read_label_column(path) -> list[str]:
    """First column of a TSV as a label sequence (for agreement checks)."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"label file not found: {path}")
    labels = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            label = line.split("\t", 1)[0].strip().lower()
            if not label:
                raise InputError(f"{path.name}: empty label, line {lineno}")
            labels.append(label)
    return labels


def prepare_annotation_set(
    msgs: Iterable[Message],
    query: TopicQuery,
    *,
    rate: float | None = None,
    n: int | None = None,
    seed: int,
) -> list[Message]:
    """Select messages for manual labeling: filter, dedup by text, sample.

    Deterministic under a fixed seed; fails if the query matches nothing.
    """
    on_topic = (m for m in msgs if query.matches(m.text))
    unique = list(dedup(on_topic, mode="by_exact_text"))
    if not unique:
        raise InputError(f"query {query.name!r} selected no messages")
    return sample(unique, rate=rate, n=n, seed=seed)


def write_annotation_template(msgs: Sequence[Message], handle) -> int:
    """Emit empty-label TSV rows for annotators."""
    for msg in msgs:
        handle.write(f"\t{msg.text}\n")
    return len(msgs)


def probs_dict(labels: Sequence[str], probs) -> dict:
    """Class probabilities keyed by label, as plain floats."""
    return {label: float(p) for label, p in zip(labels, probs)}


def write_labeled_jsonl(labeled: Iterable, labels: Sequence[str], handle) -> int:
    """Write (Message, label, probs) triples, one JSON record per line."""
    count = 0
    for msg, label, probs in labeled:
        record = message_to_record(msg)
        record["stance"] = label
        record["probs"] = probs_dict(labels, probs)
        handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
        count += 1
    return count


def read_labeled_jsonl(path) -> Iterator:
    """Replay predict output as (timestamp, stance) pairs."""
    name = Path(path).name
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                yield parse_timestamp(record["created_at"]), record["stance"]
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise InputError(f"{name}: bad labeled record, line {lineno}: {exc}") from None
