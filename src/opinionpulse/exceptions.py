"""The input error shared across the pipeline, the one reader of input files, one ISO parser."""

import json
import re
from contextlib import contextmanager
from pathlib import Path


class InputError(Exception):
    """A file or data item violates its declared format or contract."""


# Python 3.10's fromisoformat grammar: 3.11 also takes 20200312, 2020-W11-4 and more
_ISO = {"date": re.compile(r"\d{4}-\d\d-\d\d", re.ASCII),
        "datetime": re.compile(r"\d{4}-\d\d-\d\d(?:.\d\d(?::\d\d(?::\d\d(?:\.\d{3}(?:\d{3})?)?)?)?"
                               r"(?:[+-]\d\d:\d\d(?::\d\d(?:\.\d{6})?)?)?)?", re.ASCII | re.DOTALL)}


def from_isoformat(kind, text: str):
    """``kind.fromisoformat(text)`` for ``kind`` date or datetime, in Python 3.10's grammar."""
    if not _ISO[kind.__name__].fullmatch(text):
        raise ValueError(f"not an ISO {kind.__name__}: {text!r}")
    return kind.fromisoformat(text)


@contextmanager
def input_lines(path, kind: str):
    """Yield an iterator over the lines of the ``kind`` file at ``path``.

    The file is read as UTF-8 with line ends kept, so ``csv.reader`` can
    take the iterator. A missing file raises ``InputError("<kind> file not
    found: <path>")``. A byte that is not UTF-8, and a ``ValueError`` or
    ``csv.Error`` raised in the body, raise ``InputError("<file>: <reason>,
    line <n>")``, where ``n`` counts universal-newline lines (a bare CR ends
    one): the line of the byte, or the last line the body took, whichever
    comes first.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"{kind} file not found: {path}")
    lineno = 0

    def lines(handle):
        nonlocal lineno
        for lineno, line in enumerate(handle, start=1):
            if not line.isascii():
                try:  # an undecodable byte was read as a surrogate, which does not encode
                    line.encode("utf-8")
                except UnicodeEncodeError as bad:
                    byte = ord(line[bad.start]) - 0xDC00
                    raise ValueError(f"not UTF-8 (byte 0x{byte:02x})") from None
            yield line

    try:
        with open(path, encoding="utf-8", errors="surrogateescape", newline="") as handle:
            yield lines(handle)
    except Exception as exc:
        import csv  # imported here: only the CSV readers load csv, and only they raise csv.Error
        if not isinstance(exc, (ValueError, csv.Error)):
            raise
        raise InputError(f"{path.name}: {exc}, line {lineno}") from None


def json_loads(text):
    """``json.loads``, raising ``ValueError`` for a document nested too deeply to decode."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _deepest_line(text: str) -> int:
    """The line of the first bracket at the deepest nesting of JSON ``text``."""
    depth = deepest = at = 0
    # each JSON string, so its brackets are skipped, and each bracket
    for match in re.finditer(r'"(?:[^"\\]|\\.)*"|[\[\]{}]', text):
        token = match.group()
        if token in ("[", "{"):
            depth += 1
            if depth > deepest:
                deepest, at = depth, match.start()
        elif token in ("]", "}"):
            depth -= 1
    return text.count("\n", 0, at) + 1


def input_json(path, kind: str):
    """Decode the ``kind`` file at ``path``, read by ``input_lines``, as one JSON document."""
    with input_lines(path, kind) as lines:
        text = "".join(lines)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{Path(path).name}: malformed JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{Path(path).name}: malformed JSON: nested too deeply, "
                         f"line {_deepest_line(text)}") from None
