"""Exception types shared across the pipeline, and the one reader of input files."""

import json
from contextlib import contextmanager
from pathlib import Path


class PipelineError(Exception):
    """Base class for all opinionpulse errors."""


class InputError(PipelineError):
    """A file or data item violates its declared format or contract."""


@contextmanager
def input_lines(path, kind: str):
    """Yield an iterator over the physical lines of the ``kind`` file at ``path``.

    The file is read as strict UTF-8 with line ends kept, so ``csv.reader``
    can take the iterator. A missing file raises ``InputError("<kind> file
    not found: <path>")``. A byte that is not UTF-8, and a ``ValueError`` or
    ``csv.Error`` raised in the body, raise ``InputError("<file>: <reason>,
    line <n>")``, where ``n`` counts physical lines: the line of the byte,
    or the last line the body took.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"{kind} file not found: {path}")
    lineno = 0

    def lines(handle):
        nonlocal lineno
        for lineno, line in enumerate(handle, start=1):
            yield line

    try:
        with open(path, encoding="utf-8", newline="") as handle:
            yield lines(handle)
    except UnicodeDecodeError as exc:
        # the decoder works in blocks, so find the byte's line by reading again
        with open(path, "rb") as handle:
            for lineno, raw in enumerate(handle, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as bad:
                    raise InputError(f"{path.name}: not UTF-8 (byte 0x{raw[bad.start]:02x}), "
                                     f"line {lineno}") from None
        raise InputError(f"{path.name}: not UTF-8 ({exc.reason})") from None
    except Exception as exc:
        import csv  # imported here: only the CSV readers load csv, and only they raise csv.Error
        if not isinstance(exc, (ValueError, csv.Error)):
            raise
        raise InputError(f"{path.name}: {exc}, line {lineno}") from None


def input_json(path, kind: str):
    """Decode the ``kind`` file at ``path``, read by ``input_lines``, as one JSON document."""
    with input_lines(path, kind) as lines:
        text = "".join(lines)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{Path(path).name}: malformed JSON: {exc}") from None
