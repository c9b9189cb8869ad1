"""Exception types shared across the pipeline."""

from contextlib import contextmanager
from pathlib import Path


class PipelineError(Exception):
    """Base class for all opinionpulse errors."""


class InputError(PipelineError):
    """A file or data item violates its declared format or contract."""


@contextmanager
def utf8_input(path):
    """Turn a ``UnicodeDecodeError`` raised in the body into an InputError for ``path``.

    The message names the file, the first byte that is not UTF-8 and its
    line. Both are found by reading the file again, on this error path
    only, so the body's read path is unchanged.
    """
    try:
        yield
    except UnicodeDecodeError as exc:
        path = Path(path)
        with open(path, "rb") as handle:
            for lineno, raw in enumerate(handle, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as bad:
                    raise InputError(f"{path.name}: not UTF-8 (byte 0x{raw[bad.start]:02x}), "
                                     f"line {lineno}") from None
        raise InputError(f"{path.name}: not UTF-8 ({exc.reason})") from None
