"""In-memory span recorder for the traced in-process chain.

A span has a name, a start and end (``perf_counter`` seconds), a parent
span, and the id of the trace (one chain pass) it belongs to. Work that
happens many times inside one stage, such as every ``__next__`` of a lazy
stream or every call of a patched function, is folded into one span per
(stage, name) that also carries the busy time, the item count and the
number of calls. Self time is busy time minus the time spent in spans
nested inside it, so a stream's self time excludes the upstream streams it
pulls from. Nothing is written until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("id", "parent", "trace", "name", "start", "end", "busy", "self_time",
                 "count", "calls")

    def __init__(self, span_id, parent, trace, name):
        self.id, self.parent, self.trace, self.name = span_id, parent, trace, name
        self.start = self.end = None
        self.busy = self.self_time = 0.0
        self.count = self.calls = 0

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Records spans for one benchmark run; ``trace`` ids number the chain passes."""

    def __init__(self):
        self.spans: list[Span] = []
        self._by_key: dict = {}
        self._stack: list = []  # [child time] of every open timed frame
        self._stage: Span | None = None
        self._patches: list = []
        self.trace = 0

    # -- recording ---------------------------------------------------------

    def _span(self, name: str) -> Span:
        parent = self._stage.id if self._stage is not None else None
        key = (self.trace, parent, name)
        span = self._by_key.get(key)
        if span is None:
            span = Span(len(self.spans), parent, self.trace, name)
            self.spans.append(span)
            self._by_key[key] = span
        return span

    def _account(self, span: Span, t0: float, t1: float, frame: list) -> None:
        duration = t1 - t0
        if span.start is None:
            span.start = t0
        span.end = t1
        span.busy += duration
        span.self_time += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration

    @contextmanager
    def stage(self, name: str):
        """A top-level span for one CLI stage's worth of library calls."""
        span = self._span(f"stage.{name}")
        self._stage = span
        frame = [0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            yield span
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._account(span, t0, t1, frame)
            span.calls += 1
            self._stage = None

    def call(self, name: str, fn, *args, count=None, **kwargs):
        """Call ``fn`` inside span ``name``; ``count(result)`` adds to its item count."""
        return self.wrap(name, fn, count=count)(*args, **kwargs)

    def wrap(self, name: str, fn, count=None):
        stack, account = self._stack, self._account

        def timed(*args, **kwargs):
            span = self._span(name)
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                account(span, t0, t1, frame)
                span.calls += 1
            span.count += 1 if count is None else count(args, result)
            return result

        return timed

    def iterate(self, name: str, iterable):
        """Charge the time spent inside each ``__next__`` of ``iterable`` to ``name``."""
        span = self._span(name)
        iterator = iter(iterable)
        stack, account = self._stack, self._account
        span.calls += 1

        def generate():
            while True:
                frame = [0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    account(span, t0, t1, frame)
                span.count += 1
                yield item

        return generate()

    # -- patching calls between layers ------------------------------------

    def patch(self, name: str, fn, *, modules=None, stream=False, count=None) -> None:
        """Route every ``opinionpulse`` module global bound to ``fn`` through a span.

        ``modules`` limits the patch to those module names. A ``stream``
        function returns an iterator whose ``__next__`` time is charged too.
        """
        if stream:
            def timed(*args, **kwargs):
                return self.iterate(name, fn(*args, **kwargs))
        else:
            timed = self.wrap(name, fn, count=count)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("opinionpulse") or module is None:
                continue
            if modules is not None and mod_name not in modules:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, timed)
                    self._patches.append((module, attr, fn))

    def unpatch(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    # -- results -----------------------------------------------------------

    def in_trace(self, trace: int) -> list[Span]:
        return [span for span in self.spans if span.trace == trace]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.to_dict() for span in self.spans], handle)
            handle.write("\n")


class NullTracer:
    """Same interface, no recording: the untraced in-process chain."""

    @contextmanager
    def stage(self, name):
        yield None

    def call(self, name, fn, *args, count=None, **kwargs):
        return fn(*args, **kwargs)

    def wrap(self, name, fn, count=None):
        return fn

    def iterate(self, name, iterable):
        return iterable
