"""In-memory spans and counters for the traced benchmark run.

A span is (name, start, end, parent index, op id).  Spans are recorded
only by the benchmark's own code around calls into zeta2k, and, in the
traced run, by wrappers the benchmark installs over module attributes
(see ``Tracer.wrap``).  The untraced run uses ``NullTracer``, which
records nothing and wraps nothing.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

NAME, START, END, PARENT, OP = range(5)


class NullTracer:
    """Tracer interface that does nothing (the untraced run)."""

    enabled = False
    op_id = None

    def span(self, name):
        return nullcontext()

    def count(self, name, n=1):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = None
        self._stack: list[int] = []
        self._restore: list = []

    @contextmanager
    def span(self, name):
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else None, self.op_id]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[END] = perf_counter()
            self._stack.pop()

    def add_span(self, name, start, end):
        """Record a finished span measured elsewhere (e.g. in a child process)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent, self.op_id])

    def count(self, name, n=1):
        self.counts[name] += n

    def wrap(self, module, attr, span_name=None, before=None):
        """Replace module.attr by a wrapper that records a span and/or
        calls ``before(*args, **kwargs)`` first.  Undone by ``unwrap_all``."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            if span_name is None:
                return original(*args, **kwargs)
            with self.span(span_name):
                return original(*args, **kwargs)

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))

    def unwrap_all(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    result = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s[START]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s[END])
            if end > start:
                covered += end - start
                cursor = end
        result.append((s[END] - s[START]) - covered)
    return result


def totals_by_name(spans) -> dict[str, dict[str, float]]:
    """name -> {"self": summed self time, "total": summed duration, "calls": n}."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"self": 0.0, "total": 0.0, "calls": 0})
    for s, own in zip(spans, self_times(spans)):
        entry = out[s[NAME]]
        entry["self"] += own
        entry["total"] += s[END] - s[START]
        entry["calls"] += 1
    return dict(out)
