"""In-memory spans recorded around the benchmark's calls into hyplobe.

A span is one call into one layer: ``[name, start_ns, end_ns, parent,
request, error, calls]``. ``parent`` is the index of the enclosing span (or
-1), ``request`` the request id the span belongs to, ``error`` the exception
type name if the call raised, and ``calls`` the number of calls a batch span
covers (per-call time is the duration divided by it). Spans stay in memory
until the run ends and are then written as JSON lines.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter_ns

NAME, START, END, PARENT, REQUEST, ERROR, CALLS = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []

    def open(self, name: str, calls: int = 1) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0, 0, parent, self.request, None, calls])
        self._stack.append(sid)
        self.spans[sid][START] = perf_counter_ns()
        return sid

    def close(self, sid: int, error: str | None = None) -> None:
        span = self.spans[sid]
        span[END] = perf_counter_ns()
        span[ERROR] = error
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        sid = self.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.close(sid, type(exc).__name__)
            raise
        self.close(sid)
        return result

    def add(self, name: str, start_ns: int, end_ns: int, parent: int = -1,
            error: str | None = None) -> int:
        """Record a span timed elsewhere, such as a child process."""
        self.spans.append([name, start_ns, end_ns, parent, self.request, error, 1])
        return len(self.spans) - 1


def write_spans(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def read_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def extend(spans, more) -> None:
    """Append spans recorded in another list, shifting their parent indices to match."""
    base = len(spans)
    for span in more:
        if span[PARENT] >= 0:
            span[PARENT] += base
        spans.append(span)


def duration_s(span) -> float:
    return (span[END] - span[START]) * 1e-9


def per_call_medians(spans) -> dict[str, float]:
    """Median per-call time in seconds of every span name."""
    by_name: dict[str, list[float]] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(duration_s(span) / span[CALLS])
    return {name: statistics.median(v) for name, v in by_name.items()}


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its direct children."""
    selfs = [duration_s(s) for s in spans]
    for span in spans:
        if span[PARENT] >= 0:
            selfs[span[PARENT]] -= duration_s(span)
    return selfs


def layer(name: str) -> str:
    """Layer of a span: the module prefix of its name ('request' spans are the harness)."""
    return "harness" if name == "request" else name.split(".", 1)[0]
