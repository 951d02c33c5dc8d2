"""Span recorder for the traced run.

Spans are taken in the benchmark's own files, around calls into the
program's public functions, and named ``<layer>.<call>``.  They are kept
in memory and written once, when the run ends, as a Chrome trace
(``chrome://tracing`` / https://ui.perfetto.dev) with one process row
group per entry level and one thread row per request.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

__all__ = ["Span", "SpanRecorder"]


@dataclass
class Span:
    name: str
    level: str          # entry level the request was submitted at
    rid: int            # request id: the trace row
    start: float        # perf_counter seconds
    end: float = 0.0
    parent: int | None = None   # index of the span that caused this one

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span store; ``enabled = False`` makes ``span`` a no-op
    so the same driver code runs traced and untraced rounds."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = True

    @classmethod
    def off(cls) -> "SpanRecorder":
        """A recorder that keeps nothing (warm-up, untraced runs)."""
        recorder = cls()
        recorder.enabled = False
        return recorder

    def add(self, name: str, level: str, rid: int, start: float,
            end: float, parent: int | None = None) -> int | None:
        """Record a span from stamps the caller already took; returns
        its index (the ``parent`` of spans it caused), or None when
        recording is off."""
        if not self.enabled:
            return None
        self.spans.append(Span(name, level, rid, start, end, parent))
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, level: str, rid: int,
             parent: int | None = None) -> Iterator[int | None]:
        """Record the enclosed block as one span; yields its index."""
        index = self.add(name, level, rid, time.perf_counter(), 0.0,
                         parent)
        try:
            yield index
        finally:
            if index is not None:
                self.spans[index].end = time.perf_counter()

    def durations_ms(self, name: str) -> list[float]:
        return [s.duration * 1e3 for s in self.spans if s.name == name]

    def chrome_events(self) -> list[dict]:
        levels = sorted({s.level for s in self.spans})
        pid_of = {level: i + 1 for i, level in enumerate(levels)}
        events: list[dict] = [
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": level}} for level, pid in pid_of.items()]
        for level, rid in sorted({(s.level, s.rid) for s in self.spans}):
            events.append({"ph": "M", "name": "thread_name",
                           "pid": pid_of[level], "tid": rid,
                           "args": {"name": f"request {rid}"}})
        origin = min((s.start for s in self.spans), default=0.0)
        for index, s in enumerate(self.spans):
            events.append({"ph": "X", "name": s.name, "cat": s.level,
                           "pid": pid_of[s.level], "tid": s.rid,
                           "ts": (s.start - origin) * 1e6,
                           "dur": s.duration * 1e6,
                           "args": {"span": index, "parent": s.parent}})
        return events

    def write_chrome(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"traceEvents": self.chrome_events(),
                       "displayTimeUnit": "ms"}, fh)
