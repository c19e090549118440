"""Spans and call counters recorded by the benchmark around calls into dirh2.

A span is (name, start, end, parent): the benchmark opens one around each
call it makes into a layer, and spans opened while another is open record it
as their parent.  Functions that the library calls thousands of times per
run (an SVD, a sub-block read) get a counter instead of a span each: calls,
seconds and a work measure, kept per name.  Everything stays in memory until
``write`` dumps it at the end of the run.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Trace:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, list] = {}  # name -> [calls, seconds, work]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def timed(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def median(self, name: str) -> float:
        """Median duration of the spans called ``name``."""
        return statistics.median(end - start for n, start, end, _ in self.spans if n == name)

    def counted(self, name: str, fn, work=None):
        """Wrap fn so every call adds to the counter ``name``; ``work(args,
        result)`` gives the work measure of one call."""
        slot = self.counters.setdefault(name, [0, 0.0, 0])

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            slot[1] += time.perf_counter() - t0
            slot[0] += 1
            if work is not None:
                slot[2] += work(args, out)
            return out

        return wrapper

    def spanned(self, name: str, fn):
        """Wrap fn so every call opens a span ``name``."""

        def wrapper(*args, **kwargs):
            with self.span(name(args, kwargs) if callable(name) else name):
                return fn(*args, **kwargs)

        return wrapper

    def write(self, path, extra: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "spans": [
                {"name": n, "start": s - t0, "end": e - t0, "parent": p}
                for n, s, e, p in self.spans
            ],
            "counters": {
                k: {"calls": c, "seconds": sec, "work": w} for k, (c, sec, w) in self.counters.items()
            },
            **extra,
        }
        path.write_text(json.dumps(doc, indent=1))
