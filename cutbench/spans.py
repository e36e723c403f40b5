"""Spans around the calls the benchmark makes into each layer.

A span records its name, start, end, its parent span and the round it
belongs to (the trace id).  Spans are kept in memory and written out when
the run ends.  A layer's self time is its spans' durations minus the parts
covered by their child spans.

Calls the program makes internally are reached by replacing a module
attribute with a wrapper (`wrap`), for as long as the tracer is installed;
the program's files are not changed.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, round, start, end]
        self.counts: Counter = Counter()
        self.round = 0
        self._stack: list[int] = []
        self._muted = 0
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        if self._muted:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, parent, self.round, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[4] = time.perf_counter()

    @contextmanager
    def muted(self):
        """Run without recording spans or counts, e.g. for probes outside the workload."""
        self._muted += 1
        try:
            yield
        finally:
            self._muted -= 1

    def count(self, name: str, amount: int = 1) -> None:
        if not self._muted:
            self.counts[name, self.round] += amount

    def wrap(self, module, attr: str, span_name: str, counter: str | None = None) -> None:
        """Route calls through module.attr into a span, and count them under `counter`."""
        original = getattr(module, attr)

        @wraps(original)
        def traced(*args, **kwargs):
            if counter:
                self.count(counter)
            with self.span(span_name):
                return original(*args, **kwargs)

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[tuple[str, int], float]:
        """Self time per (span name, round)."""
        child_time = defaultdict(float)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[tuple[str, int], float] = defaultdict(float)
        for index, (name, _, rnd, start, end) in enumerate(self.spans):
            totals[name, rnd] += end - start - child_time[index]
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "parent", "round", "start", "end")
        with path.open("w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(dict(zip(keys, record))) + "\n")
