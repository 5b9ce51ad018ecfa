"""In-memory spans for the traced benchmark run.

A span is recorded around each call the benchmark makes into a layer of
acbound: its name, start, end and the span that was open when it began.
Spans live in flat arrays until the run ends, when :meth:`Tracer.write`
saves them with each span's self time (its duration minus the time its
child spans cover).  Counters recorded at the same boundaries (work
items, calls) sit beside the spans.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(int)
        self._open = [-1]

    def span(self, name: str, calls: int = 1) -> "_Span":
        """Context manager timing one layer call; adds ``calls`` to ``<name>.calls``."""
        return _Span(self, name, calls)

    def count(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    def durations(self) -> np.ndarray:
        return np.array(self.end, dtype=np.float64) - np.array(self.start, dtype=np.float64)

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the durations of its direct children."""
        duration = self.durations()
        parent = np.array(self.parent, dtype=np.int64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        return duration - covered

    def seconds_by_name(self) -> dict[str, float]:
        """Summed span duration per name."""
        totals = np.bincount(
            np.array(self.name_id, dtype=np.int64),
            weights=self.durations(),
            minlength=len(self.names),
        )
        return {name: float(totals[i]) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            self_s=self.self_times(),
        )


class _Span:
    __slots__ = ("tracer", "name", "calls", "index")

    def __init__(self, tracer: Tracer, name: str, calls: int):
        self.tracer = tracer
        self.name = name
        self.calls = calls

    def __enter__(self):
        tr = self.tracer
        name_id = tr._name_ids.get(self.name)
        if name_id is None:
            name_id = tr._name_ids[self.name] = len(tr.names)
            tr.names.append(self.name)
        self.index = len(tr.start)
        tr.name_id.append(name_id)
        tr.parent.append(tr._open[-1])
        tr.end.append(0.0)
        tr._open.append(self.index)
        tr.start.append(perf_counter())
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.end[self.index] = perf_counter()
        tr._open.pop()
        tr.counts[self.name + ".calls"] += self.calls
        return False
