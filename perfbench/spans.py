"""Spans around the benchmark's calls into factorlab, and what they add up to.

A span records one call: its name (``module.function``), a tag (field,
family or configuration), a size (word length, cap, depth, degree, steps),
start and end times, the index of its parent span and the op it belongs to.
Spans are kept in memory and written out once, when the run ends.  Counts
that only the results show (letters, violations, exit mismatches) are
recorded beside the spans with :meth:`Tracer.note`.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from time import perf_counter


class Direct:
    """The untraced path: calls straight through and records nothing."""

    op_id = -1

    def call(self, name, fn, *args, tag="", size=0):
        return fn(*args)

    def note(self, name, value):
        pass


class Tracer:
    def __init__(self):
        # [name, tag, size, start, end, parent, op]
        self.spans: list[list] = []
        self.notes: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._open: list[int] = []

    def call(self, name, fn, *args, tag="", size=0):
        parent = self._open[-1] if self._open else -1
        span = [name, tag, size, 0.0, 0.0, parent, self.op_id]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[3] = perf_counter()
        try:
            return fn(*args)
        finally:
            span[4] = perf_counter()
            self._open.pop()

    def note(self, name, value):
        self.notes[name] += value

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [end - start for _, _, _, start, end, _, _ in self.spans]
        for _, _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        keys = ("name", "tag", "size", "start", "end", "parent", "op")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


class Layers:
    """Per-name aggregates over a tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.by_size: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.module_self: dict[str, float] = defaultdict(float)
        for span, own in zip(tracer.spans, tracer.self_times()):
            name, tag, size, start, end = span[:5]
            for key in (name, f"{name}.{tag}") if tag else (name,):
                self.calls[key] += 1
                self.busy[key] += end - start
            if size:
                self.by_size[name][size].append(end - start)
            self.module_self[name.split(".")[0]] += own

    def slope(self, name: str) -> float:
        """Least-squares slope of log(mean time per call) against log(size)."""
        points = [
            (math.log(size), math.log(sum(times) / len(times)))
            for size, times in self.by_size[name].items()
            if sum(times) > 0
        ]
        if len(points) < 2:
            return 0.0
        mx = sum(x for x, _ in points) / len(points)
        my = sum(y for _, y in points) / len(points)
        sxx = sum((x - mx) ** 2 for x, _ in points)
        return sum((x - mx) * (y - my) for x, y in points) / sxx
