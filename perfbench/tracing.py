"""Span recording for the traced benchmark run.

A span is ``[name, start, end, parent]``: the layer call it times, two
``time.perf_counter`` readings, and the index of the enclosing span (-1
at the root). Spans are recorded only by wrappers defined here, which
the benchmark binds in place of module attributes of the program; the
program's own files are never changed. Spans stay in memory until the
pass ends. The layer of a span is its name up to the first dot.
"""

from __future__ import annotations

import time
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def counting(self, name: str, fn):
        """Return ``fn`` wrapped so that each call bumps ``counts[name]``."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def rebind(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``.

        Raises AttributeError if the program has no such attribute, so a
        renamed hook fails the traced run instead of reading 0.
        """
        original = getattr(owner, attr, None)
        if original is None:
            label = f"{getattr(owner, '__name__', owner)}.{attr}"
            raise AttributeError(f"trace hook not found: {label}")
        setattr(owner, attr, make(original))


def durations(spans: list[list]) -> dict[str, float]:
    """Total seconds per span name."""
    totals: dict[str, float] = {}
    for name, start, end, _parent in spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def span_counts(spans: list[list]) -> Counter[str]:
    return Counter(span[0] for span in spans)


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per layer, each span minus the time its children cover.

    Children of one span run one after another on one thread, so their
    durations add up without overlap.
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    layers: dict[str, float] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + (end - start) - covered[index]
    return layers
