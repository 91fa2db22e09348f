"""Spans around the calls into each ineqlab layer, recorded from outside.

`Tracer.patch` replaces a function in the namespace its caller looks it
up in (`ineqlab.cli.canonical_chain`, `ineqlab.decomposition.grouped_columns`,
...) with a wrapper that records a span. Spans stay in memory until the
run ends; a layer's self time is its spans' durations minus the time of
their child spans.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        # [layer, name, parent index, start, end, {count: value}]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, name: str, fn, counts=None):
        """`fn` recording one span per call; `counts(args, result)` gives sizes."""

        def traced(*args, **kwargs):
            span = [layer, name, self._open[-1] if self._open else -1, perf_counter(), 0.0, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                self._open.pop()
            if counts is not None:
                span[5] = counts(args, result)
            return result

        return traced

    def replace(self, namespace, attr: str, value) -> None:
        """Set `namespace.attr` to `value` until `unpatch`."""
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def patch(self, namespace, attr: str, layer: str, name: str, counts=None) -> None:
        self.replace(namespace, attr, self.wrap(layer, name, getattr(namespace, attr), counts))

    def unpatch(self) -> None:
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    def totals(self, start: int = 0, end: int | None = None) -> dict[str, float]:
        """Sums over spans[start:end]: self seconds per span name
        (`<layer>.<name>_s`), calls (`<layer>.<name>_calls`) and each size
        (`<layer>.<size>`)."""
        end = len(self.spans) if end is None else end
        spans = self.spans[start:end]
        inner = [0.0] * len(spans)
        for layer, name, parent, t0, t1, _ in spans:
            if start <= parent < end:
                inner[parent - start] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for (layer, name, _, t0, t1, sizes), child in zip(spans, inner):
            out[f"{layer}.{name}_s"] += t1 - t0 - child
            out[f"{layer}.{name}_calls"] += 1
            for key, value in (sizes or {}).items():
                out[f"{layer}.{key}"] += value
        return out

    def write(self, path, start: int = 0, end: int | None = None) -> None:
        """One JSON line per span of spans[start:end]; `parent` is the line
        number (from 0) of the enclosing span, or -1."""
        with open(path, "w", encoding="utf-8") as fh:
            for layer, name, parent, t0, t1, sizes in self.spans[start:end]:
                record = {"layer": layer, "name": name, "parent": parent - start if parent >= start else -1,
                          "start": t0, "end": t1, "sizes": sizes or {}}
                fh.write(json.dumps(record) + "\n")
