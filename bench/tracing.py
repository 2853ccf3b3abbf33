"""Spans around the benchmark's own calls into univoque.

A span records its name, start, end, parent span and request id.  Spans
stay in memory and are written out once, after the timed work.  The
untraced runs use ``NULL``, whose methods do nothing, so the end-to-end
numbers carry no tracing cost.
"""

import json
import time
from collections import Counter


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr._stack[-1] if tr._stack else None
        tr.spans.append([self.name, time.perf_counter(), None, parent, tr.rid])
        tr._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][2] = time.perf_counter()
        tr._stack.pop()
        return False


class _Request(_Span):
    __slots__ = ("rid",)

    def __init__(self, tracer, name, rid):
        super().__init__(tracer, name)
        self.rid = rid

    def __enter__(self):
        self.tracer.rid = self.rid
        return super().__enter__()

    def __exit__(self, *exc):
        super().__exit__(*exc)
        self.tracer.rid = None
        return False


class Tracer:
    """Records spans and work counts for one repetition."""

    on = True

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request id]
        self.counts = Counter()
        self.rid = None
        self._stack = []

    def span(self, name: str):
        return _Span(self, name)

    def request(self, cls: str, rid: int):
        """Root span of one operation; layer spans inside it share rid."""
        return _Request(self, "request." + cls, rid)

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts[name], value)

    def self_times(self) -> dict:
        """Per span name: (total self time in seconds, number of spans).
        Self time is a span's duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - covered, calls + 1)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, fh)


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NullTracer:
    on = False
    _span = _NullSpan()

    def span(self, name):
        return self._span

    def request(self, cls, rid):
        return self._span

    def add(self, name, n=1):
        pass

    def peak(self, name, value):
        pass


NULL = _NullTracer()
