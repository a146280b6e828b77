"""In-memory span recording for the benchmark's traced mode.

A span covers one call from the benchmark into a friezelab layer.  Spans
keep name, start, end, parent span and operation id; they stay in memory
and are written out once, when the run ends.  A layer's self time is its
span durations minus the part covered by child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    enabled = False

    def span(self, name: str):
        return _NULL_SPAN

    def begin_op(self, op_id: int) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        parent = tracer._stack[-1] if tracer._stack else None
        # [name, start, end, parent index, op id]
        self.record = [name, 0.0, 0.0, parent, tracer.op_id]

    def __enter__(self):
        tracer = self.tracer
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Tracing on: every span is appended to an in-memory list."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def write(self, path) -> None:
        fields = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(fields, record))) + "\n")
