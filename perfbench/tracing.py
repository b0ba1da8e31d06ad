"""Spans recorded from outside evframe, around calls to its public functions.

A span is (name, module, start, end, parent, op id). Spans stay in memory
until the run ends. A layer's self time is its span's duration minus the
part covered by its child spans; the op's root span belongs to the module
``bench``, so ``bench`` self time is the glue between evframe calls.

``NULL`` is the tracer of untraced runs: its spans are a shared no-op
context manager, so the op code is the same with tracing on and off.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict
from contextlib import nullcontext

# Every module an op can spend time in, in the order reports list them.
MODULES = (
    "formats_io",
    "event_core",
    "geometry_align",
    "tensor_math",
    "fusion_cafr",
    "detect_head",
    "eval_metrics",
    "corruption_bench",
    "bench",
)

_NOOP = nullcontext()


class NullTracer:
    enabled = False

    def op(self, op_id):
        return _NOOP

    def span(self, name, module):
        return _NOOP

    def count(self, **counts):
        pass


NULL = NullTracer()


class _Span:
    __slots__ = ("tracer", "name", "module", "start", "end", "parent", "op_id", "index")

    def __init__(self, tracer, name, module):
        self.tracer = tracer
        self.name = name
        self.module = module

    def __enter__(self):
        tr = self.tracer
        self.parent = tr.stack[-1] if tr.stack else None
        self.op_id = tr.op_id
        self.index = len(tr.spans)
        tr.spans.append(self)
        tr.stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.tracer.stack.pop()
        return False

    def record(self) -> dict:
        return {
            "name": self.name,
            "module": self.module,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op_id,
        }


class Tracer:
    """Collects spans and per-op counts in memory."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = None
        self.counts = defaultdict(float)

    def op(self, op_id):
        self.op_id = op_id
        return self.span("op", "bench")

    def span(self, name, module):
        return _Span(self, name, module)

    def count(self, **counts):
        for key, value in counts.items():
            self.counts[key] += value

    def seconds(self, name) -> float:
        """Summed duration of every span with this name."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def op_walls(self) -> list:
        return [s.end - s.start for s in self.spans if s.name == "op"]

    def self_seconds(self) -> dict:
        """Summed self time per module: duration minus child-span coverage."""
        covered = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        out = dict.fromkeys(MODULES, 0.0)
        for s in self.spans:
            out[s.module] = out.get(s.module, 0.0) + (s.end - s.start) - covered[s.index]
        return out


class MemTracer(Tracer):
    """Tracer for the tracemalloc pass: each span records the peak bytes
    allocated during it, over what was allocated when it started.

    Only leaf spans are read: a child's ``reset_peak`` hides the parent's
    earlier peak.
    """

    def __init__(self):
        super().__init__()
        self.peak_bytes = defaultdict(int)

    def span(self, name, module):
        return _MemSpan(self, name, module)


class _MemSpan(_Span):
    __slots__ = ("base",)

    def __enter__(self):
        tracemalloc.reset_peak()
        self.base = tracemalloc.get_traced_memory()[0]
        return super().__enter__()

    def __exit__(self, *exc):
        super().__exit__(*exc)
        peak = tracemalloc.get_traced_memory()[1] - self.base
        pb = self.tracer.peak_bytes
        pb[self.name] = max(pb[self.name], peak)
        return False
