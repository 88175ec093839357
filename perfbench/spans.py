"""In-memory span recorder for the benchmark's traced runs.

A span is (name, start, end, parent, op): ``name`` is ``<layer>.<call>``,
where the layer is a module of ``jrmt`` or ``bench`` for the benchmark's own
op bodies and gates; ``parent`` is the index of the enclosing span and
``op`` the id shared by every span of one op.  Spans are kept in a list and
written out once, when the run ends.  A disabled tracer hands out a shared
no-op context, so the untraced run pays one attribute lookup per call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

_OFF = nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.op_id = 0
        self._stack: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _OFF

    @contextmanager
    def _span(self, name: str):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: each span's duration minus that of its children.

        The benchmark is single-threaded, so children never overlap and the
        covered part of a span is the plain sum of its children.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += end - start - child[i]
        return dict(out)

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as f:
            json.dump([dict(zip(keys, s)) for s in self.spans], f)


class RecordingKernel:
    """Kernel callable for ``GapQuery`` that records every call into the kernel.

    Calls pass straight through, so the Nystrom matrix, and with it the
    determinant, is bitwise the one the unwrapped kernel gives.  ``calls``
    counts invocations, ``entries`` the kernel values requested (an array
    call asks for all of its entries) and ``fallbacks`` the calls that raised,
    i.e. the vectorized attempts the quadrature then redoes entry by entry.
    """

    def __init__(self, tracer: Tracer, name: str, fn):
        self.tracer = tracer
        self.name = name
        self.fn = fn
        self.calls = 0
        self.entries = 0
        self.fallbacks = 0

    def __call__(self, s, t):
        self.calls += 1
        self.entries += np.broadcast(s, t).size
        with self.tracer.span(self.name):
            try:
                return self.fn(s, t)
            except Exception:
                self.fallbacks += 1
                raise
