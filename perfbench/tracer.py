"""In-memory span tracer for the traced benchmark run.

The tracer replaces public functions at the module attributes their callers
look up (``courtpose.synth.fit_pose_to_keypoints`` is what ``run_pipeline``
calls, for example), records one span per call, and restores the originals
on exit. Nothing under ``src/`` is modified. Spans are kept in a list and
written out once, when the run ends.
"""
from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Spans are ``(name, start, end, parent index, op id)`` tuples.

    ``op`` is the id of the operation (scene, frame or training call) being
    timed, or ``None`` during set-up and checks. ``counts`` holds per-name
    call counters and ``values`` per-name lists of numbers extracted from
    arguments or results (iterations, residuals, collision counts).
    """

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.values: dict = defaultdict(list)
        self.op = None
        self._stack: list = []
        self._patched: list = []

    # -- wrapping ---------------------------------------------------------

    def span(self, owner, attr: str, name: str, on_return=None) -> None:
        """Record a span for every call of ``owner.attr``.

        ``on_return(tracer, args, kwargs, result)`` may record values.
        """
        def make(fn):
            def traced(*args, **kwargs):
                parent = self._stack[-1] if self._stack else -1
                idx = len(self.spans)
                self.spans.append(None)
                self._stack.append(idx)
                t0 = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    self._stack.pop()
                    self.spans[idx] = (name, t0, t1, parent, self.op)
                if on_return is not None:
                    on_return(self, args, kwargs, out)
                return out
            return traced
        self._patch(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` made inside operations, without
        recording spans."""
        def make(fn):
            def counted(*args, **kwargs):
                if self.op is not None:
                    self.counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        self._patch(owner, attr, make)

    def _patch(self, owner, attr, make):
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(make(raw.__func__)))
            else:
                setattr(owner, attr, make(raw))
        else:
            raw = getattr(owner, attr)
            setattr(owner, attr, make(raw))
        self._patched.append((owner, attr, raw))

    def restore(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- reduction --------------------------------------------------------

    def durations(self):
        """Per span: (name, inclusive seconds, self seconds, op id)."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(name, t1 - t0, t1 - t0 - child[i], op)
                for i, (name, t0, t1, _, op) in enumerate(self.spans)]

    def inclusive(self, names, per_op: int | None):
        """Summed inclusive seconds of spans named in ``names``.

        With ``per_op`` set, only spans inside operations count and the sum
        is divided by it; otherwise every span counts (set-up work).
        """
        names = set(names)
        total = sum(float(d) for n, d, _, op in self.durations()
                    if n in names and (per_op is None or op is not None))
        return total / per_op if per_op else float(total)

    def self_by_module(self, ops: int) -> dict:
        """Self seconds per operation, keyed by the span name's module."""
        out: dict = defaultdict(float)
        for name, _, own, op in self.durations():
            if op is not None:
                out[name.split(".", 1)[0]] += own / ops
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "op"],
                "spans": self.spans,
                "counts": dict(self.counts),
            }, fh)
