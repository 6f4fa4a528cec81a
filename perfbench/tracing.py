"""Spans recorded around the benchmark's calls into each layer.

All tracing lives here, outside the package: spans wrap the calls the
benchmark makes, a pass-through sampler wraps every ``sample()`` call
the walk makes, a counting wrapper counts statistic evaluations, and the
encoder the walk calls is swapped, for the length of one traced test,
for one that records a span around the original.
"""

from __future__ import annotations

import contextlib
import json
import time

import fiberwalk.walk


class NullTracer:
    """Tracing off: spans cost one no-op context manager each."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def wrap_sampler(self, sampler):
        return sampler

    def wrap_stat(self, stat):
        return stat

    def patch_encoder(self):
        return contextlib.nullcontext()


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, run id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = 0
        self.sampler: TracedSampler | None = None
        self.stat: CountingStat | None = None

    def new_run(self) -> None:
        self.run_id += 1
        self.sampler = None
        self.stat = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap_sampler(self, sampler):
        self.sampler = TracedSampler(sampler, self)
        return self.sampler

    def wrap_stat(self, stat):
        self.stat = CountingStat(stat)
        return self.stat

    @contextlib.contextmanager
    def patch_encoder(self):
        original = fiberwalk.walk.encode_fiber

        def encode_fiber(spec):
            with self.span("encode"):
                return original(spec)

        fiberwalk.walk.encode_fiber = encode_fiber
        try:
            yield
        finally:
            fiberwalk.walk.encode_fiber = original

    def self_times(self, run_id: int) -> dict[str, float]:
        """Self time per span name in one run: each span's duration
        minus the durations of its direct children."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == run_id]
        child = {i: 0.0 for i, _ in spans}
        for _, s in spans:
            if s[3] is not None:
                child[s[3]] += s[2] - s[1]
        out: dict[str, float] = {}
        for i, s in spans:
            out[s[0]] = out.get(s[0], 0.0) + (s[2] - s[1]) - child[i]
        return out

    def durations(self, run_id: int, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[4] == run_id and s[0] == name]

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "run")
        with open(path, "w") as f:
            json.dump([dict(zip(keys, s)) for s in self.spans], f)


class _TracedEncoding:
    """Pass-through view of a CNF encoding whose DIMACS writes are spans."""

    def __init__(self, encoding, tracer: Tracer):
        self._encoding = encoding
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._encoding, name)

    def to_dimacs(self, sink) -> None:
        with self._tracer.span("encode.dimacs"):
            self._encoding.to_dimacs(sink)


class TracedSampler:
    """Pass-through sampler recording a span and (requested, returned)
    for every call."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.calls: list[tuple[int, int]] = []
        self.encoding = None

    def sample(self, encoding, count: int, seed: int):
        self.encoding = encoding
        with self.tracer.span("sampling"):
            out = self.inner.sample(_TracedEncoding(encoding, self.tracer), count, seed)
        self.calls.append((count, len(out)))
        return out


class CountingStat:
    """Pass-through statistic counting its evaluations."""

    __slots__ = ("inner", "calls")

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __call__(self, cells):
        self.calls += 1
        return self.inner(cells)
