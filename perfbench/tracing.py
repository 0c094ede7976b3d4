"""Operation timing and, for the traced run, spans around calls into each layer.

A span records a name "<module>.<function>[.<case>]", its start and end, and
its parent; the module names the layer.
An oracle wrapped with Recorder.oracle() adds the time and count of every
query it answers to the innermost open span, under the wrapper's layer, so
per-query work is aggregated where it happens instead of costing one span
per query.  A layer's self time is the time of its spans minus the part
their child spans and wrapped oracles cover, plus the wrapped oracle time
attributed to it.  Spans stay in memory and are written out at the end.

The host's speed swings by up to 1.8x in phases of seconds to minutes, so
raw wall time is reported alongside, not gated.  In an untraced round a timer
signal, every REF_EVERY_S, times a fixed pure-Python reference loop, inside
an operation or between them; a traced round takes its samples between
operations only.  The loop's own time is taken out of the operations' time,
and the operation time between two reference samples is rescaled by
REF_NOMINAL_NS over the mean of the two.  normalized_ns is thus
the timed work at the speed where the reference loop takes REF_NOMINAL_NS,
its time at a quiet moment on a 2.1 GHz Xeon with Python 3.11.  A slower
program still reads slower by the same share; a slower host does not.
"""

from __future__ import annotations

import json
import signal
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager

REF_ITERATIONS = 12_000
REF_NOMINAL_NS = 3_000_000
REF_EVERY_S = 0.1


def reference_ns() -> int:
    """Wall time of one fixed reference loop of tuple, dict and integer work."""
    t0 = time.perf_counter_ns()
    d: dict = {}
    for i in range(REF_ITERATIONS):
        key = (i & 255, i >> 8)
        d[key] = d.get(key, 0) + i * i
    return time.perf_counter_ns() - t0


LAYERS = ("core", "online", "offline_adjacency", "offline_recursive", "cli", "harness")


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "inner")

    def __init__(self, sid: int, parent: int | None, name: str, start: int):
        self.sid, self.parent, self.name, self.start = sid, parent, name, start
        self.end = start
        # layer -> [ns, calls] of wrapped oracle queries made directly in
        # this span, not in a child span.
        self.inner: dict[str, list[int]] = defaultdict(lambda: [0, 0])

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def ns(self) -> int:
        return self.end - self.start

    def to_json(self) -> str:
        return json.dumps({"id": self.sid, "parent": self.parent, "name": self.name,
                           "start_ns": self.start, "end_ns": self.end,
                           "inner": {k: {"ns": v[0], "calls": v[1]} for k, v in self.inner.items()}},
                          sort_keys=True)


class TimedOracle:
    """Oracle-shaped proxy that charges each query to the innermost open span."""

    def __init__(self, inner, recorder: "Recorder", layer: str):
        self._inner = inner
        self._rec = recorder
        self._layer = layer

    @property
    def spec(self):
        return self._inner.spec

    @property
    def n(self) -> int:
        return self._inner.n

    @property
    def query_count(self) -> int:
        return self._inner.query_count

    @property
    def transcript(self):
        return self._inner.transcript

    def query(self, elements):
        t0 = time.perf_counter_ns()
        out = self._inner.query(elements)
        acc = self._rec.stack[-1].inner[self._layer]
        acc[0] += time.perf_counter_ns() - t0
        acc[1] += 1
        return out


class Recorder:
    """Times a round's operations; with traced=True also keeps spans.

    A top-level op() is one timed operation (or `count` of them, when one
    timed call covers several operations, as a deduce-all sweep does).  Its
    wall time, less any reference samples inside it, adds to timed_ns, and
    its time rescaled by the reference samples (module docstring) to
    normalized_ns, both once close() is called.  An exception counts the
    operations as failed, is reported on stderr, and the round goes on.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.timed_ns = 0
        self.normalized_ns = 0.0
        self.attempted = 0
        self.failed = 0
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        # (start, end) of each operation and (start, end, loop ns) of each
        # reference sample, in time order.  The signal handler only appends,
        # so it cannot corrupt the accounting wherever it interrupts.
        self._ops: list[tuple[int, int]] = []
        self._refs: list[tuple[int, int, int]] = []
        self._sampling = False
        self._sample()
        # Spans would include samples taken inside them, so a traced round
        # is sampled only between operations.
        self._timer = not traced
        if self._timer:
            signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())
            signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def oracle(self, inner, layer: str = "core"):
        return TimedOracle(inner, self, layer) if self.traced else inner

    @contextmanager
    def span(self, name: str):
        """A child span inside an op; a no-op when tracing is off."""
        if not self.traced:
            yield
            return
        parent = self.stack[-1].sid if self.stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter_ns())
        self.spans.append(span)
        self.stack.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter_ns()
            self.stack.pop()

    def op(self, name: str, fn, *args, count: int = 1):
        """Run one timed operation; returns (ok, value)."""
        self.attempted += count
        t0 = time.perf_counter_ns()
        try:
            with self.span(name):
                value = fn(*args)
        except Exception:  # a failing operation is counted, not fatal to the run
            self.failed += count
            print(f"operation {name} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return False, None
        finally:
            end = time.perf_counter_ns()
            self._ops.append((t0, end))
            if self.traced and end - self._refs[-1][1] >= REF_EVERY_S * 1e9:
                self._sample()
        return True, value

    def _sample(self) -> None:
        if self._sampling:  # a signal during a sample
            return
        self._sampling = True
        start = time.perf_counter_ns()
        ns = reference_ns()
        self._refs.append((start, time.perf_counter_ns(), ns))
        self._sampling = False

    def close(self) -> None:
        """Stop sampling and add up timed_ns and normalized_ns; call once at
        the end of a round."""
        if self._timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self._sample()
        refs = self._refs
        # Segment k runs from the end of sample k to the start of sample k+1.
        # The first sample precedes every operation and the last follows
        # them, so every operation lies within the segments.
        k = 0
        for a, b in self._ops:
            while refs[k + 1][1] <= a:
                k += 1
            j = k
            while refs[j][1] < b:
                piece = min(b, refs[j + 1][0]) - max(a, refs[j][1])
                if piece > 0:
                    self.timed_ns += piece
                    self.normalized_ns += piece * REF_NOMINAL_NS * 2 / (refs[j][2] + refs[j + 1][2])
                j += 1

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer."""
        out = dict.fromkeys(LAYERS, 0.0)
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        for span in self.spans:
            own = span.ns - sum(k.ns for k in children[span.sid])
            for layer, (ns, _) in span.inner.items():
                own -= ns
                out[layer] = out.get(layer, 0.0) + ns / 1e9
            out[span.layer] = out.get(span.layer, 0.0) + own / 1e9
        return out

    def total(self, name: str) -> float:
        """Seconds spent in spans with this name."""
        return sum(s.ns for s in self.spans if s.name == name) / 1e9

    def inner_total(self, layer: str) -> tuple[int, int]:
        """(ns, calls) of all wrapped oracle queries charged to `layer`."""
        ns = calls = 0
        for span in self.spans:
            if layer in span.inner:
                ns += span.inner[layer][0]
                calls += span.inner[layer][1]
        return ns, calls

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(span.to_json() + "\n")
