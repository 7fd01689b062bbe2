"""Span tracing at the layer boundaries of the ``lozenge`` package.

A :class:`Tracer` replaces chosen functions with wrappers that record one
span per call: name, start, end, parent span and a few counts taken from
the arguments or the result.  Spans are kept in memory and reduced to
per-layer totals by :func:`self_times` and :func:`layer_totals`.

The package binds names with ``from .x import y``, so one function is
reachable under several module attributes (``lozenge.exact.determinant``
and ``lozenge.count.determinant`` are the same object).  :meth:`Tracer.install`
therefore patches every module attribute in ``sys.modules`` that holds the
function, and :meth:`Tracer.remove` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

# measure(args, kwargs, result) -> counts recorded on the span
Measure = Callable[[tuple, dict, object], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into the span list, -1 for a root span
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans for wrapped functions; single-threaded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    def wrap(self, name: str, fn: Callable, measure: Measure | None = None) -> Callable:
        """A wrapper that records a span around each call of ``fn``.

        A generator function gets one span per resumption, so the time a
        consumer spends between items is not charged to the generator.
        """
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self.begin(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.end(idx)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if measure is not None:
                self.spans[idx].counts = measure(args, kwargs, result)
            return result

        return wrapper

    def install(self, layers: dict[str, tuple[Callable, Measure | None]]) -> None:
        """Wrap each function at every module attribute that binds it."""
        # the layers dict keeps every function alive, so ids cannot be reused
        by_id = {id(fn): self.wrap(name, fn, measure) for name, (fn, measure) in layers.items()}
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def remove(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def take(self) -> list[Span]:
        """Hand over the closed spans recorded so far and start a new list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one call stack, so the children of a span are disjoint
    and lie inside it; the sum of their durations is the time they cover.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def root_time(spans: list[Span]) -> float:
    """Total duration of the spans that have no parent."""
    return sum(s.end - s.start for s in spans if s.parent < 0)


def has_ancestor(spans: list[Span], idx: int, name: str) -> bool:
    parent = spans[idx].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


@dataclass
class LayerTotal:
    self_s: float = 0.0
    calls: int = 0
    sums: dict = field(default_factory=dict)
    maxima: dict = field(default_factory=dict)


def layer_totals(spans: list[Span]) -> dict[str, LayerTotal]:
    """Self time, call count, and summed and largest counts per span name."""
    totals: dict[str, LayerTotal] = {}
    for span, own in zip(spans, self_times(spans)):
        total = totals.setdefault(span.name, LayerTotal())
        total.self_s += own
        total.calls += 1
        for key, value in span.counts.items():
            total.sums[key] = total.sums.get(key, 0) + value
            total.maxima[key] = max(total.maxima.get(key, value), value)
    return totals
