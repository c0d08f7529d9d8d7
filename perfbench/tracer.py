"""Spans around the package's public functions, recorded from outside.

A ``Tracer`` replaces a function by a wrapper in every namespace that binds
it (module globals, and the class dict for methods), so callers that did
``from .rewrite import substitute`` are traced as well as callers that go
through the module. Each wrapped call records one span: name, start, end and
the index of the enclosing span (-1 at the top). Spans stay in memory until
the run ends; ``summarize`` turns them into per-name call counts, busy time
and self time.

A wrapped function that calls itself (``substitute``, ``replace_at``) makes
one span per outermost call: inner calls go straight to the original.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from typing import Callable, Iterable, NamedTuple


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


class LayerTotals(NamedTuple):
    calls: int
    busy_s: float
    self_s: float


def summarize(
    names: list[str], span_name: Iterable[int], span_parent: Iterable[int], span_start: Iterable[float], span_end: Iterable[float]
) -> dict[str, LayerTotals]:
    """Per-name calls, busy time (inclusive) and self time.

    Self time is a span's duration minus the time its direct children cover.
    Children of one span never overlap (one thread), so that is the sum of
    their durations.
    """
    durations = array("d", (end - start for start, end in zip(span_start, span_end)))
    child_time = array("d", bytes(8 * len(durations)))
    for i, parent in enumerate(span_parent):
        if parent >= 0:
            child_time[parent] += durations[i]
    calls = [0] * len(names)
    busy = [0.0] * len(names)
    own = [0.0] * len(names)
    for i, nid in enumerate(span_name):
        calls[nid] += 1
        busy[nid] += durations[i]
        own[nid] += durations[i] - child_time[i]
    return {name: LayerTotals(calls[i], busy[i], own[i]) for i, name in enumerate(names)}


Probe = Callable[[tuple, object], None]


class Tracer:
    """Records spans for wrapped functions while installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, probe: Probe | None = None) -> Callable:
        """Return a function that records a span around each outermost call to fn.

        probe(args, result) runs after the span closes, for counters that
        need the arguments or the result.
        """
        nid = len(self.names)
        self.names.append(name)
        clock = self.clock
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        open_spans = self._open
        active = [False]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(open_spans[-1] if open_spans else -1)
            span_end.append(0.0)
            open_spans.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                open_spans.pop()
                active[0] = False
            if probe is not None:
                probe(args, result)
            return result

        return traced

    def install(self, name: str, owner: object, attr: str, package: str, probe: Probe | None = None) -> int:
        """Trace owner.attr, rebinding every name that refers to it.

        owner is a module or a class. For a module function, every module of
        ``package`` that binds the same object under any name is patched.
        Returns the number of bindings replaced.
        """
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, probe)
        namespaces: list[object] = [owner]
        if not isinstance(owner, type):
            namespaces = [
                mod for key, mod in sorted(sys.modules.items())
                if mod is not None and (key == package or key.startswith(package + "."))
            ]
        replaced = 0
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
                    self._patches.append((ns, key, original))
                    replaced += 1
        return replaced

    def uninstall(self) -> None:
        """Put every patched binding back."""
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    def totals(self) -> dict[str, LayerTotals]:
        return summarize(self.names, self.span_name, self.span_parent, self.span_start, self.span_end)

    def write_spans(self, path: str, count: int) -> None:
        """Write the first `count` spans, one per line: index, name, parent
        index, start and end in seconds from the first span."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tparent\tstart_s\tend_s\n")
            names = self.names
            spans = zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            for i, (nid, parent, start, end) in zip(range(count), spans):
                fh.write(f"{i}\t{names[nid]}\t{parent}\t{start - t0:.9f}\t{end - t0:.9f}\n")
