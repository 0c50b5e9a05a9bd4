"""Spans recorded around calls into the library's public functions.

A traced pass replaces module attributes (``repro.checking.model_checker.
has_cycle``, ``repro.verification.campaigns.stress_test``, ...) with timing
wrappers for the duration of the pass, so every per-layer number comes from
the benchmark's own files and the library runs unmodified.  Spans nest by
call order on the tracing thread: a span's children are the wrapped calls
made while it was open, so children never overlap each other and a layer's
self time is its span's duration minus its children's durations.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    children: List["Span"] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        return self.duration - sum(child.duration for child in self.children)


def walk(span: Span) -> Iterator[Span]:
    yield span
    for child in span.children:
        yield from walk(child)


def reentries(root: Span) -> List[str]:
    """Spans opened inside a span of the same name.

    The layer's total then counts those seconds twice, so its figure is no
    longer a share of the pass.
    """
    found = []

    def visit(span: Span, open_names: frozenset) -> None:
        for child in span.children:
            if child.name in open_names:
                found.append(f"{child.name} re-entered itself")
            visit(child, open_names | {child.name})

    visit(root, frozenset())
    return found


def totals(root: Span) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, inclusive and self seconds, summed counters."""
    out: Dict[str, Dict[str, float]] = {}
    for span in walk(root):
        if span is root:
            continue
        entry = out.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += span.self_time()
        for key, value in span.counters.items():
            entry[key] = entry.get(key, 0) + value
    return out


#: ``(module, attribute, span name, observer)``; the observer, when given,
#: receives the span and the call's return value and records counters.
Target = Tuple[object, str, str, Optional[Callable[[Span, object], None]]]


class Tracer:
    """Collects one tree of spans rooted at the traced pass.

    Calls made on another thread than the one that created the tracer run
    untimed and are counted in ``off_thread``: one span stack cannot nest
    calls from two threads.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.root = Span("pass", clock())
        self._stack = [self.root]
        self._thread = threading.get_ident()
        self.off_thread = 0

    def problems(self) -> List[str]:
        """Reasons the finished tree's per-layer totals cannot be trusted."""
        found = reentries(self.root)
        if self.off_thread:
            found.append(f"{self.off_thread} traced calls ran off the tracing thread")
        return found

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = Span(name, self.clock())
        self._stack[-1].children.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def finish(self) -> Span:
        self.root.end = self.clock()
        return self.root

    def wrap(self, func: Callable, name: str, observe=None) -> Callable:
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                self.off_thread += 1
                return func(*args, **kwargs)
            with self.span(name) as span:
                result = func(*args, **kwargs)
                if observe is not None:
                    observe(span, result)
                return result

        return traced

    @contextmanager
    def patched(self, targets: Sequence[Target]) -> Iterator["Tracer"]:
        """Install timing wrappers on ``targets``; restore the originals on exit."""
        saved = []
        try:
            for module, attr, name, observe in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, observe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
