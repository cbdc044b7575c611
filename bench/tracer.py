"""Span tracer that wraps public callables from outside the library.

A target is (owner, attribute, span name): `owner` is the module or class
through which the caller resolves the callable, so the wrapper is seen
exactly where the caller looks it up.  Installing replaces each attribute
with a wrapper that records one span per call; leaving the context puts
every original object back.  Spans stay in memory until `take()`.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

_MISSING = object()


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int = 0
    parent: int | None = None  # index into the tracer's span list
    meta: dict | None = None

    @property
    def dur(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str, meta) -> Span:
        stack = self._stack
        span = Span(name, 0, parent=stack[-1] if stack else None, meta=meta)
        stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record one span around the body; nested spans become children."""
        span = self._open(name, None)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name: str, annotate):
        # _open and _close inlined, with their lookups bound once: a
        # replay-n10 operation opens about 25k spans.
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0, 0, stack[-1] if stack else None,
                        annotate(*args, **kwargs) if annotate else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
        return wrapper

    @contextmanager
    def installed(self, targets):
        """Wrap every (owner, attr, name[, annotate]) target; restore on exit.

        An attribute the owner only inherited is deleted again on exit
        rather than pinned, so the owner ends exactly as it started.
        """
        saved = []
        try:
            for owner, attr, name, *rest in targets:
                own = vars(owner).get(attr, _MISSING)
                fn = getattr(owner, attr)
                saved.append((owner, attr, own))
                setattr(owner, attr, self._wrap(fn, name, rest[0] if rest else None))
            yield self
        finally:
            for owner, attr, own in reversed(saved):
                if own is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, own)

    def take(self) -> list[Span]:
        """Hand over the finished spans and start an empty list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans = self.spans[:]
        self.spans.clear()  # wrappers hold on to this list
        return spans


def self_times(spans: list[Span]) -> list[int]:
    """Per-span duration minus the time its direct children cover (ns).

    Spans come from one thread, so children never overlap each other and
    lie inside their parent: the self times of a tree sum to its root's
    duration.
    """
    out = [s.dur for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.dur
    return out
