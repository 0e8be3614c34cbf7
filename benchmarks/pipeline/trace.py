"""Spans recorded from the benchmark's own files, and their arithmetic.

A span is ``(name, start, end, parent, op)``.  The traced pass is
serial — one op in flight — so spans recorded on any thread nest by
time containment under the op that was open when they ended; the
parent index is filled in by :func:`link_parents` when the pass is
over.  A layer's *self time* is its span's duration minus the part of
that interval its child spans cover.

Two ways in, both from outside ``src/``: :meth:`Tracer.wrap` replaces a
public callable on an instance (or module) the benchmark built with a
timing wrapper, restored by :meth:`Tracer.restore`; :meth:`Tracer.span`
brackets a call the benchmark itself makes into a layer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

Span = list  # [name, start, end, parent, op]

_MISSING = object()


class Tracer:
    """In-memory span recorder with restorable wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: str | None = None
        self._undo: list[Callable[[], None]] = []

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, -1, self.op])

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Bracket a call the benchmark makes into a layer."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, start, time.perf_counter())

    @contextmanager
    def operation(self, op: str) -> Iterator[None]:
        """One traced op: every span until exit carries its id."""
        self.op = op
        try:
            with self.span("loadgen.op"):
                yield
        finally:
            self.op = None

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to record one ``name`` span per call."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.record(name, start, time.perf_counter())

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Time a public callable of an instance or module in place."""
        previous = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, self.timed(name, getattr(owner, attr)))

        def undo() -> None:
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

        self._undo.append(undo)

    def on_restore(self, undo: Callable[[], None]) -> None:
        """Register a custom undo step (e.g. re-registering a handler)."""
        self._undo.append(undo)

    def restore(self) -> None:
        """Put every wrapped callable back, newest first."""
        while self._undo:
            self._undo.pop()()


def link_parents(spans: list[Span]) -> None:
    """Fill each span's parent index by time containment within its op."""
    order = sorted(range(len(spans)), key=lambda i: (spans[i][1], -spans[i][2]))
    stacks: dict[Any, list[int]] = {}
    for index in order:
        _name, start, end, _parent, op = spans[index]
        stack = stacks.setdefault(op, [])
        while stack and not (spans[stack[-1]][1] <= start and end <= spans[stack[-1]][2]):
            stack.pop()
        spans[index][3] = stack[-1] if stack else -1
        stack.append(index)


def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time: duration minus what direct children cover.

    Children of one parent never overlap each other in a serial pass
    (a child interval lies inside exactly one sibling chain), so the
    covered part is the plain sum of their durations.
    """
    out = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            out[span[3]] -= span[2] - span[1]
    return [max(0.0, value) for value in out]
