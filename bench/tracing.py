"""In-memory span tracer that wraps the program's public functions from outside.

Spans are recorded by replacing module (or class) attributes with timing
wrappers, so the program itself carries no instrumentation.  The package
looks its collaborators up through module attributes (``sim.simulate_amps``,
``merton.fsum_rows``, ...), so a patched attribute is also seen by calls made
inside the package.  Everything runs in one thread: spans nest strictly and
the parent of a span is the innermost span open when it starts.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or None]
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def inside(self, prefix: str) -> bool:
        """True when an open span's name starts with ``prefix``."""
        return any(self.spans[i][0].startswith(prefix) for i in self._stack)

    def span_open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def span_close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("spans closed out of order")

    def wrap(self, name, fn, count=None):
        """Timing wrapper around ``fn``.

        ``name`` is a string or a callable of the call's arguments (for
        spans named after an argument).  ``count(tracer, out, *args,
        **kwargs)`` runs after the call, still inside the span's parents, to
        record counters derived from the call's arguments or result.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            idx = self.span_open(label)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.span_close(idx)
            if count is not None:
                count(self, out, *args, **kwargs)
            return out

        return wrapper


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for c in sorted(children[i], key=lambda k: spans[k][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a name, so a function
    that reaches itself (an override calling its base) is not counted twice.
    """
    selfs = self_times(spans)
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        st = stats[name]
        st["calls"] += 1
        st["self_s"] += selfs[i]
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            st["total_s"] += end - start
    return dict(stats)


class Patches:
    """Attribute replacements that are undone on exit."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()
        return False
