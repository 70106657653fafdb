"""In-memory spans around the calls the benchmark makes into ``bbqec``.

The wrappers live here, not in the package: :func:`install` replaces
public entry points with timing wrappers for the length of one traced
run and puts the originals back afterwards.  Spans are kept in a list
and summarised when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float | None = None
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder; the open spans form a stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")
        self._stack.pop()
        self.spans[idx].end = self.clock()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def wrap(self, fn, name: str, on_return=None):
        """Wrap fn in a span; on_return(tracer, span, result, args, kwargs)
        records counts from the return value after the span has closed."""

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_return is not None:
                on_return(self, self.spans[idx], result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def parent_of(self, span: Span) -> Span | None:
        return self.spans[span.parent] if span.parent is not None else None


def install(tracer: Tracer, targets) -> tuple[list[str], callable]:
    """Wrap each (owner, attribute, span name, on_return) target.

    Returns the span names whose attribute no longer exists, which the
    report lists as missing, and a function that restores the originals.
    """
    missing: list[str] = []
    undo: list[tuple[object, str, object]] = []
    for owner, attr, name, on_return in targets:
        original = getattr(owner, attr, None)
        if not callable(original):
            missing.append(name)
            continue
        setattr(owner, attr, tracer.wrap(original, name, on_return))
        undo.append((owner, attr, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return missing, restore


def phases(spans: list[Span]) -> list[str]:
    """Name of each span's outermost ancestor (itself for a root)."""
    out: list[str] = []
    for s in spans:
        # parents precede their children in the list
        out.append(s.name if s.parent is None else out[s.parent])
    return out


def ancestors_named(spans: list[Span], name: str) -> list[bool]:
    """Whether some strict ancestor of each span is called ``name``."""
    out: list[bool] = []
    for s in spans:
        if s.parent is None:
            out.append(False)
        else:
            out.append(out[s.parent] or spans[s.parent].name == name)
    return out


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Children of one span run one after another, so their durations add.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def profile(spans: list[Span]) -> dict[str, dict]:
    """Per span name: call count, total and self seconds."""
    table: dict[str, dict] = {}
    for s, self_s in zip(spans, self_times(spans)):
        row = table.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s.duration
        row["self_s"] += self_s
    return table
