"""In-memory span recorder for the traced run.

Spans are recorded from outside the library: `installed` swaps a module
attribute for a timing wrapper and puts the original back on exit. The
library resolves these names at call time (for example
`DiagramOracle._compute` looks up `phrecon.persistence.lower_star_diagrams`
on every query), so nothing inside the package changes.

A span is (name, start, end, parent, instance, error, size): `parent` is the
index of the enclosing span or -1, `instance` the reconstruction it belongs
to, `error` the exception class name when the call raised, and `size` an
optional work count (simplices swept, for the oracle).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    instance: int
    error: str | None
    size: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.instance = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, size: int = 0):
        """Record the enclosed block as one span."""
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; children may finish first
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        error = None
        start = perf_counter()
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(name, start, end, parent, self.instance, error, size)

    def wrap(self, name: str, fn, size=None):
        """`fn` wrapped so every call records one span; `size(*args)` gives
        the span's work count."""

        def wrapper(*args, **kwargs):
            with self.span(name, size(*args) if size else 0):
                return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self, targets):
        """Swap each (module, attribute, span name, size) target for its
        wrapper while the block runs, then restore the originals."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _name, _size in targets]
        try:
            for (mod, attr, original), (_m, _a, name, size) in zip(saved, targets):
                setattr(mod, attr, self.wrap(name, original, size))
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def finished(self) -> list[Span]:
        if self._stack or any(s is None for s in self.spans):
            raise RuntimeError("span recorder read while a span is still open")
        return self.spans  # type: ignore[return-value]

    def write(self, path) -> None:
        """Write all spans, one JSON array per line, once at the end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(list(Span._fields)) + "\n")
            for s in self.finished():
                fh.write(json.dumps(list(s)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out
