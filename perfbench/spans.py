"""In-memory spans and counts for the traced run.

A span is one timed call into a layer: name, start, end, parent span and the
unit of work it belongs to. Counts are recorded at the same boundaries.
Nothing is written while the run is measuring; ``to_document`` is called
once at the end.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    unit: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: list[tuple[str, str, float]] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, unit: str):
        parent = self._open[-1] if self._open else None
        rec = Span(len(self.spans), name, unit, parent, time.perf_counter())
        self.spans.append(rec)
        self._open.append(rec.id)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def count(self, name: str, unit: str, value: float) -> None:
        self.counts.append((name, unit, value))

    def self_seconds(self, span: Span) -> float:
        """Duration minus the part of it that child spans cover.

        Children of one span never overlap (one thread), so their union is
        their sum.
        """
        return span.seconds - sum(s.seconds for s in self.spans if s.parent == span.id)

    def per_unit(self, name: str) -> dict[str, float]:
        """Total seconds in spans called ``name``, by unit id."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s.name == name:
                out[s.unit] = out.get(s.unit, 0.0) + s.seconds
        return out

    def to_document(self) -> dict:
        return {
            "spans": [
                {"id": s.id, "name": s.name, "unit": s.unit, "parent": s.parent,
                 "start": s.start, "end": s.end, "self_s": self.self_seconds(s)}
                for s in self.spans
            ],
            "counts": [{"name": n, "unit": u, "value": v} for n, u, v in self.counts],
        }
