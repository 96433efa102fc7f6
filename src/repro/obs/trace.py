"""Span-based tracing against the simulated clock.

A :class:`Tracer` records *spans* (named intervals with attributes and
parent links) and *events* (named instants) against any clock — normally
a :class:`~repro.sim.core.Environment`, so every timestamp is simulated
time and traces are exactly reproducible for a fixed seed.

Spans come in kinds:

``migration``
    one end-to-end live migration (the root of a phase tree);
``phase``
    one migration step — ``dump``, ``restore``, ``catch-up``,
    ``handover`` — always a child of a ``migration`` span;
``round``
    one conductor propagation round (Algorithm 4);
``fault``
    one injected fault's active window, from injection to recovery (an
    open end means the fault never healed within the run);
``span``
    anything else.

Simulation code is generator-based, so the API is explicit
``start()`` / ``finish()``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Union

#: Span kinds with dedicated rendering in the timeline view.
MIGRATION = "migration"
PHASE = "phase"
ROUND = "round"
#: One injected fault's active window (open end = never recovered).
FAULT = "fault"
SPAN = "span"

#: The canonical migration phase names, in lifecycle order.
PHASE_ORDER = ("dump", "restore", "catch-up", "handover")


class Span:
    """One named interval; ``end`` stays ``None`` while the span is open."""

    __slots__ = ("span_id", "name", "kind", "start", "end", "parent_id",
                 "attrs")

    def __init__(self, span_id: int, name: str, kind: str, start: float,
                 parent_id: Optional[int] = None,
                 attrs: Optional[Dict[str, Any]] = None):
        self.span_id = span_id
        self.name = name
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.parent_id = parent_id
        self.attrs: Dict[str, Any] = dict(attrs or {})

    @property
    def open(self) -> bool:
        """Whether the span has not been finished yet."""
        return self.end is None

    @property
    def duration(self) -> Optional[float]:
        """Span length in simulated seconds (``None`` while open)."""
        if self.end is None:
            return None
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable record (the ``span`` line of the JSONL)."""
        return {"type": "span", "id": self.span_id, "name": self.name,
                "kind": self.kind, "start": self.start, "end": self.end,
                "parent": self.parent_id, "attrs": self.attrs}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return ("Span(%d, %r, kind=%r, start=%r, end=%r)"
                % (self.span_id, self.name, self.kind, self.start,
                   self.end))


class TraceEvent:
    """One named instant with attributes."""

    __slots__ = ("time", "name", "attrs")

    def __init__(self, time: float, name: str,
                 attrs: Optional[Dict[str, Any]] = None):
        self.time = time
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs or {})

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable record (the ``event`` line of the JSONL)."""
        return {"type": "event", "time": self.time, "name": self.name,
                "attrs": self.attrs}


class Tracer:
    """Records spans and events against a clock.

    ``clock`` is either an object with a ``now`` attribute (the
    simulation :class:`~repro.sim.core.Environment`) or a zero-argument
    callable returning the current time.

    ``max_records`` bounds memory under pathological workloads: once the
    combined span+event count reaches it, further records are counted in
    :attr:`dropped` instead of stored (finishing already-open spans still
    works).
    """

    def __init__(self, clock: Union[Callable[[], float], Any],
                 max_records: int = 200000):
        if callable(clock):
            self._clock = clock
        else:
            self._clock = lambda: clock.now
        self.max_records = max_records
        self.spans: List[Span] = []
        self.events: List[TraceEvent] = []
        self.dropped = 0
        self._next_id = 1

    # ------------------------------------------------------------------
    def _full(self) -> bool:
        return len(self.spans) + len(self.events) >= self.max_records

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def start(self, name: str, kind: str = SPAN,
              parent: Optional[Span] = None, **attrs: Any) -> Span:
        """Open a span at the current clock reading."""
        span = Span(self._next_id, name, kind, self._clock(),
                    parent_id=parent.span_id if parent is not None
                    else None,
                    attrs=attrs)
        self._next_id += 1
        if self._full():
            self.dropped += 1
        else:
            self.spans.append(span)
        return span

    def finish(self, span: Span, **attrs: Any) -> Span:
        """Close a span at the current clock reading, merging ``attrs``."""
        if span.end is None:
            span.end = self._clock()
        span.attrs.update(attrs)
        return span

    def phase(self, name: str, parent: Optional[Span] = None,
              **attrs: Any) -> Span:
        """Open a migration-phase span."""
        return self.start(name, kind=PHASE, parent=parent, **attrs)

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def event(self, name: str, **attrs: Any) -> TraceEvent:
        """Record an instantaneous event."""
        event = TraceEvent(self._clock(), name, attrs)
        if self._full():
            self.dropped += 1
        else:
            self.events.append(event)
        return event

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def find(self, name: Optional[str] = None,
             kind: Optional[str] = None,
             parent: Optional[Span] = None) -> List[Span]:
        """Spans matching every given criterion, in start order."""
        matches = []
        for span in self.spans:
            if name is not None and span.name != name:
                continue
            if kind is not None and span.kind != kind:
                continue
            if parent is not None and span.parent_id != parent.span_id:
                continue
            matches.append(span)
        matches.sort(key=lambda s: (s.start, s.span_id))
        return matches

    def phases(self, parent: Optional[Span] = None) -> List[Span]:
        """All phase spans (optionally under one migration)."""
        return self.find(kind=PHASE, parent=parent)

    def children(self, span: Span) -> List[Span]:
        """Direct children of ``span``, in start order."""
        return self.find(parent=span)

