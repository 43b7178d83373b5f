"""The deterministic flight recorder at the heart of `repro.trace`.

A :class:`Tracer` attaches to one :class:`~repro.sim.loop.Simulator` and
records structured events — (simulated timestamp, node, category, name,
optional duration, fields) — into a bounded in-memory ring buffer.
Instrumented sites throughout the simulator, crypto layer, and
protocol cores reach it through ``sim.instruments``
(:mod:`repro.sim.instruments`), which calls :meth:`Tracer.instant`,
:meth:`Tracer.complete`, or ``with tracer.span(...)``.

Two properties are load-bearing:

* **Zero overhead when absent.**  A simulator without a tracer builds
  no event: its sites find ``sim.instruments`` empty and skip the seam.
  Tracing never schedules events, never sleeps, never charges CPU, and
  never draws from an RNG stream — so attaching it cannot change
  simulated time, and leaving it off cannot change anything at all.

* **Determinism.**  Every recorded value derives from simulator state
  (names, types, seeded randomness, virtual time).  Two runs of the same
  config + seed produce byte-identical traces.  The recorder is bounded,
  so it is an export, not the oracle: the run digest is the network's
  delivery fingerprint (:meth:`repro.sim.network.Network.digest`).

This module imports nothing from the rest of ``repro`` so the sim kernel
can depend on it without cycles.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Iterator


class TraceEvent:
    """One recorded event.

    ``dur`` is ``None`` for instantaneous events and a duration in
    simulated seconds for spans.  ``fields`` must hold only
    JSON-serializable scalars (str/int/float/bool/None) so exports are
    canonical.
    """

    __slots__ = ("ts", "node", "category", "name", "dur", "fields")

    def __init__(
        self,
        ts: float,
        node: str,
        category: str,
        name: str,
        dur: float | None = None,
        fields: dict[str, Any] | None = None,
    ) -> None:
        self.ts = ts
        self.node = node
        self.category = category
        self.name = name
        self.dur = dur
        self.fields = fields or {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dur = "" if self.dur is None else f" dur={self.dur:.6f}"
        return f"<TraceEvent {self.ts:.6f} {self.node} {self.category}.{self.name}{dur}>"


class _Span:
    """Context manager that records a complete event on exit."""

    __slots__ = ("_tracer", "_node", "_category", "_name", "_fields", "_begin")

    def __init__(self, tracer: "Tracer", node: str, category: str, name: str, fields: dict) -> None:
        self._tracer = tracer
        self._node = node
        self._category = category
        self._name = name
        self._fields = fields
        self._begin = 0.0

    def set(self, key: str, value: Any) -> None:
        """Attach a field discovered while the span is open."""
        self._fields[key] = value

    def __enter__(self) -> "_Span":
        self._begin = self._tracer.now()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._tracer.complete(
            self._node, self._category, self._name, self._begin, self._tracer.now(),
            **self._fields,
        )


class Tracer:
    """A bounded in-memory flight recorder for one simulation.

    Attach with ``sim.attach_tracer(tracer)``; every instrumented layer
    then records through it (``sim.instruments.tracer``).  When the
    buffer is full the *oldest* events are evicted (flight-recorder
    semantics) and counted in :attr:`dropped_events`.
    """

    def __init__(self, *, capacity: int = 200_000) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped_events = 0
        #: The simulator whose clock stamps events; set by attach_tracer.
        self.sim: Any = None

    # -- clock ----------------------------------------------------------
    def now(self) -> float:
        if self.sim is None:
            raise RuntimeError("tracer is not attached to a simulator")
        return self.sim.now

    # -- recording ------------------------------------------------------
    def _append(self, event: TraceEvent) -> None:
        if len(self._events) == self.capacity:
            self.dropped_events += 1
        self._events.append(event)

    def instant(self, node: str, category: str, name: str, **fields: Any) -> None:
        """Record a point-in-time event at the current simulated time."""
        self._append(TraceEvent(self.now(), node, category, name, None, fields))

    def complete(
        self, node: str, category: str, name: str, begin: float, end: float, **fields: Any
    ) -> None:
        """Record a span with explicit boundaries (``begin <= end``)."""
        self._append(TraceEvent(begin, node, category, name, end - begin, fields))

    def span(self, node: str, category: str, name: str, **fields: Any) -> _Span:
        """Context manager measuring the simulated time its body spans."""
        return _Span(self, node, category, name, fields)

    # -- access ----------------------------------------------------------
    @property
    def events(self) -> tuple[TraceEvent, ...]:
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.dropped_events = 0
