"""Sampling registered metrics on a simulated-time ticker.

A :class:`MetricsTicker` wakes every ``interval`` simulated seconds and
snapshots every metric in a :class:`~repro.obs.registry.MetricsRegistry`
into in-memory :class:`TimeSeries` (counters and gauges sample their
value; histograms sample ``_count`` and ``_sum`` so rates and running
means are derivable without storing raw samples per tick).

Probes extend sampling to state that is observed rather than pushed:
``Node.load_signal()`` queue depths, ``prepares_waiting`` on replicas,
version-store sizes.  A probe is a zero-argument callable returning
``(name, labels, value)`` triples; it must be a pure observation —
probes run inside the tick event and may not schedule, draw randomness,
or mutate protocol state.

The ticker is the *only* part of the obs stack that schedules events.
It is never installed by default: an unconfigured run has no ticker and
its event schedule — hence its golden digest — is untouched.  When
installed, tick events interleave with protocol events deterministically
(same seed, same series), and the tick callback itself only reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.sim.monitor import Histogram, metric_key

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import MetricsRegistry

Probe = Callable[[], Iterable[tuple[str, dict[str, str], float]]]


@dataclass
class TimeSeries:
    """One sampled series: ``points`` is [(sim_time, value), ...]."""

    name: str
    labels: dict[str, str] = field(default_factory=dict)
    points: list[tuple[float, float]] = field(default_factory=list)

    @property
    def key(self) -> str:
        return metric_key(self.name, self.labels)

    def last(self) -> float:
        return self.points[-1][1] if self.points else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "points": [[t, v] for t, v in self.points],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TimeSeries":
        return cls(
            name=data["name"],
            labels=dict(data.get("labels", {})),
            points=[(float(t), float(v)) for t, v in data.get("points", [])],
        )


class MetricsTicker:
    """Periodically samples a registry (plus probes) on simulated time."""

    def __init__(self, registry: MetricsRegistry, interval: float = 0.005) -> None:
        if interval <= 0:
            raise ValueError("ticker interval must be positive")
        self.registry = registry
        self.interval = interval
        self.probes: list[Probe] = []
        self.ticks = 0
        self.sim: Any = None
        self._series: dict[str, TimeSeries] = {}
        self._handle: Any = None
        self._until: float | None = None

    # -- wiring ---------------------------------------------------------
    def add_probe(self, probe: Probe) -> None:
        self.probes.append(probe)

    def attach(self, sim: Any, until: float | None = None) -> None:
        """Start ticking on ``sim``; stop rescheduling past ``until``."""
        self.sim = sim
        self._until = until
        self._handle = sim.call_later(self.interval, self._tick)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # -- sampling -------------------------------------------------------
    def _record(self, name: str, labels: dict[str, str], now: float, value: float) -> None:
        key = metric_key(name, labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = TimeSeries(name, dict(labels))
        series.points.append((now, value))

    def sample(self, now: float) -> None:
        """Snapshot every metric and probe at time ``now``."""
        for _key, metric in self.registry:
            if isinstance(metric, Histogram):
                self._record(metric.name + "_count", metric.labels, now, metric.count)
                self._record(metric.name + "_sum", metric.labels, now, metric.sum())
            else:
                self._record(metric.name, metric.labels, now, metric.value)
        for probe in self.probes:
            for name, labels, value in probe():
                self._record(name, labels, now, value)

    def _tick(self) -> None:
        now = self.sim.now
        self.sample(now)
        self.ticks += 1
        if self._until is not None and now + self.interval > self._until:
            self._handle = None
            return
        self._handle = self.sim.call_later(self.interval, self._tick)

    # -- results --------------------------------------------------------
    def series(self) -> list[TimeSeries]:
        return list(self._series.values())
