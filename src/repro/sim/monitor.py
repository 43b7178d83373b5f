"""Measurement: counters, latency histograms, and interval throughput.

The bench harness (:mod:`repro.bench`) reads these to produce the same
rows/series the paper's figures report: committed transactions per second,
mean/percentile latency, commit rate, and fast-path rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def metric_key(name: str, labels: dict[str, str] | None) -> str:
    """Canonical storage key for a (name, label set) pair.

    Unlabeled metrics keep their bare name, so every pre-existing key
    (``"commits"``, ``"offered"``) is unchanged.  Labeled metrics render
    as ``name{k=v,...}`` with keys sorted, so the same label set always
    maps to the same series regardless of call-site keyword order.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing counter, optionally labeled."""

    def __init__(self, name: str, labels: dict[str, str] | None = None) -> None:
        self.name = name
        self.labels = labels or {}
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A point-in-time value that can move both ways (queue depth, views).

    Unlike a :class:`Counter` it is ``set`` as often as it is
    incremented; ``reset`` returns it to zero so one gauge can be reused
    across measurement windows.
    """

    def __init__(self, name: str, labels: dict[str, str] | None = None) -> None:
        self.name = name
        self.labels = labels or {}
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float = 1.0) -> None:
        self.value += amount

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Stores raw samples; supports mean and percentiles.

    Sample counts in this reproduction are small enough (tens of
    thousands) that exact storage beats bucketing.
    """

    def __init__(self, name: str, labels: dict[str, str] | None = None) -> None:
        self.name = name
        self.labels = labels or {}
        self._samples: list[float] = []
        self._sorted = True

    def record(self, value: float) -> None:
        self._samples.append(value)
        self._sorted = False

    def reset(self) -> None:
        self._samples.clear()
        self._sorted = True

    def sum(self) -> float:
        return sum(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def percentile(self, p: float) -> float:
        """Linearly interpolated percentile; ``p`` in [0, 100].

        Uses the standard ``(n - 1)``-spaced interpolation (numpy's
        ``linear`` mode): sample ``i`` sits at percentile ``100 * i /
        (n - 1)`` and queries between samples interpolate.  The previous
        nearest-rank rule jumped discontinuously at extreme ``p`` with
        few samples — ``p99`` of a 50-sample histogram *was* the single
        maximum, so one outlier swung knee detection (repro.load) by an
        arbitrary factor.  Interpolation keeps p0 = min and p100 = max
        exact while making everything in between vary continuously.

        Edge cases are explicit: an empty histogram reports 0.0 (there
        is no latency to report), a single sample is every percentile,
        and an out-of-range ``p`` is a caller bug, not a clamp.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p!r}")
        if not self._samples:
            return 0.0
        if len(self._samples) == 1:
            return self._samples[0]
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        position = (p / 100.0) * (len(self._samples) - 1)
        lower = math.floor(position)
        frac = position - lower
        if frac == 0.0 or lower + 1 >= len(self._samples):
            return self._samples[lower]
        return self._samples[lower] + frac * (self._samples[lower + 1] - self._samples[lower])

    def max(self) -> float:
        return max(self._samples) if self._samples else 0.0

    def summary(self) -> dict[str, float]:
        """The stats every report wants: count, mean, p50/p95/p99, max."""
        return {
            "count": self.count,
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max(),
        }


@dataclass
class MeasurementWindow:
    """Only events with timestamps inside [start, end) are counted."""

    start: float = 0.0
    end: float = math.inf

    def contains(self, t: float) -> bool:
        return self.start <= t < self.end

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Monitor:
    """Collects every statistic an experiment reports.

    A monitor has a measurement window so warm-up and cool-down samples
    can be excluded, matching the paper's 90s runs with 30s warm-up.
    """

    window: MeasurementWindow = field(default_factory=MeasurementWindow)
    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str, **labels: str) -> Counter:
        key = metric_key(name, labels)
        counter = self.counters.get(key)
        if counter is None:
            counter = Counter(name, labels)
            self.counters[key] = counter
        return counter

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = metric_key(name, labels)
        gauge = self.gauges.get(key)
        if gauge is None:
            gauge = Gauge(name, labels)
            self.gauges[key] = gauge
        return gauge

    def histogram(self, name: str, **labels: str) -> Histogram:
        key = metric_key(name, labels)
        hist = self.histograms.get(key)
        if hist is None:
            hist = Histogram(name, labels)
            self.histograms[key] = hist
        return hist

    def reset(self) -> None:
        """Zero every metric in place (series identity is preserved)."""
        for counter in self.counters.values():
            counter.reset()
        for gauge in self.gauges.values():
            gauge.reset()
        for hist in self.histograms.values():
            hist.reset()

    # -- transaction-level recording --------------------------------------
    def record_commit(
        self, now: float, latency: float, fast_path: bool, tag: str = "", txn: str = ""
    ) -> None:
        """One commit; also counted under ``tag`` (the client group) and
        under ``txn`` (the transaction's name) when given."""
        if not self.window.contains(now):
            return
        self.counter("commits").add()
        self.histogram("commit_latency").record(latency)
        if fast_path:
            self.counter("fast_path_commits").add()
        if tag:
            self.counter("commits", tag=tag).add()
        if txn:
            self.counter("commits", txn=txn).add()

    def record_abort(self, now: float, tag: str = "") -> None:
        if not self.window.contains(now):
            return
        self.counter("aborts").add()
        if tag:
            self.counter("aborts", tag=tag).add()

    def record_event(self, now: float, name: str) -> None:
        if not self.window.contains(now):
            return
        self.counter(name).add()

    # -- open-loop load accounting (repro.load) ---------------------------
    def record_offered(self, now: float) -> None:
        """One open-loop arrival (before any admission decision)."""
        if not self.window.contains(now):
            return
        self.counter("offered").add()

    def record_admitted(self, now: float) -> None:
        if not self.window.contains(now):
            return
        self.counter("admitted").add()

    def record_shed(self, now: float) -> None:
        """An arrival rejected by admission control (never executed)."""
        if not self.window.contains(now):
            return
        self.counter("shed").add()

    # -- derived metrics ---------------------------------------------------
    def throughput(self) -> float:
        """Committed transactions per simulated second in the window."""
        duration = self.window.duration
        if not math.isfinite(duration) or duration <= 0:
            return 0.0
        return self.counter("commits").value / duration

    def commit_rate(self) -> float:
        commits = self.counter("commits").value
        aborts = self.counter("aborts").value
        total = commits + aborts
        return commits / total if total else 0.0

    def fast_path_rate(self) -> float:
        commits = self.counter("commits").value
        if not commits:
            return 0.0
        return self.counter("fast_path_commits").value / commits

    def mean_latency(self) -> float:
        return self.histogram("commit_latency").mean()

    def p99_latency(self) -> float:
        return self.histogram("commit_latency").percentile(99)

    def offered_tps(self) -> float:
        """Open-loop arrivals per second in the window (0 in closed loop)."""
        duration = self.window.duration
        if not math.isfinite(duration) or duration <= 0:
            return 0.0
        return self.counter("offered").value / duration

    def goodput_tps(self) -> float:
        """Committed transactions per second — throughput(), named the way
        overload reports read (goodput vs offered load)."""
        return self.throughput()

    def shed_count(self) -> int:
        return self.counter("shed").value
