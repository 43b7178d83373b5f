"""The labeled metrics registry: the sim-wide sink for telemetry.

A :class:`MetricsRegistry` is what ``Simulator.attach_metrics``
installs; instrumented sites reach it through ``sim.instruments``.
It reuses the :class:`~repro.sim.monitor.Counter`/
:class:`~repro.sim.monitor.Gauge`/:class:`~repro.sim.monitor.Histogram`
primitives and adds:

* label sets — ``registry.counter("txn_aborts_total", reason="stale-read")``
  keys a distinct series per label combination;
* iteration in deterministic (insertion) order, so exports and the
  ticker's sampling are reproducible;
* exporters: Prometheus text format for the current state, and JSONL
  for sampled time series (see :mod:`repro.obs.ticker`).

The registry itself never touches the simulator: attaching one via
``Simulator.attach_metrics`` changes no schedules, draws no randomness,
and charges no CPU — instrumented sites only mutate plain Python ints.
"""

from __future__ import annotations

import json
from typing import Iterator, Union

from repro.sim.monitor import Counter, Gauge, Histogram, metric_key

Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Holds every registered metric, in registration order."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    # -- registration ---------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = Counter(name, labels)
            self._metrics[key] = metric
        return metric  # type: ignore[return-value]

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = Gauge(name, labels)
            self._metrics[key] = metric
        return metric  # type: ignore[return-value]

    def histogram(self, name: str, **labels: str) -> Histogram:
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(name, labels)
            self._metrics[key] = metric
        return metric  # type: ignore[return-value]

    # -- access ---------------------------------------------------------
    def get(self, name: str, **labels: str) -> Metric | None:
        return self._metrics.get(metric_key(name, labels))

    def __iter__(self) -> Iterator[tuple[str, Metric]]:
        return iter(self._metrics.items())

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        for metric in self._metrics.values():
            metric.reset()

    # -- summaries ------------------------------------------------------
    def histogram_summaries(self) -> dict[str, dict[str, float]]:
        """key -> count/mean/p50/p95/p99/max for every histogram."""
        return {
            key: metric.summary()
            for key, metric in self._metrics.items()
            if isinstance(metric, Histogram)
        }


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------
def _prom_escape(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format
    (backslash, double quote, and newline are the reserved characters)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_prom_escape(labels[k])}"' for k in sorted(labels))
    return "{" + inner + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry's current state in the Prometheus text exposition format.

    Counters and gauges expose their value; histograms are rendered as
    summaries (``quantile`` label) plus ``_count``/``_sum``, which is
    what exact-sample histograms map onto.
    """
    typed: dict[str, str] = {}
    lines: list[str] = []
    for _key, metric in registry:
        kind = (
            "counter"
            if isinstance(metric, Counter)
            else "gauge"
            if isinstance(metric, Gauge)
            else "summary"
        )
        if metric.name not in typed:
            typed[metric.name] = kind
            lines.append(f"# TYPE {metric.name} {kind}")
        if isinstance(metric, Histogram):
            for q in (0.5, 0.95, 0.99):
                labels = dict(metric.labels)
                labels["quantile"] = f"{q:g}"
                lines.append(
                    f"{metric.name}{_prom_labels(labels)} {metric.percentile(q * 100):g}"
                )
            base = _prom_labels(metric.labels)
            lines.append(f"{metric.name}_count{base} {metric.count}")
            lines.append(f"{metric.name}_sum{base} {metric.sum():g}")
        else:
            lines.append(f"{metric.name}{_prom_labels(metric.labels)} {metric.value:g}")
    return "\n".join(lines) + "\n"


def series_jsonl(series: list) -> str:
    """Sampled time series as JSON Lines: one series per line.

    Accepts the :class:`repro.obs.ticker.TimeSeries` list a ticker
    produced (or any object with ``to_dict()``).
    """
    return "\n".join(
        json.dumps(s.to_dict() if hasattr(s, "to_dict") else s, sort_keys=True)
        for s in series
    ) + ("\n" if series else "")


def write_series_jsonl(path: str, series: list) -> None:
    with open(path, "w") as fh:
        fh.write(series_jsonl(series))
