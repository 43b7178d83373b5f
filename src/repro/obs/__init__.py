"""Time-series telemetry, protocol health monitors, and run analytics.

The fourth observability layer of the reproduction (after tracing,
fault campaigns, and wall-clock profiling):

* :mod:`repro.obs.registry` — labeled Counter/Gauge/Histogram registry,
  zero-cost when not attached (``Simulator.attach_metrics``), with
  Prometheus-text and JSONL exporters.
* :mod:`repro.obs.ticker` — samples the registry (plus node/store
  probes) on a simulated-time ticker into in-memory time series.
* :mod:`repro.obs.health` — declarative health rules ("fallback rate >
  X/s for Y sim-seconds = degraded") evaluated into per-run verdicts.
* :mod:`repro.obs.report` — the ``RunReport`` artifact (config digest,
  run digest, metric series, health verdicts).
* :mod:`repro.obs.compare` / :mod:`repro.obs.html` — cross-run diffs
  with tolerance-flagged deltas and a self-contained HTML rendering.
* :mod:`repro.obs.recorder` — one-call wiring for bench/load/fault runs.

Telemetry is **off by default**: with no registry attached and no
ticker configured, a run's schedule and digest are byte-identical
to a build without this package (pinned by golden-digest tests).

CLI: ``python -m repro run --obs DIR`` writes a report, ``python -m repro
compare A B`` diffs two and ``python -m repro list`` prints the health
rules (see docs/observability.md).

This package imports nothing: import each name from the module that
defines it (``from repro.obs.recorder import ObsRecorder``), so a run
loads only the telemetry it records.
"""
