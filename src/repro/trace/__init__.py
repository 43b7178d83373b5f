"""Deterministic tracing & protocol observability.

The simulator reproduces the paper's *endpoints* (throughput, latency);
this subpackage opens the box in between:

* :mod:`repro.trace.tracer` — a zero-overhead-when-disabled flight
  recorder attached to the simulator, recording structured events and
  transaction-lifecycle spans.
* :mod:`repro.trace.export` — Chrome ``trace_event`` JSON export
  (viewable in ``chrome://tracing`` / Perfetto).
* :mod:`repro.trace.analysis` — per-phase latency breakdowns, per-node
  CPU utilization timelines, and network timelines computed from a
  recorded trace.

Because the DES is deterministic, traces are bit-identical across runs
for a given config + seed.  A trace is an export only: the determinism
oracle is the run digest, the delivery fingerprint every network folds
(:meth:`repro.sim.network.Network.digest`) with tracing on or off.

This ``__init__`` deliberately re-exports only the stdlib-only tracer
core; the sim kernel imports it, so it must not pull in analysis/export
(which depend on :mod:`repro.sim.monitor`).
"""

from repro.trace.tracer import TraceEvent, Tracer

__all__ = ["TraceEvent", "Tracer"]
