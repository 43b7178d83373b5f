"""Open-loop load generation, admission control, and capacity planning.

The bench harness (:mod:`repro.bench`) drives *closed-loop* clients:
each waits for its transaction to finish before issuing the next, so
offered load self-limits at capacity and the latency–throughput curve
stops at the knee.  This package supplies the other half of the
methodology:

* :mod:`repro.load.arrivals` — Poisson / uniform / bursty (on-off MMPP)
  arrival processes on a dedicated ``"load"`` RNG stream.
* :mod:`repro.load.admission` — client-proxy admission control (static
  cap, AIMD shedding) driven by replica
  :class:`~repro.sim.node.LoadSignal` readings.
* :mod:`repro.load.generator` — the open-loop generator itself.
* :mod:`repro.load.planner` — offered-load sweeps, knee detection, and
  overload probes (``python -m repro sweep load``).

Determinism contract: with the load subsystem unconfigured, protocol
RNG streams and trace digests are byte-identical to a tree where this
package does not exist (``tests/load/test_determinism.py``).  The
package re-exports nothing, so an open-loop run loads the generator
without the planner (and the fault campaign the planner builds its
configs from): import from the defining module.
"""
