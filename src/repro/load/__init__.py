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
package does not exist (``tests/load/test_determinism.py``).
"""

from repro.load.admission import (
    AdditiveIncreaseShedding,
    AdmissionPolicy,
    NoAdmission,
    StaticCapPolicy,
    make_policy,
)
from repro.load.arrivals import (
    ArrivalProcess,
    BurstyArrivals,
    PoissonArrivals,
    UniformArrivals,
    from_config,
)
from repro.load.generator import OpenLoopGenerator
from repro.load.planner import SweepPoint, SweepReport, detect_knee, run_point, sweep

__all__ = [
    "AdditiveIncreaseShedding",
    "AdmissionPolicy",
    "ArrivalProcess",
    "BurstyArrivals",
    "NoAdmission",
    "OpenLoopGenerator",
    "PoissonArrivals",
    "StaticCapPolicy",
    "SweepPoint",
    "SweepReport",
    "UniformArrivals",
    "detect_knee",
    "from_config",
    "make_policy",
    "run_point",
    "sweep",
]
