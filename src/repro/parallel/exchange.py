"""The windowed cross-partition exchange protocol (wire records).

Workers and the coordinator speak a barrier/null-message hybrid over
``multiprocessing`` pipes.  Simulated time is cut into lookahead windows
of width ``W = plan.lookahead``; window ``k`` covers the half-open span
``(k*W, (k+1)*W]`` (the kernel's ``run(until=U)`` is inclusive of
``U``).  The protocol per window:

1. The coordinator sends every worker a :class:`WindowGrant` carrying
   the window index, the time bound, and all envelopes routed to the
   worker's partitions (messages *sent* during the previous window).
2. Each worker sorts each partition's inbound envelopes by
   :func:`envelope_order`, schedules them, runs that partition's
   simulator up to the bound, and replies with one
   :class:`WindowReport` per partition.  An empty report is the null
   message — it still advances the barrier.
3. The coordinator routes the reported envelopes into the next grant.

Conservatism: any message sent at time ``t`` in window ``k`` has
``t > k*W`` and delivery delay ``>= W`` (enforced by
``Network.bind_partition``), so its delivery time is strictly after
``(k+1)*W`` — always in a window that has not started yet.  Deliveries
that land exactly on a window boundary execute at their exact simulated
time at the start of the next window's run, which is the same virtual
time either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.run import PartitionResult

@dataclass(frozen=True)
class Envelope:
    """One cross-partition message in serializable form.

    ``seq`` is assigned per *sending partition* in send order, so the
    merge key ``(deliver_time, src_partition, seq)`` is a total order
    that is independent of how partitions are packed onto workers.
    """

    src: str
    dst: str
    src_partition: int
    dst_partition: int
    seq: int
    send_time: float
    deliver_time: float
    payload: Any


def envelope_order(env: Envelope) -> tuple[float, int, int]:
    """The stable cross-partition merge key (ties never depend on
    arrival order or worker packing)."""
    return (env.deliver_time, env.src_partition, env.seq)


def window_count(end_time: float, lookahead: float) -> int:
    """Number of lookahead windows needed to reach ``end_time``."""
    if end_time <= 0.0:
        return 0
    return max(1, math.ceil(end_time / lookahead - 1e-9))


@dataclass(frozen=True)
class WindowGrant:
    """Coordinator -> worker: permission to execute one window."""

    window: int
    until: float  #: run each partition's simulator to this bound (inclusive)
    inbound: dict[int, tuple[Envelope, ...]]  #: partition id -> envelopes


@dataclass(frozen=True)
class WindowReport:
    """Worker -> coordinator: one partition's outbound for one window.

    An empty ``outbound`` is the protocol's null message: it carries no
    traffic but proves the partition has reached the window boundary.
    """

    window: int
    partition_id: int
    outbound: tuple[Envelope, ...]


@dataclass(frozen=True)
class WorkerReady:
    """Worker -> coordinator: partitions built, measurement may start."""

    worker_id: int


@dataclass(frozen=True)
class WorkerResult:
    """Worker -> coordinator: final report after the last window."""

    worker_id: int
    partitions: tuple[PartitionResult, ...]
    wall_s: float
    #: Worker-level profile (``spec.prof``/``spec.prof_deep`` only):
    #: ``{"attr": exchange-seam attribution table, "deep": collapsed
    #: stacks}``.  Partition-level attribution rides each
    #: PartitionResult's ``extra["prof"]`` instead.
    prof: dict[str, Any] | None = None


@dataclass(frozen=True)
class WorkerError:
    """Worker -> coordinator: the run died; ``error`` is the traceback."""

    worker_id: int
    error: str
