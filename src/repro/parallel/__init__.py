"""Space-parallel simulation: partitioned DES with deterministic merge.

The sequential kernel (:mod:`repro.sim.loop`) runs a whole deployment on
one event heap.  This package splits the node graph into *logical
partitions* (by shard, plus one partition for all clients), runs each
partition as its own :class:`~repro.sim.loop.Simulator`, and advances
them in conservative lookahead windows: no partition may execute past
the current window boundary until every cross-partition message bound
for that window has been exchanged.  The lookahead equals the minimum
one-way cross-partition network latency, so a message sent inside a
window can never be due for delivery inside the same window — the
windowed barrier exchange is always conservative.

``workers >= 2`` runs plain closed-loop Basil and the kernel
microbench; geo runs, fault schedules, obs recording, drains and
open-loop arrivals are ``workers=1`` only.

Determinism contract (see docs/parallel.md):

* The partition count is a function of the *topology*, never of the
  worker count.  Workers merely host one or more partitions, so a run
  with ``workers=2`` and one with ``workers=4`` execute byte-identical
  per-partition schedules and produce identical trace digests.
* ``workers=1`` does not window at all: it delegates to the sequential
  kernel and is byte-identical (same trace digest) to a plain
  sequential run.
* Inbound cross-partition messages are merged in the stable order
  ``(deliver_time, src_partition, seq)`` before scheduling.
* Every named RNG stream is derived from ``(seed, partition_id,
  stream)``; :func:`~repro.parallel.partition.audit_rng_streams`
  asserts no two partitions ever share a stream.
"""

from repro.parallel.exchange import Envelope, envelope_order, window_count
from repro.parallel.merge import combine_digests
from repro.parallel.models import make_plan
from repro.parallel.partition import PartitionPlan, PlanSlice, audit_rng_streams
from repro.parallel.runtime import ParallelResult, ParallelRunner
from repro.run import ModelSpec

__all__ = [
    "Envelope",
    "ModelSpec",
    "ParallelResult",
    "ParallelRunner",
    "PartitionPlan",
    "PlanSlice",
    "audit_rng_streams",
    "combine_digests",
    "envelope_order",
    "make_plan",
    "window_count",
]
