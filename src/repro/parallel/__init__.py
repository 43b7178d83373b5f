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

:class:`~repro.parallel.runtime.ParallelRunner` takes ``workers >= 2``
and runs plain closed-loop Basil and the kernel microbench; geo runs,
fault schedules, obs recording, drains and open-loop arrivals are
``workers=1`` only, and every ``workers=1`` run is a
:class:`~repro.run.SequentialRun`.

Determinism contract (see docs/parallel.md):

* The partition count is a function of the *topology*, never of the
  worker count.  Workers merely host one or more partitions, so a run
  with ``workers=2`` and one with ``workers=4`` execute byte-identical
  per-partition schedules and produce identical run digests.
* The windowed microbench digest equals the one-heap
  :class:`~repro.run.SequentialRun` digest of the same spec.
* Inbound cross-partition messages are merged in the stable order
  ``(deliver_time, src_partition, seq)`` before scheduling.
* Every named RNG stream is derived from ``(seed, partition_id,
  stream)``; :func:`~repro.parallel.partition.audit_rng_streams`
  asserts no two partitions ever share a stream.

This package imports nothing: import each name from the module that
defines it (``from repro.parallel.runtime import ParallelRunner``), so
a sequential run never loads the worker machinery.
"""
