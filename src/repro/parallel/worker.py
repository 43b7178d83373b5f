"""The worker-process side of the windowed exchange.

``worker_main`` is the top-level entry point each forked worker runs: it
builds its owned partitions from the (picklable) spec + plan, signals
readiness, then executes lookahead windows as the coordinator grants
them.  A worker may own several partitions (workers <= partitions);
each partition is its own simulator, so ownership cannot affect
schedules — only which process pays for them.
"""

from __future__ import annotations

import time
import traceback

from repro.parallel.exchange import (
    WindowReport,
    WorkerError,
    WorkerReady,
    WorkerResult,
    envelope_order,
)
from repro.parallel.models import build_partition
from repro.parallel.partition import PartitionPlan
from repro.run import ModelSpec
from repro.sim.loop import collector_paused


def worker_main(
    conn,
    worker_id: int,
    spec: ModelSpec,
    plan: PartitionPlan,
    owned: tuple[int, ...],
) -> None:
    """Run ``owned`` partitions to completion over pipe ``conn``.

    Protocol: send WorkerReady; then for each received
    :class:`WindowGrant` run every owned partition to the grant's bound
    and reply with a tuple of :class:`WindowReport`; a ``None`` grant
    ends the run, answered with a :class:`WorkerResult`.  Any exception
    is reported as a :class:`WorkerError` (traceback included) instead
    of dying silently.
    """
    try:
        profiler = None
        deep = None
        if spec.prof:
            from repro.prof.profiler import Profiler

            # Worker-level seams the per-partition profilers can't see:
            # pipe waits (coordinator barrier) and report serialization.
            profiler = Profiler()
        if spec.prof_deep:
            from repro.prof.deep import DeepProfiler

            deep = DeepProfiler()
        hosts = [build_partition(spec, plan, pid) for pid in owned]
        for host in hosts:
            host.start()
        conn.send(WorkerReady(worker_id))
        if deep is not None:
            deep.start()
        # One pause from the first window to the result on the pipe: a
        # per-window run() would hand the collector back and take it again
        # every window, and finalize() would have it rescan everything the
        # run left alive in a process that is about to exit.  The kernel's
        # own young-generation collection still runs.
        with collector_paused():
            t0 = time.perf_counter()
            while True:
                if profiler is not None:
                    # Blocked on the coordinator barrier: the parallel
                    # efficiency loss the attribution report must show.
                    profiler.begin("exchange.wait")
                    grant = conn.recv()
                    profiler.end()
                else:
                    grant = conn.recv()
                if grant is None:
                    break
                reports = []
                for host in hosts:
                    inbound = grant.inbound.get(host.partition_id, ())
                    if inbound:
                        # Deterministic merge: schedule in (deliver_time,
                        # src_partition, seq) order so local event sequence
                        # numbers never depend on arrival order.
                        for env in sorted(inbound, key=envelope_order):
                            host.deliver(env)
                    host.sim.run(until=grant.until)
                    reports.append(
                        WindowReport(grant.window, host.partition_id, host.take_outbox())
                    )
                if profiler is not None:
                    # Envelope pickling onto the pipe: the serialization cost
                    # of the cross-partition exchange.
                    profiler.begin("exchange.pipe")
                    conn.send(tuple(reports))
                    profiler.end()
                else:
                    conn.send(tuple(reports))
            wall = time.perf_counter() - t0
            if deep is not None:
                deep.stop()
            results = tuple(host.finalize() for host in hosts)
            prof = None
            if profiler is not None or deep is not None:
                prof = {
                    "attr": profiler.table() if profiler is not None else {},
                    "deep": dict(deep.collapsed) if deep is not None else None,
                }
            conn.send(WorkerResult(worker_id, results, wall, prof=prof))
    except BaseException:
        try:
            conn.send(WorkerError(worker_id, traceback.format_exc()))
        except Exception:
            pass
        raise
