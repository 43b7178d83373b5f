"""The coordinator: fork workers, barrier windows, merge results.

:class:`ParallelRunner` is the front door of :mod:`repro.parallel`: it
takes ``workers >= 2``, builds the partition plan, forks workers (each
hosting one or more logical partitions), and drives the windowed
exchange of :mod:`repro.parallel.exchange` to completion.  A
single-process run is :class:`~repro.run.SequentialRun`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import SimulationError
from repro.parallel.exchange import (
    Envelope,
    WindowGrant,
    WorkerError,
    WorkerReady,
    WorkerResult,
    window_count,
)
from repro.parallel.merge import combine_digests
from repro.parallel.models import make_plan
from repro.parallel.partition import audit_rng_streams
from repro.run import PARTITIONED_KINDS, ModelSpec, PartitionResult
from repro.sim.loop import collector_paused


@dataclass
class ParallelResult:
    """The merged outcome of one windowed run."""

    digest: str
    events: int
    workers: int
    partitions: int
    windows: int
    wall_s: float
    lookahead: float
    sim_seconds: float
    bench: dict[str, Any] | None = None
    cross_messages: int = 0
    undeliverable: int = 0  #: envelopes due after the end of the run
    per_partition: dict[int, dict[str, Any]] = field(default_factory=dict)
    #: Worker-level profiles (``spec.prof``/``spec.prof_deep``): one
    #: ``{"attr": ..., "deep": ...}`` dict per worker.  Per-partition
    #: attribution tables ride ``per_partition[pid]["prof"]``.
    prof: list[dict[str, Any]] = field(default_factory=list)


class ParallelRunner:
    """Run a :class:`ModelSpec` across ``workers >= 2`` processes."""

    def __init__(self, spec: ModelSpec, workers: int) -> None:
        if workers < 2:
            raise SimulationError(
                f"ParallelRunner runs the windowed kernel on workers >= 2, not "
                f"{workers}: run a single-process spec with repro.run.SequentialRun"
            )
        if spec.kind not in PARTITIONED_KINDS:
            raise SimulationError(
                f"model kind {spec.kind!r} only supports workers=1 "
                f"(partitioned kinds: {', '.join(PARTITIONED_KINDS)})"
            )
        for name in ("drain", "arrivals", "geo", "fault_schedule", "obs"):
            # The windowed kernel runs plain closed-loop Basil and the
            # microbench, the two configurations that were measured.
            value = getattr(spec, name)
            if value is not None and value is not False:
                raise SimulationError(f"ModelSpec.{name} only supports workers=1")
        self.spec = spec
        self.workers = workers

    def run(self) -> ParallelResult:
        spec = self.spec
        plan = make_plan(spec)
        ownership = plan.assign_workers(self.workers)
        num_workers = len(ownership)  # capped at plan.num_partitions
        end_time = spec.end_time()
        windows = window_count(end_time, plan.lookahead)

        import multiprocessing

        from repro.parallel.worker import worker_main

        ctx = multiprocessing.get_context("fork")
        links: list[_WorkerLink] = []
        try:
            for worker_id, owned in enumerate(ownership):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=worker_main,
                    args=(child, worker_id, spec, plan, owned),
                    daemon=True,
                )
                proc.start()
                child.close()
                links.append(_WorkerLink(worker_id, owned, parent, proc))

            for link in links:
                link.recv(WorkerReady)

            # Measurement starts after the build barrier: fork + system
            # construction + genesis load are setup, not simulation.
            t0 = time.perf_counter()
            pending: dict[int, list[Envelope]] = {
                pid: [] for pid in range(plan.num_partitions)
            }
            cross_messages = 0
            # Envelopes and grants are acyclic and die by reference count;
            # automatic collection here would only rescan the caller's heap.
            with collector_paused():
                for window in range(windows):
                    until = min((window + 1) * plan.lookahead, end_time)
                    for link in links:
                        inbound = {pid: tuple(pending[pid]) for pid in link.owned}
                        for pid in link.owned:
                            pending[pid] = []
                        link.send(WindowGrant(window, until, inbound))
                    for link in links:
                        for report in link.recv(tuple):
                            for env in report.outbound:
                                cross_messages += 1
                                pending[env.dst_partition].append(env)
            undeliverable = sum(len(v) for v in pending.values())

            for link in links:
                link.send(None)
            partition_results: dict[int, PartitionResult] = {}
            worker_profs: list[dict[str, Any]] = []
            for link in links:
                result = link.recv(WorkerResult)
                for part in result.partitions:
                    partition_results[part.partition_id] = part
                if result.prof is not None:
                    worker_profs.append(result.prof)
            wall = time.perf_counter() - t0
            for link in links:
                link.proc.join(timeout=30)
        finally:
            for link in links:
                if link.proc.is_alive():
                    link.proc.terminate()
                link.conn.close()

        return self._merge(
            plan, partition_results, num_workers, windows, wall, cross_messages,
            undeliverable, worker_profs,
        )

    def _merge(
        self,
        plan,
        results: dict[int, PartitionResult],
        num_workers: int,
        windows: int,
        wall: float,
        cross_messages: int,
        undeliverable: int,
        worker_profs: list[dict[str, Any]] | None = None,
    ) -> ParallelResult:
        spec = self.spec
        if len(results) != plan.num_partitions:
            raise SimulationError(
                f"merge expected {plan.num_partitions} partitions, "
                f"got {sorted(results)}"
            )
        audit_rng_streams(
            spec.system_config().seed,
            {pid: r.rng_streams for pid, r in results.items()},
        )
        digest = combine_digests({pid: r.digest for pid, r in results.items()})
        bench = next(
            (r.bench for _, r in sorted(results.items()) if r.bench is not None),
            None,
        )
        if bench is not None:
            bench = _fold_into_bench(bench, results)
        return ParallelResult(
            digest=digest,
            events=sum(r.events for r in results.values()),
            workers=num_workers,
            partitions=plan.num_partitions,
            windows=windows,
            wall_s=wall,
            lookahead=plan.lookahead,
            sim_seconds=max(r.now for r in results.values()),
            bench=bench,
            cross_messages=cross_messages,
            undeliverable=undeliverable,
            per_partition={pid: _summary(r) for pid, r in results.items()},
            prof=worker_profs or [],
        )


def _sum_counters(dicts) -> dict[str, int] | None:
    """Element-wise sum of counter dicts; None when the iterable is empty."""
    total: dict[str, int] | None = None
    for counters in dicts:
        if total is None:
            total = dict.fromkeys(counters, 0)
        for key, value in counters.items():
            total[key] = total.get(key, 0) + value
    return total


def _fold_into_bench(
    bench: dict[str, Any], results: dict[int, PartitionResult]
) -> dict[str, Any]:
    """Fold replica-partition state into the client partition's bench row.

    The sequential runner computes ``dropped`` and ``abort_reasons`` by
    looking at the whole system; in a partitioned run the client slice
    sees only its own network and no replicas, so the merge restores the
    sequential row schema: drops summed over every partition's network,
    abort reasons summed over the replica partitions.
    """
    from repro.bench.runner import ExperimentRunner

    bench = dict(bench)
    extra = dict(bench.get("extra") or {})
    bench["dropped"] = sum(r.messages_dropped for r in results.values())
    reasons = _sum_counters(
        r.abort_reasons for r in results.values() if r.abort_reasons is not None
    )
    if reasons:
        for reason, count in (extra.get("abort_reasons") or {}).items():
            reasons[reason] = reasons.get(reason, 0) + count
        extra["abort_reasons"] = dict(sorted(reasons.items()))
        extra["abort_taxonomy"] = ExperimentRunner._taxonomy_rollup(reasons)
    bench["extra"] = extra
    return bench


def _summary(result: PartitionResult) -> dict[str, Any]:
    return {
        "digest": result.digest,
        "events": result.events,
        "cross_sent": result.cross_sent,
        "cross_received": result.cross_received,
        "messages_delivered": result.messages_delivered,
        "messages_dropped": result.messages_dropped,
        **(result.extra or {}),
    }


class _WorkerLink:
    """The coordinator's end of one worker's pipe.

    A worker that exits without reporting a :class:`WorkerError` (killed,
    ``os._exit``, out of memory) leaves only a closed pipe behind; every
    send and receive goes through here so that surfaces as an error
    naming the worker and the partitions that went with it.
    """

    def __init__(self, worker_id: int, owned: tuple[int, ...], conn, proc) -> None:
        self.worker_id = worker_id
        self.owned = owned
        self.conn = conn
        self.proc = proc

    def send(self, message: Any) -> None:
        try:
            self.conn.send(message)
        except OSError as exc:
            raise self._exited() from exc

    def recv(self, kind: type) -> Any:
        try:
            message = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise self._exited() from exc
        if isinstance(message, WorkerError):
            raise SimulationError(
                f"worker {message.worker_id} failed:\n{message.error}"
            )
        if not isinstance(message, kind):
            raise SimulationError(f"unexpected exchange message {message!r}")
        return message

    def _exited(self) -> SimulationError:
        self.proc.join(timeout=1)  # reap it, so the exit code is known
        return SimulationError(
            f"worker {self.worker_id} (partitions "
            f"{', '.join(map(str, self.owned))}) exited with code "
            f"{self.proc.exitcode} before the run finished"
        )
