"""Workload drivers and the bench row.

Mirrors the paper's methodology (Sec 6): clients re-issue aborted
transactions with exponential backoff; runs have a warm-up and cool-down
that are excluded from measurement; latency is measured from first
invocation of a transaction to the commit notification (spanning
retries).

:class:`Driver` holds that policy once — the lifecycle, the end time,
the retry loop and the bench row.  Three drivers subclass it: the
closed-loop :class:`ExperimentRunner` here, the open-loop
:class:`repro.load.generator.OpenLoopGenerator` and the geo serving tier
:class:`repro.geo.runner.GeoRunner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ProtocolError
from repro.sim.monitor import MeasurementWindow, Monitor


@dataclass
class BenchResult:
    """Results of one benchmark run (one configuration point)."""

    name: str
    throughput: float  # committed txns per simulated second
    mean_latency: float  # seconds
    p99_latency: float
    commit_rate: float  # commits / (commits + aborted attempts)
    fast_path_rate: float
    commits: int
    aborts: int
    duration: float
    #: Messages the network dropped over the whole run (loss + adversary).
    dropped: int = 0
    #: Open-loop load columns (repro.load); all zero in closed-loop runs
    #: and then omitted from row(), so existing tables read unchanged.
    offered_tps: float = 0.0
    goodput_tps: float = 0.0
    shed_count: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

    def row(self) -> str:
        row = (
            f"{self.name:<28} {self.throughput:>10.1f} tx/s  "
            f"lat {self.mean_latency * 1000:7.2f} ms  p99 {self.p99_latency * 1000:7.2f} ms  "
            f"commit {self.commit_rate * 100:5.1f}%  fast {self.fast_path_rate * 100:5.1f}%  "
            f"drop {self.dropped}"
        )
        if self.offered_tps:
            row += f"  offered {self.offered_tps:>9.1f} tx/s  shed {self.shed_count}"
        return row


def abort_reasons(system: Any) -> dict[str, int]:
    """Per-reason MVTSO abort tallies summed over ``system``'s replicas.

    Basil replicas tally these unconditionally (plain dict increments,
    no telemetry needed); baseline systems have no such dict and
    contribute nothing, as does a partition that hosts no replicas.
    """
    totals: dict[str, int] = {}
    for replica in getattr(system, "replicas", {}).values():
        for reason, count in getattr(replica, "abort_reasons", {}).items():
            totals[reason] = totals.get(reason, 0) + count
    return dict(sorted(totals.items()))


#: The retry policy every driver applies to an aborted transaction: up to
#: ``MAX_RETRIES`` re-issues, each after a uniform random sleep in
#: ``[0, b]``, ``b`` doubling from ``BACKOFF_BASE`` up to ``BACKOFF_MAX``.
MAX_RETRIES = 50
BACKOFF_BASE = 0.002
BACKOFF_MAX = 0.05


class Driver:
    """The lifecycle every workload driver shares.

    ``run()`` is ``setup(); sim.run(until=end_time); finalize()``.  The
    split exists for the run pipeline (:mod:`repro.run`) and the
    space-parallel runtime (:mod:`repro.parallel`), which advance time
    between the two halves.  ``setup()`` arms the fault injector, loads
    genesis, then calls the subclass's ``_start(end_time)``, which
    schedules its load and attaches the recorder; ``finalize()`` cancels
    ``_tasks`` and returns the subclass's ``_result()``.
    """

    #: False lets the driver's tasks finish their in-flight transaction
    #: during a later drain instead of being cancelled mid-2PC (which
    #: strands prepared-but-undecided state the way a crashed client would).
    cancel_at_end = True

    def __init__(
        self,
        system: Any,
        workload: Any,
        duration: float,
        warmup: float,
        name: str,
        injector: Any,
        recorder: Any,
    ) -> None:
        self.system = system
        self.workload = workload
        self.duration = duration
        self.warmup = warmup
        self.name = name
        #: Optional repro.faults.FaultInjector; armed against the system
        #: at setup() so its schedule unfolds during the run.
        self.injector = injector
        #: Optional repro.obs.recorder.ObsRecorder; attached to the system
        #: at setup() so telemetry is sampled for the whole run.
        self.recorder = recorder
        self.end_time = warmup + duration + warmup  # + cool-down
        self.monitor = Monitor(
            window=MeasurementWindow(start=warmup, end=warmup + duration)
        )
        self._tasks: list[Any] = []

    def run(self) -> BenchResult:
        self.system.sim.run(until=self.setup())
        return self.finalize()

    def setup(self) -> float:
        """Wire up the run without advancing time; returns ``end_time``."""
        if self.injector is not None:
            self.injector.attach(self.system)
        self.system.load(self.workload.genesis())
        self._start(self.end_time)
        return self.end_time

    def finalize(self) -> BenchResult:
        """Stop the load once time has reached ``end_time``; returns results."""
        if self.cancel_at_end:
            for task in self._tasks:
                task.cancel()
        return self._result()

    def _start(self, end_time: float) -> None:
        raise NotImplementedError

    def _result(self) -> BenchResult:
        raise NotImplementedError

    async def _issue(
        self, client: Any, task: Any, rng: Any, started: float, tag: str
    ) -> bool:
        """Run ``task`` on ``client`` until it commits or is given up;
        returns whether it committed.

        Latency runs from ``started`` to the commit notification, spanning
        retries.  An aborted attempt is re-issued after a backoff drawn
        from ``rng`` — except a Byzantine client's (faulty aborted txns
        are not retried, Sec 6.4) and a ``ProtocolError``'s.  Commits are
        counted under ``tag`` and under the transaction's name (the
        ``txn`` label); aborts under ``tag``.
        """
        sim, monitor = self.system.sim, self.monitor
        retries = 0
        while True:
            session = self.system.new_session(client)
            try:
                await task.body(session)
                result = await session.commit()
            except ProtocolError:
                monitor.record_event(sim.now, "protocol_errors")
                return False
            if result.committed:
                monitor.record_commit(
                    sim.now, sim.now - started, result.fast_path, tag=tag, txn=task.name
                )
                return True
            monitor.record_abort(sim.now, tag=tag)
            if getattr(client, "byzantine", False):
                return False
            retries += 1
            if retries > MAX_RETRIES or sim.now >= self.end_time:
                monitor.record_event(sim.now, "gave_up")
                return False
            backoff = min(BACKOFF_MAX, BACKOFF_BASE * (2 ** (retries - 1)))
            await sim.sleep(rng.uniform(0, backoff))

    def _row(self, **fields: Any) -> BenchResult:
        """The bench row: ``fields`` plus the name, window and drops."""
        network = getattr(self.system, "network", None)
        return BenchResult(
            name=self.name,
            duration=self.duration,
            dropped=getattr(network, "messages_dropped", 0),
            **fields,
        )

    def _monitor_fields(self) -> dict[str, Any]:
        """The row fields a run that records into ``monitor`` reports."""
        monitor = self.monitor
        return dict(
            throughput=monitor.throughput(),
            mean_latency=monitor.mean_latency(),
            p99_latency=monitor.p99_latency(),
            commit_rate=monitor.commit_rate(),
            fast_path_rate=monitor.fast_path_rate(),
            commits=monitor.counter("commits").value,
            aborts=monitor.counter("aborts").value,
        )


class ExperimentRunner(Driver):
    """Drives ``num_clients`` closed-loop clients over one system.

    ``system`` must expose ``sim``, ``create_client()`` and
    ``new_session(client)``; Basil, TAPIR, and TxSMR all do.  Byzantine
    client classes can be mixed in via ``client_factories``.
    """

    def __init__(
        self,
        system: Any,
        workload: Any,
        num_clients: int = 20,
        duration: float = 1.0,
        warmup: float = 0.25,
        name: str = "",
        client_factories: list[Callable[[], Any]] | None = None,
        injector: Any = None,
        recorder: Any = None,
        cancel_at_end: bool = True,
    ) -> None:
        super().__init__(
            system, workload, duration, warmup,
            name or getattr(workload, "name", "bench"), injector, recorder,
        )
        self.num_clients = num_clients
        self.client_factories = client_factories
        self.cancel_at_end = cancel_at_end
        self.correct_clients = 0
        self.byz_clients = 0

    def _start(self, end_time: float) -> None:
        sim = self.system.sim
        if self.recorder is not None:
            self.recorder.attach(self.system, until=end_time)
        for i in range(self.num_clients):
            if self.client_factories is not None:
                client = self.client_factories[i % len(self.client_factories)]()
            else:
                client = self.system.create_client()
            if getattr(client, "byzantine", False):
                self.byz_clients += 1
            else:
                self.correct_clients += 1
            rng = sim.rng(f"bench-client-{i}")
            self._tasks.append(
                sim.create_task(
                    self._client_loop(client, rng, end_time), name=f"bench-{i}"
                )
            )

    async def _client_loop(self, client: Any, rng, end_time: float) -> None:
        sim = self.system.sim
        group = "byz" if getattr(client, "byzantine", False) else "correct"
        while sim.now < end_time:
            task = self.workload.next_transaction(rng)
            await self._issue(client, task, rng, sim.now, group)

    def _result(self) -> BenchResult:
        monitor = self.monitor
        extra = {}
        if self.byz_clients:
            correct_commits = monitor.counter("commits", tag="correct").value
            extra["correct_throughput"] = correct_commits / self.duration
            extra["correct_tps_per_client"] = (
                correct_commits / self.duration / max(1, self.correct_clients)
            )
            extra["byz_commits"] = monitor.counter("commits", tag="byz").value
        reasons = abort_reasons(self.system)
        if reasons:
            extra["abort_reasons"] = reasons
            extra["abort_taxonomy"] = self._taxonomy_rollup(reasons)
        return self._row(**self._monitor_fields(), extra=extra)

    @staticmethod
    def _taxonomy_rollup(reasons: dict[str, int]) -> dict[str, int]:
        from repro.core.mvtso import classify_abort

        rollup: dict[str, int] = {}
        for reason, count in reasons.items():
            bucket = classify_abort(reason)
            rollup[bucket] = rollup.get(bucket, 0) + count
        return dict(sorted(rollup.items()))
