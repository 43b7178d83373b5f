"""Closed-loop benchmark runner.

Mirrors the paper's methodology (Sec 6): clients execute in a closed
loop, re-issuing aborted transactions with exponential backoff; runs
have a warm-up and cool-down that are excluded from measurement; latency
is measured from first invocation of a transaction to the commit
notification (spanning retries).
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


class ExperimentRunner:
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
        max_retries: int = 50,
        backoff_base: float = 0.002,
        backoff_max: float = 0.05,
        name: str = "",
        client_factories: list[Callable[[], Any]] | None = None,
        tag_transactions: bool = False,
        verify_history: bool = False,
        injector: Any = None,
        recorder: Any = None,
        drain: float = 0.2,
        cancel_at_end: bool = True,
    ) -> None:
        self.system = system
        self.workload = workload
        self.num_clients = num_clients
        self.duration = duration
        self.warmup = warmup
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.name = name or getattr(workload, "name", "bench")
        self.client_factories = client_factories
        self.tag_transactions = tag_transactions
        #: Run the Byz-serializability oracle over the final state
        #: (Basil systems only; see repro.verify.history).
        self.verify_history = verify_history
        #: Optional repro.faults.FaultInjector; armed against the system
        #: at run() so its schedule unfolds during the benchmark.
        self.injector = injector
        #: Optional repro.obs.recorder.ObsRecorder; attached to the system
        #: at run() so telemetry is sampled for the whole benchmark.
        self.recorder = recorder
        #: Fault-free time simulated after the run before verify_history
        #: (drains in-flight writebacks and recoveries).
        self.drain = drain
        #: False lets clients finish their in-flight transaction during a
        #: later drain instead of being cancelled mid-2PC (which strands
        #: prepared-but-undecided state the way a crashed client would).
        self.cancel_at_end = cancel_at_end
        self.monitor = Monitor(
            window=MeasurementWindow(start=warmup, end=warmup + duration)
        )

    # ------------------------------------------------------------------
    def run(self) -> BenchResult:
        end_time = self.setup()
        self.system.sim.run(until=end_time)
        return self.finalize()

    def setup(self) -> float:
        """Wire up the benchmark without advancing time; returns end_time.

        ``run()`` is ``setup(); sim.run(until=end_time); finalize()`` —
        the split exists for the space-parallel runtime
        (:mod:`repro.parallel`), whose worker advances time in lookahead
        windows between the two halves.
        """
        sim = self.system.sim
        if self.injector is not None:
            self.injector.attach(self.system)
        self.system.load(self.workload.genesis())
        end_time = self.warmup + self.duration + self.warmup  # + cool-down
        if self.recorder is not None:
            self.recorder.attach(self.system, until=end_time)
        self._tasks = []
        self._end_time = end_time
        self.correct_clients = 0
        self.byz_clients = 0
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
        return end_time

    def finalize(self) -> BenchResult:
        """Tear down after time has reached ``end_time``; returns results."""
        sim = self.system.sim
        if self.cancel_at_end:
            for task in self._tasks:
                task.cancel()
        if self.verify_history:
            from repro.verify.history import HistoryChecker

            sim.run(until=self._end_time + self.drain)  # drain writebacks
            HistoryChecker(self.system).assert_ok()
        return self._result()

    async def _client_loop(self, client: Any, rng, end_time: float) -> None:
        sim = self.system.sim
        is_byz = getattr(client, "byzantine", False)
        group = "byz" if is_byz else "correct"
        while sim.now < end_time:
            task = self.workload.next_transaction(rng)
            started = sim.now
            retries = 0
            while True:
                session = self.system.new_session(client)
                try:
                    await task.body(session)
                    result = await session.commit()
                except ProtocolError:
                    self.monitor.record_event(sim.now, "protocol_errors")
                    break
                if result.committed:
                    tag = task.name if self.tag_transactions else group
                    self.monitor.record_commit(
                        sim.now, sim.now - started, result.fast_path, tag=tag
                    )
                    break
                self.monitor.record_abort(sim.now, tag=group)
                if is_byz:
                    break  # faulty aborted txns are not retried (Sec 6.4)
                retries += 1
                if retries > self.max_retries or sim.now >= end_time:
                    self.monitor.record_event(sim.now, "gave_up")
                    break
                backoff = min(self.backoff_max, self.backoff_base * (2 ** (retries - 1)))
                await sim.sleep(rng.uniform(0, backoff))

    # ------------------------------------------------------------------
    def _result(self) -> BenchResult:
        monitor = self.monitor
        extra = {}
        correct = getattr(self, "correct_clients", self.num_clients)
        if getattr(self, "byz_clients", 0):
            correct_commits = monitor.counter("commits", tag="correct").value
            extra["correct_throughput"] = correct_commits / self.duration
            extra["correct_tps_per_client"] = (
                correct_commits / self.duration / max(1, correct)
            )
            extra["byz_commits"] = monitor.counter("commits", tag="byz").value
        reasons = abort_reasons(self.system)
        if reasons:
            extra["abort_reasons"] = reasons
            extra["abort_taxonomy"] = self._taxonomy_rollup(reasons)
        return BenchResult(
            name=self.name,
            throughput=monitor.throughput(),
            mean_latency=monitor.mean_latency(),
            p99_latency=monitor.p99_latency(),
            commit_rate=monitor.commit_rate(),
            fast_path_rate=monitor.fast_path_rate(),
            commits=monitor.counter("commits").value,
            aborts=monitor.counter("aborts").value,
            duration=self.duration,
            dropped=getattr(getattr(self.system, "network", None), "messages_dropped", 0),
            extra=extra,
        )

    @staticmethod
    def _taxonomy_rollup(reasons: dict[str, int]) -> dict[str, int]:
        from repro.core.mvtso import classify_abort

        rollup: dict[str, int] = {}
        for reason, count in reasons.items():
            bucket = classify_abort(reason)
            rollup[bucket] = rollup.get(bucket, 0) + count
        return dict(sorted(rollup.items()))
