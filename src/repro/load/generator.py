"""The open-loop load generator.

Drives one system with arrivals from an :class:`~repro.load.arrivals`
process instead of the bench harness's closed-loop clients.  Arrivals
are independent of completions: when the system saturates, work piles up
(or is shed by the admission policy) instead of silently throttling the
offered rate, which is what lets :mod:`repro.load.planner` map the
latency–throughput curve past the knee.

Structure: one *driver* task samples inter-arrival gaps from the
dedicated ``"load"`` RNG stream; each admitted arrival becomes its own
simulator task running the drivers' one retry loop
(:meth:`repro.bench.runner.Driver._issue`) against a pool of
``proxies`` protocol clients (round-robin).  Clients issue monotonic
begin timestamps, so concurrent sessions on one proxy are safe.

Determinism: all generator randomness lives on the ``"load"``,
``"load-workload"``, and ``"load-backoff"`` streams — protocol streams
are untouched, so a run with the generator disabled is byte-identical
to one where :mod:`repro.load` was never imported (pinned by
``tests/load/test_determinism.py``).
"""

from __future__ import annotations

from typing import Any

from repro.bench.runner import BenchResult, Driver
from repro.config import AdmissionConfig, ArrivalConfig
from repro.load.admission import ADMIT, DELAY, SHED, AdmissionPolicy, make_policy
from repro.load.arrivals import ArrivalProcess, from_config


class OpenLoopGenerator(Driver):
    """Open-loop counterpart of :class:`repro.bench.runner.ExperimentRunner`.

    ``system`` must expose ``sim``, ``replicas``, ``create_client()`` and
    ``new_session(client)`` (Basil, TAPIR, and TxSMR all do).  Latency is
    measured from *arrival* to commit, so admission-delay and queueing
    time count — the client-visible number an overloaded service shows.
    """

    def __init__(
        self,
        system: Any,
        workload: Any,
        arrivals: ArrivalProcess | ArrivalConfig,
        admission: AdmissionPolicy | AdmissionConfig | None = None,
        duration: float = 1.0,
        warmup: float = 0.25,
        proxies: int = 8,
        name: str = "",
        injector: Any = None,
        recorder: Any = None,
    ) -> None:
        self.arrivals = (
            from_config(arrivals) if isinstance(arrivals, ArrivalConfig) else arrivals
        )
        super().__init__(
            system, workload, duration, warmup,
            name or f"{getattr(workload, 'name', 'load')}@{self.arrivals.rate:.0f}",
            injector, recorder,
        )
        if admission is None:
            admission = AdmissionConfig()
        self.policy = (
            make_policy(admission) if isinstance(admission, AdmissionConfig) else admission
        )
        self.proxies = proxies
        #: Admitted-but-unfinished transactions (the policy's input).
        self.in_flight = 0

    def _start(self, end_time: float) -> None:
        sim = self.system.sim
        self._clients = [self.system.create_client() for _ in range(self.proxies)]
        self._next_proxy = 0
        if self.recorder is not None:
            self.recorder.attach(self.system, until=end_time)
        # First in _tasks: finalize() cancels the driver before the arrivals.
        self._tasks.append(sim.create_task(self._drive(end_time), name="load-driver"))

    # ------------------------------------------------------------------
    async def _drive(self, end_time: float) -> None:
        sim = self.system.sim
        rng = sim.rng("load")
        while True:
            gap = self.arrivals.next_interarrival(rng, sim.now)
            await sim.sleep(gap)
            if sim.now >= end_time:
                return
            self._arrival(sim.now)

    def _arrival(self, arrived: float) -> None:
        sim = self.system.sim
        self.monitor.record_offered(arrived)
        task = self.workload.next_transaction(sim.rng("load-workload"))
        decision = self.policy.decide(arrived, self.in_flight, self.system)
        if decision == ADMIT:
            self._admit(task, arrived)
        elif decision == DELAY:
            self._tasks.append(
                sim.create_task(self._parked(task, arrived), name="load-parked")
            )
        else:
            self._shed(arrived)

    def _shed(self, now: float) -> None:
        self.monitor.record_shed(now)
        instruments = self.system.sim.instruments
        if instruments is not None:
            instruments.load_shed(self.in_flight)

    async def _parked(self, task: Any, arrived: float) -> None:
        """Delay-mode parking: re-check until a slot frees or we time out."""
        sim = self.system.sim
        config = self.policy.config
        while True:
            await sim.sleep(config.retry_delay)
            if sim.now - arrived > config.max_queue_delay:
                self._shed(sim.now)
                return
            decision = self.policy.decide(sim.now, self.in_flight, self.system)
            if decision == ADMIT:
                if sim.instruments is not None:
                    sim.instruments.load_queued(arrived)
                self._admit(task, arrived)
                return
            if decision == SHED:
                self._shed(sim.now)
                return

    def _admit(self, task: Any, arrived: float) -> None:
        sim = self.system.sim
        self.monitor.record_admitted(sim.now)
        if sim.instruments is not None:
            sim.instruments.load_admitted()
        self.policy.on_admit(sim.now)
        self.in_flight += 1
        client = self._clients[self._next_proxy]
        self._next_proxy = (self._next_proxy + 1) % len(self._clients)
        self._tasks.append(
            sim.create_task(self._execute(client, task, arrived), name="load-txn")
        )

    async def _execute(self, client: Any, task: Any, arrived: float) -> None:
        sim = self.system.sim
        rng = sim.rng("load-backoff")
        started = sim.now
        committed = False
        try:
            committed = await self._issue(client, task, rng, arrived, "open")
        finally:
            self.in_flight -= 1
            self.policy.on_done(sim.now, committed)
            if sim.instruments is not None:
                sim.instruments.load_inflight(started, committed, started - arrived)

    # ------------------------------------------------------------------
    def _result(self) -> BenchResult:
        monitor = self.monitor
        return self._row(
            **self._monitor_fields(),
            offered_tps=monitor.offered_tps(),
            goodput_tps=monitor.goodput_tps(),
            shed_count=monitor.shed_count(),
            extra={
                "admitted": monitor.counter("admitted").value,
                "policy": self.policy.name,
                "policy_stats": dict(self.policy.stats),
                "arrival_rate": self.arrivals.rate,
                "gave_up": monitor.counter("gave_up").value,
                "protocol_errors": monitor.counter("protocol_errors").value,
            },
        )
