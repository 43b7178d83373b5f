"""Partitioned builds of a :class:`~repro.run.ModelSpec`.

:func:`make_plan` maps a spec to its partition plan and
:func:`build_partition` builds one slice of it as a :class:`PartitionHost`
for a worker's windowed run.  A host is a :class:`~repro.run._Run` like
the sequential run in :mod:`repro.run`: instruments attach, the driver is
built and the run is summarised by the same code.
"""

from __future__ import annotations

from typing import Any

from repro.errors import SimulationError
from repro.parallel.exchange import Envelope
from repro.parallel.partition import PartitionPlan, basil_plan, uniform_plan
from repro.run import (
    ModelSpec,
    PartitionResult,
    _MicrobenchState,
    _microbench_schedule,
    _Run,
    build_system,
)

# The byte-frozen basilbench/ imports ModelSpec and SequentialRun from here:
# this line goes with ROADMAP item 9's PR, which edits only basilbench/.
from repro.run import SequentialRun  # noqa: F401
from repro.sim.loop import Simulator


def make_plan(spec: ModelSpec) -> PartitionPlan:
    if spec.kind == "basil":
        return basil_plan(spec.system_config(), spec.num_clients)
    if spec.kind == "microbench":
        return uniform_plan(spec.partitions, spec.lookahead)
    raise SimulationError(
        f"model kind {spec.kind!r} is sequential-only (use workers=1)"
    )


# ---------------------------------------------------------------------------
# Partition hosts
# ---------------------------------------------------------------------------
class PartitionHost(_Run):
    """One partition's runtime inside a worker process.

    Lifecycle: ``start()`` (schedule initial work; no events execute),
    then per window ``deliver(env)*`` + ``sim.run(until=bound)`` driven
    by the worker loop, then ``finalize()`` once all windows are done.
    Outbound cross-partition messages accumulate in ``take_outbox()``.
    """

    def __init__(
        self, spec: ModelSpec, system: Any, sim: Simulator, plan: PartitionPlan, pid: int
    ) -> None:
        super().__init__(spec, system, sim, partition_id=pid)
        self.plan = plan
        self._outbox: list[Envelope] = []
        self._seq = 0

    def start(self) -> None:
        raise NotImplementedError

    def deliver(self, env: Envelope) -> None:
        raise NotImplementedError

    def finalize(self) -> PartitionResult:
        raise NotImplementedError

    def _emit(
        self, src: str, dst: str, dst_partition: int, delay: float, payload: Any
    ) -> None:
        """Queue one cross-partition message for the next window report."""
        now = self.sim.now
        self._outbox.append(
            Envelope(
                src=src,
                dst=dst,
                src_partition=self.partition_id,
                dst_partition=dst_partition,
                seq=self._seq,
                send_time=now,
                deliver_time=now + delay,
                payload=payload,
            )
        )
        self._seq += 1

    def take_outbox(self) -> tuple[Envelope, ...]:
        out = tuple(self._outbox)
        self._outbox.clear()
        return out


class BasilPartitionHost(PartitionHost):
    """One Basil partition: a shard's replicas, or the client slice."""

    def __init__(self, spec: ModelSpec, plan: PartitionPlan, pid: int) -> None:
        system = build_system("basil", spec.system_config(), partition=plan.slice(pid))
        super().__init__(spec, system, system.sim, plan, pid)
        self.is_client_partition = pid == plan.num_partitions - 1
        self._cross_received = 0
        system.network.bind_partition(self._remote_send, plan.lookahead)

    def _remote_send(self, src: str, dst: str, message: Any, delay: float) -> None:
        instruments = self.sim.instruments
        if instruments is None:
            self._build_envelope(src, dst, message, delay)
        else:
            # The serialization seam of the parallel envelope path: the
            # pickling itself happens in the worker's pipe send
            # (exchange.pipe), but envelope construction and routing are
            # per-message and attributable here.
            instruments.frame(
                "exchange.envelope", self._build_envelope, src, dst, message, delay
            )

    def _build_envelope(self, src: str, dst: str, message: Any, delay: float) -> None:
        # The network has already held the delay to the plan's lookahead.
        self._emit(src, dst, self.plan.partition_of(dst), delay, message)

    def start(self) -> None:
        if self.is_client_partition:
            self._start_runner()
        else:
            self.system.load(self.spec.make_workload().genesis())

    def deliver(self, env: Envelope) -> None:
        self._cross_received += 1
        self.sim._schedule(
            max(env.deliver_time, self.sim.now),
            self.system.network.deliver_remote,
            env.src,
            env.dst,
            env.payload,
        )

    def finalize(self) -> PartitionResult:
        return self._summarize(
            cross_sent=self._seq,
            cross_received=self._cross_received,
        )


class MicrobenchPartitionHost(PartitionHost):
    """The scale-ladder kernel load: a large standing timer population.

    Each partition hosts ``spec.timers`` self-rescheduling timers (fixed
    per-timer periods drawn once from the partition's ``timers`` RNG
    stream), so the pending-event population stays constant at ``K`` for
    the whole run — exactly the regime where partition-local heaps beat
    one global heap.  Every ``cross_every``-th fire emits a
    cross-partition ping with delay ``1.5 * lookahead``; deliveries fold
    into an order-independent XOR digest so sequential and windowed
    executions of the same spec can be compared exactly.
    """

    def __init__(self, spec: ModelSpec, plan: PartitionPlan, pid: int) -> None:
        sim = Simulator(seed=spec.system_config().seed, partition_id=pid)
        super().__init__(spec, None, sim, plan, pid)
        self._state = _MicrobenchState()
        self._cross_delay = 1.5 * plan.lookahead

    def start(self) -> None:
        _microbench_schedule(
            self.sim,
            self.partition_id,
            self.sim.rng("timers"),
            self.spec,
            self._state,
            self._emit_cross,
        )

    def _emit_cross(self, dst_partition: int) -> None:
        self._emit(
            f"p{self.partition_id}", f"p{dst_partition}", dst_partition,
            self._cross_delay, None,
        )

    def deliver(self, env: Envelope) -> None:
        self.sim._schedule(
            max(env.deliver_time, self.sim.now),
            self._state.fold_cross,
            env.deliver_time,
            env.src_partition,
            env.seq,
        )

    def finalize(self) -> PartitionResult:
        state = self._state
        return self._summarize(
            digest=state.digest(),
            cross_sent=self._seq,
            cross_received=state.cross_received,
            extra={"fires": state.fires},
        )


def build_partition(spec: ModelSpec, plan: PartitionPlan, pid: int) -> PartitionHost:
    if spec.kind == "basil":
        return BasilPartitionHost(spec, plan, pid)
    if spec.kind == "microbench":
        return MicrobenchPartitionHost(spec, plan, pid)
    raise SimulationError(f"model kind {spec.kind!r} has no partitioned build")


