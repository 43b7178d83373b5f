"""Server nodes with a multi-core CPU queueing model.

The paper's throughput results are dominated by CPU saturation (signature
generation/verification competes with message processing for the 8 cores
of an m510).  :class:`Cpu` models a node's processor as a k-server FIFO
queue: protocol handlers ``await cpu.spend(cost)`` for every unit of work,
so a node's throughput ceiling emerges naturally from its offered load.
"""

from __future__ import annotations

import types
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Coroutine, Generator

from repro.config import NodeConfig
from repro.errors import SimulationError
from repro.sim.loop import Simulator, Task


@dataclass(frozen=True)
class LoadSignal:
    """One node's instantaneous load reading.

    Admission-control policies (:mod:`repro.load.admission`) poll these
    to decide whether a deployment is saturated.  ``busy_time`` is
    cumulative, so a windowed utilization is a delta between two
    readings divided by ``cores * elapsed``.
    """

    queue_depth: int  #: work items waiting for a core
    busy_cores: int  #: cores currently occupied
    cores: int
    busy_time: float  #: cumulative busy core-seconds

    @property
    def backlog_per_core(self) -> float:
        """Queued work items per core — the queueing-delay proxy."""
        return self.queue_depth / self.cores


class Cpu:
    """A k-core processor; work items queue FIFO across all cores.

    ``owner`` labels this CPU's trace events with the owning node's name.
    """

    __slots__ = ("sim", "cores", "owner", "_free", "_pending", "busy_time")

    def __init__(self, sim: Simulator, cores: int, owner: str = "") -> None:
        if cores < 1:
            raise ValueError("cpu needs at least one core")
        self.sim = sim
        self.cores = cores
        self.owner = owner
        self._free = cores
        #: FIFO of (wake, cost, enqueued) work items waiting for a core.
        self._pending: deque[tuple[Callable[["Cpu"], None], float, float]] = deque()
        self.busy_time = 0.0

    @types.coroutine
    def spend(self, cost: float) -> Generator[tuple["Cpu", float], "Cpu", None]:
        """Awaitable: occupy one core for ``cost`` simulated seconds (FIFO).

        This is the hottest call in the simulation (every crypto charge and
        message overhead lands here), so a charge is no future: awaiting
        it hands ``(cpu, cost)`` to the task that awaits it, which starts
        it at once (:meth:`_start`), and the completion record wakes that
        task directly, sending this Cpu in.  A charge is awaited inside a
        sim task; resumed by anything but its completion, it raises
        :class:`SimulationError`.  When the core-occupancy record fires,
        the next queued work item is started (its record scheduled)
        *before* the finished task resumes.
        """
        if cost > 0.0:
            if (yield self, cost) is not self:
                raise SimulationError(
                    "a CPU charge must be awaited inside a sim task: this one "
                    "was resumed without having run"
                )

    def _start(self, wake: Callable[["Cpu"], None], cost: float) -> None:
        """Take a core for a charge the awaiting task handed over, or queue."""
        instruments = self.sim.instruments
        if instruments is None:
            self._take(wake, cost)
        else:
            instruments.frame("cpu.spend", self._take, wake, cost)

    def _take(self, wake: Callable[["Cpu"], None], cost: float) -> None:
        sim = self.sim
        if self._free > 0 and not self._pending:
            self._free -= 1
            self.busy_time += cost
            sim._schedule(sim.now + cost, self._finish, wake, cost, sim.now)
        else:
            self._pending.append((wake, cost, sim.now))

    def _finish(self, wake: Callable[["Cpu"], None], cost: float, enqueued: float) -> None:
        sim = self.sim
        pending = self._pending
        if pending:
            nwake, ncost, nenq = pending.popleft()
            self.busy_time += ncost
            sim._schedule(sim.now + ncost, self._finish, nwake, ncost, nenq)
        else:
            self._free += 1
        if sim.instruments is not None:
            sim.instruments.cpu_work(self.owner, enqueued, cost)
        # A task cancelled meanwhile has ended: its wake-up returns at once.
        wake(self)

    def utilization(self, elapsed: float) -> float:
        """Fraction of aggregate core-time spent busy over ``elapsed``."""
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.cores)

    @property
    def queue_depth(self) -> int:
        """Work items waiting for a core right now."""
        return len(self._pending)

    def signal(self) -> LoadSignal:
        """Instantaneous load reading (pure observation, never schedules)."""
        return LoadSignal(
            queue_depth=len(self._pending),
            busy_cores=self.cores - self._free,
            cores=self.cores,
            busy_time=self.busy_time,
        )


class Node:
    """Base class for every simulated machine (replica, client, etc.).

    Subclasses implement :meth:`handle_message`; the network calls
    :meth:`deliver`, which spawns a task per message.  All CPU-significant
    work inside handlers should be charged via ``self.cpu.spend`` (the
    crypto layer does this automatically when bound to a node).
    """

    def __init__(self, sim: Simulator, name: str, config: NodeConfig | None = None) -> None:
        self.sim = sim
        self.name = name
        self.node_config = config or NodeConfig()
        self.cpu = Cpu(sim, self.node_config.cores, owner=name)
        #: Logical partition this node executes on in a space-parallel
        #: run (:mod:`repro.parallel`).  ``None`` in sequential runs.
        #: Set by the partitioned system builder; the parallel worker
        #: validates it against the partition plan, and messages to nodes
        #: in other partitions leave the worker as serializable envelopes
        #: (:class:`repro.parallel.exchange.Envelope`) instead of local
        #: events.
        self.partition_id: int | None = None
        #: Clock offset relative to true simulated time (models NTP skew).
        self.clock_offset = 0.0
        #: Geographic region hosting this node (:mod:`repro.geo`); empty
        #: in single-datacenter runs.  When set, region-aware metric
        #: sites add a ``region`` label so health rules can be evaluated
        #: per region.
        self.region = ""
        self.messages_received = 0
        self.messages_sent = 0
        #: True between crash() and restart(); a crashed node processes
        #: nothing and owns no live tasks.
        self.crashed = False
        #: Live tasks owned by this node; cancelled wholesale on crash so
        #: no stale callback of a dead node fires into the event loop.
        #: A dict (insertion-ordered) rather than a set: Task hashes by
        #: identity, so a set would iterate in memory-address order and
        #: crash-time cancellation would not be reproducible across runs.
        self._tasks: dict[Task, None] = {}
        self._handler_name = f"{name}/handle"  # built once, not per message

    # -- local clock ----------------------------------------------------
    @property
    def local_time(self) -> float:
        """This node's (possibly skewed) reading of the current time."""
        return self.sim.now + self.clock_offset

    # -- load observability ----------------------------------------------
    def load_signal(self) -> LoadSignal:
        """CPU occupancy/queue-depth snapshot for admission control."""
        return self.cpu.signal()

    # -- messaging ------------------------------------------------------
    def deliver(self, sender: str, message: Any) -> None:
        """Entry point used by the network; spawns a handler task."""
        if self.crashed:
            return
        self.messages_received += 1
        self.spawn(self._handle(sender, message), name=self._handler_name)

    async def _handle(self, sender: str, message: Any) -> None:
        overhead = self.node_config.message_overhead
        if overhead:
            await self.cpu.spend(overhead)
        await self.handle_message(sender, message)

    async def handle_message(self, sender: str, message: Any) -> None:
        raise NotImplementedError

    def spawn(self, coro: Coroutine[Any, Any, Any], name: str = "") -> Task:
        """Start a background task owned by this node."""
        task = self.sim.create_task(coro, name=name or self.name)
        if not task.done():
            self._tasks[task] = None
            task._owner = self._tasks  # the task leaves it when it ends
        return task

    # -- crash / restart -------------------------------------------------
    def crash(self) -> None:
        """Fail-stop this node.

        Every task the node owns is cancelled *now*, so nothing scheduled
        on its behalf (handler coroutines, dependency waits, in-flight
        signing work spawned via :meth:`spawn`) can fire later and send
        messages or mutate state from beyond the grave.  Subclasses that
        keep their own timers must cancel them in :meth:`on_crash`.
        """
        if self.crashed:
            return
        self.crashed = True
        tasks, self._tasks = list(self._tasks), {}
        for task in tasks:
            task.cancel()
        self.on_crash()

    def restart(self) -> None:
        """Bring a crashed node back (state retention is the subclass's
        business: by default everything in memory survives, modeling a
        restart from durable storage)."""
        if not self.crashed:
            return
        self.crashed = False
        self.on_restart()

    def on_crash(self) -> None:
        """Subclass hook: cancel node-owned timers, drop volatile state."""

    def on_restart(self) -> None:
        """Subclass hook: rebuild volatile state after a restart."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
