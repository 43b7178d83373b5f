"""The runtime that applies a :class:`FaultSchedule` to one system.

The injector composes with the simulator through two existing seams:

* it wraps the network's :class:`~repro.sim.network.NetworkAdversary`
  (keeping the previous adversary as its inner stage), so partitions and
  link faults act on every message after the normal latency model; and
* it schedules crash/restart callbacks on the simulator clock, using
  ``Network.unregister``/``Node.crash`` so a dead replica neither
  receives messages nor fires stale callbacks.

Determinism contract (mirrors the tracer's): with an **empty schedule**
the injector draws no randomness, schedules no events, and forwards the
inner adversary's verdict unchanged — a run with an attached empty
injector is byte-identical (same run digest) to a run without one.
All probabilistic decisions draw from the dedicated ``"faults"`` RNG
stream, never from the network's, so enabling faults does not perturb
the no-fault portion of the schedule's randomness either.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Any

from repro.byzantine.replicas import REPLICA_BEHAVIOURS
from repro.errors import SimulationError
from repro.faults.spec import FaultSchedule
from repro.sim.network import PassiveAdversary

#: Stat counters the injector maintains (all start at zero).
_STATS = (
    "partition_drops",
    "link_drops",
    "duplicates",
    "reorders",
    "delayed",
    "crashes",
    "restarts",
    "byz_replicas",
)


class FaultInjector:
    """Interprets one schedule against one system; attach exactly once."""

    def __init__(self, schedule: FaultSchedule | None = None) -> None:
        self.schedule = (schedule or FaultSchedule()).validate()
        self.sim: Any = None
        self.network: Any = None
        self.system: Any = None
        self._inner: Any = PassiveAdversary()
        self._rng = None
        self._crashed: dict[str, Any] = {}
        self._links = self.schedule.links
        self._partitions = self.schedule.partitions
        self.stats: dict[str, int] = {name: 0 for name in _STATS}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, system: Any) -> "FaultInjector":
        """Install into ``system`` (any of Basil/TAPIR/TxSMR).

        Must run before traffic starts: Byzantine replica swaps reuse the
        replica's identity key, and crash events are scheduled on the
        simulator clock.  Returns self for chaining.
        """
        if self.network is not None:
            raise SimulationError("fault injector is already attached")
        self.system = system
        self.sim = system.sim
        self.network = system.network
        self._apply_byz_replicas(system)
        self._inner = self.network.adversary
        self.network.adversary = self
        for fault in self.schedule.crashes:
            for name in self._matching_replicas(system, fault.node):
                self.sim.call_at(fault.at, self._crash, name)
                if fault.restart_at is not None:
                    self.sim.call_at(fault.restart_at, self._restart, name)
        return self

    @staticmethod
    def _matching_replicas(system: Any, pattern: str) -> list[str]:
        """Replica names ``pattern`` selects (at least one, or an error)."""
        names = [name for name in system.replicas if fnmatchcase(name, pattern)]
        if not names:
            raise SimulationError(f"fault pattern {pattern!r} matches no replica")
        return names

    def _apply_byz_replicas(self, system: Any) -> None:
        for fault in self.schedule.byz_replicas:
            replica_cls = REPLICA_BEHAVIOURS[fault.behaviour]
            if not hasattr(system, "replace_replica"):
                raise SimulationError(
                    "byz-replica faults need a system with replace_replica (Basil)"
                )
            for name in self._matching_replicas(system, fault.node):
                system.replace_replica(name, replica_cls)
                self.stats["byz_replicas"] += 1

    @property
    def rng(self):
        """The dedicated fault RNG stream (created on first use)."""
        if self._rng is None:
            self._rng = self.sim.rng("faults")
        return self._rng

    # ------------------------------------------------------------------
    # NetworkAdversary interface
    # ------------------------------------------------------------------
    def intercept(self, src: str, dst: str, message: Any, base_delay: float) -> float | None:
        delay = self._inner.intercept(src, dst, message, base_delay)
        if delay is None:
            return None
        now = self.sim.now
        for partition in self._partitions:
            if partition.active(now) and partition.separates(src, dst):
                self.stats["partition_drops"] += 1
                return None
        for link in self._links:
            if not link.active(now) or not link.matches(src, dst):
                continue
            if link.drop_rate and self.rng.random() < link.drop_rate:
                self.stats["link_drops"] += 1
                return None
            if link.extra_delay or link.delay_jitter:
                delay += link.extra_delay
                if link.delay_jitter:
                    delay += self.rng.uniform(0.0, link.delay_jitter)
                self.stats["delayed"] += 1
            if link.duplicate_rate and self.rng.random() < link.duplicate_rate:
                offset = self.rng.uniform(0.0, link.reorder_spread)
                self.network.inject(src, dst, message, delay + offset)
                self.stats["duplicates"] += 1
            if link.reorder_rate and self.rng.random() < link.reorder_rate:
                delay += self.rng.uniform(0.0, link.reorder_spread)
                self.stats["reorders"] += 1
        return delay

    # ------------------------------------------------------------------
    # Crash / restart events
    # ------------------------------------------------------------------
    def _crash(self, name: str) -> None:
        if name in self._crashed:
            return  # two crash faults matched the same node
        node = self.network.unregister(name)
        node.crash()
        self._crashed[name] = node
        self.stats["crashes"] += 1
        if self.sim.instruments is not None:
            self.sim.instruments.fault(name, "crash")

    def _restart(self, name: str) -> None:
        node = self._crashed.pop(name, None)
        if node is None:
            return
        node.restart()
        self.network.register(node)
        self.stats["restarts"] += 1
        if self.sim.instruments is not None:
            self.sim.instruments.fault(name, "restart")

    # ------------------------------------------------------------------
    def faults_applied(self) -> int:
        """Total individual fault actions taken (for reports/tests)."""
        return sum(self.stats.values())
