"""Message transport between nodes, with latency, loss, and adversary hooks.

The network is authenticated point-to-point (matching the paper's model):
the receiver learns the true sender identity, so a Byzantine node cannot
spoof message *origins* — only message *contents* under its own identity.

A pluggable :class:`NetworkAdversary` may delay, reorder (by delaying), or
drop messages.  Basil's safety must hold under any adversary; liveness
(Byzantine independence) is only promised when the adversary does not
fully control the network, mirroring Theorem 2's caveat.

Every message of every system is delivered by :meth:`Network._deliver`,
which folds it into the network's run fingerprint (:meth:`Network.digest`):
the run's determinism oracle, taken with instruments on or off.
"""

from __future__ import annotations

import zlib
from typing import Any, Iterable, Protocol

from repro.config import NetworkConfig
from repro.errors import SimulationError
from repro.sim.loop import Simulator
from repro.sim.node import Node


class NetworkAdversary(Protocol):
    """Decides the fate of each message: a delay in seconds, or None to drop."""

    def intercept(self, src: str, dst: str, message: Any, base_delay: float) -> float | None:
        """Return the actual delivery delay, or ``None`` to drop."""


class LatencyModel(Protocol):
    """Base one-way delivery delay as a function of the (src, dst) pair.

    Implementations must preserve the determinism contract: at most one
    ``rng.uniform`` draw per sampled message, taken if and only if the
    pair's jitter is non-zero, so that swapping models never perturbs
    unrelated draw sequences.
    """

    def sample(self, rng: Any, src: str, dst: str) -> float:
        """One sampled one-way delay for a ``src -> dst`` message."""

    def describe(self, src: str, dst: str) -> str:
        """Human-readable name of the link class serving this pair."""


class UniformLatency:
    """The classic single-link model: one base latency + uniform jitter.

    This is the default and is byte-identical to the old inlined
    ``Network`` arithmetic (same draw order, same floats): the golden
    digest of an unconfigured run pins that.
    """

    __slots__ = ("one_way", "jitter")

    def __init__(self, one_way: float, jitter: float = 0.0) -> None:
        self.one_way = one_way
        self.jitter = jitter

    def sample(self, rng: Any, src: str, dst: str) -> float:
        base = self.one_way
        if self.jitter:
            base += rng.uniform(0.0, self.jitter)
        return base

    def describe(self, src: str, dst: str) -> str:
        return f"uniform link ({self.one_way:g}s base)"


class _StableIds(dict):
    """Node name or message class -> crc32 of its name, computed once.

    ``hash(str)`` varies with ``PYTHONHASHSEED``; these ints do not, so a
    fingerprint folded from them is the same in every process.
    """

    def __missing__(self, key: Any) -> int:
        name = key if isinstance(key, str) else key.__qualname__
        value = self[key] = zlib.crc32(name.encode())
        return value


class PassiveAdversary:
    """Default adversary: delivers everything with the modeled latency."""

    def intercept(self, src: str, dst: str, message: Any, base_delay: float) -> float | None:
        return base_delay


class Network:
    """Routes messages between registered nodes on the simulator."""

    def __init__(
        self,
        sim: Simulator,
        config: NetworkConfig | None = None,
        adversary: NetworkAdversary | None = None,
        latency: LatencyModel | None = None,
    ) -> None:
        self.sim = sim
        self.config = config or NetworkConfig()
        self.adversary: NetworkAdversary = adversary or PassiveAdversary()
        #: Per-(src, dst) base delay; the uniform model reproduces the old
        #: single-link arithmetic exactly.
        self.latency: LatencyModel = latency or UniformLatency(
            self.config.one_way_latency, self.config.jitter
        )
        self._nodes: dict[str, Node] = {}
        #: Every name ever registered: lets ``send`` distinguish a typo'd
        #: destination (a bug — raise) from a crashed/unregistered node
        #: (a fault — drop the message).
        self._known: set[str] = set()
        #: Names that live in *other* partitions of a space-parallel run
        #: (:mod:`repro.parallel`).  Messages to them leave this network
        #: through ``_remote_send`` as serializable envelopes instead of
        #: local events.  Empty in sequential runs.
        self._remote: set[str] = set()
        #: Hook installed by ``bind_partition``: ``(src, dst, message,
        #: delay) -> None``.  The parallel runtime uses it to append the
        #: message to the partition's outbox for the windowed exchange.
        self._remote_send = None
        #: Conservative lookahead: every cross-partition delivery delay
        #: must be >= this bound, or the windowed exchange could deliver
        #: into a window another partition has already executed.
        self._lookahead = 0.0
        self._rng = sim.rng("network")
        self.messages_delivered = 0
        self.messages_dropped = 0
        self._ids = _StableIds()
        #: Ordered fold of every delivery's (source, destination, message
        #: type, time): :meth:`digest`.
        self._fingerprint = 0

    # -- membership -----------------------------------------------------
    def register(self, node: Node) -> None:
        if node.name in self._nodes:
            raise SimulationError(f"duplicate node name {node.name!r}")
        if node.name in self._remote:
            raise SimulationError(f"{node.name!r} is remote; cannot also be local")
        self._nodes[node.name] = node
        self._known.add(node.name)

    def unregister(self, name: str) -> Node:
        """Detach a node (crash): in-flight and future messages to it drop."""
        node = self._nodes.pop(name, None)
        if node is None:
            raise SimulationError(f"unknown node {name!r}")
        return node

    def node(self, name: str) -> Node:
        return self._nodes[name]

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    # -- space-parallel partitioning ------------------------------------
    def register_remote(self, name: str) -> None:
        """Declare ``name`` a real node hosted by another partition.

        Sends to it are routed through the cross-partition exchange; it
        is never a "typo'd destination" error and never a crashed-node
        drop.
        """
        if name in self._nodes:
            raise SimulationError(f"{name!r} is local; cannot also be remote")
        self._remote.add(name)
        self._known.add(name)

    def is_remote(self, name: str) -> bool:
        return name in self._remote

    def bind_partition(self, remote_send, lookahead: float) -> None:
        """Install the cross-partition send hook (parallel runtime only).

        ``remote_send(src, dst, message, delay)`` receives every message
        addressed to a node registered via :meth:`register_remote`, after
        the usual latency/drop/adversary treatment; ``delay`` is the full
        delivery delay and is guaranteed >= ``lookahead``.
        """
        if lookahead <= 0.0:
            raise SimulationError("cross-partition lookahead must be positive")
        self._remote_send = remote_send
        self._lookahead = lookahead

    # -- sending ----------------------------------------------------------
    def send(self, src: Node, dst: str, message: Any) -> None:
        """Fire-and-forget unicast from ``src`` to the node named ``dst``."""
        instruments = self.sim.instruments
        if instruments is None:
            self._send(src, dst, message)
        else:
            # The frame covers the full send path — latency sampling,
            # adversary, and the cross-partition leg; scheduling lands in
            # the nested heap_push frame.
            instruments.frame("network.send", self._send, src, dst, message)

    def _send(self, src: Node, dst: str, message: Any) -> None:
        """One path for local and cross-partition sends.

        Accounting, drop_rate, latency sampling and the adversary behave
        the same for both, drawing from this partition's own RNG
        streams; only the up-front destination check and the final
        hand-off (lookahead check + exchange envelope versus a local
        delivery event) depend on where ``dst`` lives.
        """
        instruments = self.sim.instruments
        remote = dst in self._remote
        if remote:
            if self._remote_send is None:
                raise SimulationError(
                    f"{dst!r} is remote but no partition exchange is bound"
                )
        elif dst not in self._nodes:
            if dst not in self._known:
                raise SimulationError(f"unknown destination {dst!r}")
            # A crashed (unregistered) peer: the message is simply lost.
            src.messages_sent += 1
            self.messages_dropped += 1
            if instruments is not None:
                instruments.net_drop(src.name, dst, message, "crashed")
            return
        src.messages_sent += 1
        config = self.config
        if config.drop_rate and self._rng.random() < config.drop_rate:
            self.messages_dropped += 1
            if instruments is not None:
                instruments.net_drop(src.name, dst, message, "drop_rate")
            return
        # One model call per message: the RNG draw order inside
        # ``latency.sample`` is part of the determinism contract.
        base = self.latency.sample(self._rng, src.name, dst)
        delay = self.adversary.intercept(src.name, dst, message, base)
        if delay is None:
            self.messages_dropped += 1
            if instruments is not None:
                instruments.net_drop(src.name, dst, message, "adversary")
            return
        if remote and delay < self._lookahead:
            raise SimulationError(
                f"cross-partition delay {delay} violates lookahead "
                f"{self._lookahead} ({src.name} -> {dst} over "
                f"{self.latency.describe(src.name, dst)})"
            )
        if instruments is not None:
            instruments.net_send(src.name, dst, message, delay)
        if remote:
            self._remote_send(src.name, dst, message, delay)
        else:
            self._deliver_after(delay, src.name, dst, message)

    def _deliver_after(self, delay: float, src: str, dst: str, message: Any) -> None:
        """A local delivery: an uncancellable event (no handle)."""
        sim = self.sim
        now = sim.now
        sim._schedule(now + delay if delay > 0.0 else now, self._deliver, src, dst, message)

    def deliver_remote(self, src: str, dst: str, message: Any) -> None:
        """Deliver an envelope that arrived from another partition.

        Called by the parallel runtime at the envelope's delivery time;
        from here on the message is indistinguishable from a local one
        (crashed-node drops, metrics, tracing all apply).
        """
        self._deliver(src, dst, message)

    def broadcast(self, src: Node, dsts: Iterable[str], message: Any) -> None:
        """Unicast the same message to every destination (independent delays)."""
        for dst in dsts:
            self.send(src, dst, message)

    def inject(self, src: str, dst: str, message: Any, delay: float) -> None:
        """Schedule one extra delivery, bypassing the adversary.

        Used by fault injection (message duplication): the copy is
        delivered as-is after ``delay``, subject only to the destination
        still being registered at delivery time.  Fault schedules run
        sequentially, so every destination is local.
        """
        self._deliver_after(delay, src, dst, message)

    def digest(self) -> str:
        """The run fingerprint so far, as 16 hex digits: equal runs (same
        deliveries, in the same order, at the same times) fold equal."""
        return f"{self._fingerprint & 0xFFFF_FFFF_FFFF_FFFF:016x}"

    def _deliver(self, src: str, dst: str, message: Any) -> None:
        ids = self._ids
        # A tuple of ints and a float hashes the same in every process.
        self._fingerprint = hash(
            (self._fingerprint, ids[src], ids[dst], ids[type(message)], self.sim.now)
        )
        instruments = self.sim.instruments
        node = self._nodes.get(dst)
        if node is None:  # node was torn down mid-flight
            self.messages_dropped += 1
            if instruments is not None:
                instruments.net_drop(src, dst, message, "unregistered")
            return
        self.messages_delivered += 1
        if instruments is not None:
            instruments.net_deliver(src, dst, message)
        node.deliver(src, message)
