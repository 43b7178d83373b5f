"""The edge session tier: sticky regional proxies in front of the core.

An :class:`EdgeProxy` is a full Basil client pinned to one region
(``edge/{region}``).  End users (:class:`EdgeUser`) are sticky to their
region's proxy, so an interactive operation only crosses a region
boundary when the proxy decides it must:

* **Reads** hit a read-lease cache first: a quorum-read result is served
  locally for ``lease_ttl`` simulated seconds (bounded staleness — the
  session-decoupling trade-off).  Pending write-back values overlay the
  cache, so a region reads its own writes.  Misses fall through to one
  Basil quorum read (single-flight per key: concurrent misses on a key
  share one core round trip), released immediately via
  ``abort_execution`` so no RTS fence outlives the lease fill.
* **Writes** buffer into a write-back batch flushed every
  ``flush_interval`` (or when ``flush_max`` keys accumulate) as one
  blind-write Basil transaction; users are acked after the core commits.

:class:`DirectUser` is the control arm: the same op stream issued as
plain Basil quorum reads and single-write transactions straight at the
core, paying cross-region quorum latency on every operation.

All serving-tier activity traces under the ``"geo"`` category and emits
``geo_*`` metrics labeled by region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.client import BasilClient
from repro.errors import ProtocolError, SimTimeoutError
from repro.sim.loop import Future
from repro.sim.monitor import Histogram
from repro.sim.node import Node


# ---------------------------------------------------------------------------
# Session messages (user <-> proxy, intra-region)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class EdgeRead:
    req_id: int
    key: Any


@dataclass(frozen=True)
class EdgeReadReply:
    req_id: int
    key: Any
    value: Any
    source: str  #: "pending" | "lease" | "core" | "stale"


@dataclass(frozen=True)
class EdgeWrite:
    req_id: int
    key: Any
    value: Any


@dataclass(frozen=True)
class EdgeWriteReply:
    req_id: int
    key: Any
    committed: bool


# ---------------------------------------------------------------------------
# Latency accounting
# ---------------------------------------------------------------------------
def histogram(samples: list[float]) -> Histogram:
    """``samples`` as a :class:`Histogram`, for its one percentile rule."""
    hist = Histogram("geo")
    for sample in samples:
        hist.record(sample)
    return hist


class RegionStats:
    """One region's end-user latency accumulator (window-filtered)."""

    __slots__ = (
        "region", "window_start", "window_end", "reads", "writes",
        "read_total", "write_total", "failures",
    )

    def __init__(self, region: str, window_start: float, window_end: float) -> None:
        self.region = region
        self.window_start = window_start
        self.window_end = window_end
        self.reads: list[float] = []  #: in-window read latencies, seconds
        self.writes: list[float] = []
        self.read_total = 0
        self.write_total = 0
        self.failures = 0

    def record(self, op: str, latency: float, completed_at: float, ok: bool = True) -> None:
        if op == "read":
            self.read_total += 1
        else:
            self.write_total += 1
        if not ok:
            self.failures += 1
            return
        if self.window_start <= completed_at < self.window_end:
            (self.reads if op == "read" else self.writes).append(latency)

    def summary(self) -> dict[str, Any]:
        reads, writes = histogram(self.reads), histogram(self.writes)
        return {
            "reads": self.read_total,
            "writes": self.write_total,
            "failures": self.failures,
            "read_p50": reads.percentile(50),
            "read_p99": reads.percentile(99),
            "read_mean": sum(self.reads) / len(self.reads) if self.reads else 0.0,
            "write_p50": writes.percentile(50),
            "write_p99": writes.percentile(99),
            "write_mean": sum(self.writes) / len(self.writes) if self.writes else 0.0,
        }


# ---------------------------------------------------------------------------
# The proxy
# ---------------------------------------------------------------------------
class EdgeProxy(BasilClient):
    """A region's session endpoint: lease reads + write-back batching."""

    def __init__(
        self,
        sim: Any,
        client_id: int,
        network: Any,
        config: Any,
        sharder: Any,
        registry: Any,
        *,
        region: str,
        lease_ttl: float = 0.5,
        flush_interval: float = 0.02,
        flush_max: int = 8,
    ) -> None:
        super().__init__(
            sim, client_id, network, config, sharder, registry,
            name=f"edge/{region}",
        )
        self.region = region
        self.lease_ttl = lease_ttl
        self.flush_interval = flush_interval
        self.flush_max = flush_max
        self._leases: dict[Any, tuple[Any, float]] = {}  #: key -> (value, expiry)
        self._pending_writes: dict[Any, Any] = {}  #: write-back buffer
        self._ack_waiters: list[tuple[str, EdgeWrite]] = []
        self._read_waiters: dict[Any, list[tuple[str, EdgeRead]]] = {}
        self._flushing = False
        # serving-tier accounting (read by the geo runner)
        self.lease_hits = 0
        self.lease_misses = 0
        self.read_failures = 0
        self.writebacks = 0
        self.writeback_commits = 0
        self.writeback_aborts = 0
        self.core_commits = 0
        self.core_fast_commits = 0
        self.core_aborts = 0

    def start(self) -> None:
        """Arm the periodic write-back flush (call once after register)."""
        self.spawn(self._flush_loop(), name=f"{self.name}/flush")

    # -- message dispatch ------------------------------------------------
    async def handle_message(self, sender: str, message: Any) -> None:
        if isinstance(message, EdgeRead):
            self._on_read(sender, message)
            return
        if isinstance(message, EdgeWrite):
            self._on_write(sender, message)
            return
        await super().handle_message(sender, message)

    # -- reads -----------------------------------------------------------
    def _on_read(self, sender: str, msg: EdgeRead) -> None:
        key = msg.key
        if key in self._pending_writes:  # region-local read-your-writes
            self._reply_read(sender, msg, self._pending_writes[key], "pending")
            return
        lease = self._leases.get(key)
        if lease is not None and lease[1] > self.sim.now:
            self.lease_hits += 1
            if self.sim.instruments is not None:
                self.sim.instruments.lease_lookup(self.region, hit=True)
            self._reply_read(sender, msg, lease[0], "lease")
            return
        self.lease_misses += 1
        if self.sim.instruments is not None:
            self.sim.instruments.lease_lookup(self.region, hit=False)
        waiters = self._read_waiters.get(key)
        if waiters is not None:  # single-flight: join the in-flight fill
            waiters.append((sender, msg))
            return
        self._read_waiters[key] = [(sender, msg)]
        self.spawn(self._fill_lease(key), name=f"{self.name}/lease-fill")

    async def _fill_lease(self, key: Any) -> None:
        t0 = self.sim.now
        value, ok = None, False
        builder = self.begin()
        try:
            result = await self.read(builder, key)
            value, ok = result.value, True
        except (ProtocolError, SimTimeoutError):
            self.read_failures += 1
            if self.sim.instruments is not None:
                self.sim.instruments.geo_read_failed(self.region)
            lease = self._leases.get(key)
            if lease is not None:
                value = lease[0]  # serve the stale lease rather than nothing
        finally:
            self.abort_execution(builder)  # release RTS marks immediately
        if ok:
            self._leases[key] = (value, self.sim.now + self.lease_ttl)
        if self.sim.instruments is not None:
            self.sim.instruments.lease_filled(self.name, t0, key, ok)
        for sender, msg in self._read_waiters.pop(key, ()):
            self._reply_read(sender, msg, value, "core" if ok else "stale")

    def _reply_read(self, sender: str, msg: EdgeRead, value: Any, source: str) -> None:
        if self.sim.instruments is not None:
            self.sim.instruments.geo_read_served(self.region, source)
        self.network.send(
            self, sender, EdgeReadReply(msg.req_id, msg.key, value, source)
        )

    # -- writes ----------------------------------------------------------
    def _on_write(self, sender: str, msg: EdgeWrite) -> None:
        self._pending_writes[msg.key] = msg.value
        self._ack_waiters.append((sender, msg))
        if self.sim.instruments is not None:
            self.sim.instruments.geo_write(self.region)
        if len(self._pending_writes) >= self.flush_max and not self._flushing:
            self.spawn(self._flush_once(), name=f"{self.name}/flush-now")

    async def _flush_loop(self) -> None:
        while True:
            await self.sim.sleep(self.flush_interval)
            if self._pending_writes and not self._flushing:
                await self._flush_once()

    async def _flush_once(self) -> None:
        if self._flushing or not self._pending_writes:
            return
        self._flushing = True
        try:
            from repro.core.api import TransactionSession

            keys = list(self._pending_writes)[: self.flush_max]
            batch = {k: self._pending_writes.pop(k) for k in keys}
            waiters = [w for w in self._ack_waiters if w[1].key in batch]
            self._ack_waiters = [w for w in self._ack_waiters if w[1].key not in batch]
            t0 = self.sim.now
            self.writebacks += 1
            committed = False
            for _attempt in range(3):
                session = TransactionSession(self)
                for key, value in batch.items():
                    session.write(key, value)
                try:
                    result = await session.commit()
                except (ProtocolError, SimTimeoutError):
                    self.core_aborts += 1
                    break
                if result.committed:
                    committed = True
                    self.core_commits += 1
                    if result.fast_path:
                        self.core_fast_commits += 1
                    break
                self.core_aborts += 1
                self.writeback_aborts += 1
                if self.sim.instruments is not None:
                    self.sim.instruments.writeback_aborted(self.region)
            if committed:
                self.writeback_commits += 1
                expiry = self.sim.now + self.lease_ttl
                for key, value in batch.items():
                    self._leases[key] = (value, expiry)
            if self.sim.instruments is not None:
                self.sim.instruments.writeback_done(
                    self.name, self.region, t0, len(batch), committed
                )
            for sender, msg in waiters:
                self.network.send(
                    self, sender, EdgeWriteReply(msg.req_id, msg.key, committed)
                )
        finally:
            self._flushing = False

    # -- observability ---------------------------------------------------
    def lease_entries(self) -> int:
        return len(self._leases)

    def writeback_queue_depth(self) -> int:
        return len(self._pending_writes)


# ---------------------------------------------------------------------------
# End users
# ---------------------------------------------------------------------------
class _SessionDriver:
    """Shared closed-loop driver mixin state for both user kinds."""

    def _init_driver(self, workload, rng, stats, stop_issuing, end_time, think_time):
        self._workload = workload
        self._rng = rng
        self._stats = stats
        self._stop_issuing = stop_issuing
        self._end_time = end_time
        self._think_time = think_time

    def _record_op(self, op: str, t0: float, ok: bool, source: str = "") -> None:
        sim = self.sim
        self._stats.record(op, sim.now - t0, sim.now, ok=ok)
        if sim.instruments is not None:
            sim.instruments.user_op(self.name, self.region, op, t0, ok, source)


class EdgeUser(Node, _SessionDriver):
    """An end user sticky to its region's :class:`EdgeProxy`."""

    def __init__(
        self,
        sim: Any,
        name: str,
        network: Any,
        config: Any,
        *,
        region: str,
        proxy: str,
        workload: Any,
        rng: Any,
        stats: RegionStats,
        stop_issuing: float,
        end_time: float,
        think_time: float = 0.0,
        request_timeout: float = 2.0,
    ) -> None:
        super().__init__(sim, name, config=config.client_node)
        self.region = region
        self.network = network
        self.proxy = proxy
        self.request_timeout = request_timeout
        self._init_driver(workload, rng, stats, stop_issuing, end_time, think_time)
        self._req_seq = 0
        self._pending: dict[int, Future] = {}

    def start(self) -> None:
        self.spawn(self._drive(), name=f"{self.name}/drive")

    async def handle_message(self, sender: str, message: Any) -> None:
        if isinstance(message, (EdgeReadReply, EdgeWriteReply)):
            fut = self._pending.pop(message.req_id, None)
            if fut is not None and not fut.done():
                fut.set_result(message)

    async def _drive(self) -> None:
        sim = self.sim
        while sim.now < self._stop_issuing:
            op, key, value = self._workload.next_op(self._rng)
            t0 = sim.now
            reply = await self._request(op, key, value)
            if reply is None:  # run ended while waiting
                break
            ok = not (isinstance(reply, EdgeWriteReply) and not reply.committed)
            self._record_op(op, t0, ok, source=getattr(reply, "source", ""))
            if self._think_time:
                await sim.sleep(self._think_time)

    async def _request(self, op: str, key: Any, value: Any) -> Any:
        sim = self.sim
        while True:
            self._req_seq += 1
            req_id = self._req_seq
            fut = Future()
            self._pending[req_id] = fut
            if op == "read":
                message: Any = EdgeRead(req_id, key)
            else:
                message = EdgeWrite(req_id, key, value)
            self.network.send(self, self.proxy, message)
            try:
                return await sim.wait_for(self._await(fut), self.request_timeout)
            except SimTimeoutError:
                self._pending.pop(req_id, None)
                if sim.now >= self._end_time:
                    return None

    @staticmethod
    async def _await(fut: Future) -> Any:
        return await fut


class DirectUser(BasilClient, _SessionDriver):
    """The control arm: the same op stream issued straight at the core."""

    def __init__(
        self,
        sim: Any,
        client_id: int,
        network: Any,
        config: Any,
        sharder: Any,
        registry: Any,
        *,
        region: str,
        index: int,
        workload: Any,
        rng: Any,
        stats: RegionStats,
        stop_issuing: float,
        end_time: float,
        think_time: float = 0.0,
    ) -> None:
        super().__init__(
            sim, client_id, network, config, sharder, registry,
            name=f"user/{region}/{index}",
        )
        self.region = region
        self._init_driver(workload, rng, stats, stop_issuing, end_time, think_time)
        self.read_failures = 0
        self.core_commits = 0
        self.core_fast_commits = 0
        self.core_aborts = 0

    def start(self) -> None:
        self.spawn(self._drive(), name=f"{self.name}/drive")

    async def _drive(self) -> None:
        sim = self.sim
        while sim.now < self._stop_issuing:
            op, key, value = self._workload.next_op(self._rng)
            t0 = sim.now
            if op == "read":
                ok = await self._core_read(key)
            else:
                ok = await self._core_write(key, value)
            self._record_op(op, t0, ok, source="core")
            if self._think_time:
                await sim.sleep(self._think_time)

    async def _core_read(self, key: Any) -> bool:
        builder = self.begin()
        try:
            await self.read(builder, key)
            return True
        except (ProtocolError, SimTimeoutError):
            self.read_failures += 1
            if self.sim.instruments is not None:
                self.sim.instruments.geo_read_failed(self.region)
            return False
        finally:
            self.abort_execution(builder)

    async def _core_write(self, key: Any, value: Any) -> bool:
        from repro.core.api import TransactionSession

        for _attempt in range(3):
            session = TransactionSession(self)
            session.write(key, value)
            try:
                result = await session.commit()
            except (ProtocolError, SimTimeoutError):
                self.core_aborts += 1
                return False
            if result.committed:
                self.core_commits += 1
                if result.fast_path:
                    self.core_fast_commits += 1
                return True
            self.core_aborts += 1
        return False
