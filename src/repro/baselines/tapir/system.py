"""TAPIR replicas, clients, sessions, and system wiring.

Protocol shape (what matters for the paper's comparison):

* **Read**: one replica, one round trip, no validation work.
* **Prepare**: sent to all 2f+1 replicas of each involved shard.  If all
  reply OK the transaction commits in that single round trip (TAPIR's
  fast path); if only a majority replies OK, one extra confirmation
  round is charged (slow path).  Any ABORT vote aborts; ABSTAIN votes
  make the client abort-and-retry (OCC).
* **Commit/Abort**: broadcast asynchronously, like Basil's writeback.
* No signatures anywhere: TAPIR tolerates crashes, not Byzantium.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.config import SystemConfig
from repro.baselines.tapir.store import TapirStore, TapirVote
from repro.core.genesis import Genesis
from repro.core.sharding import Sharder
from repro.core.timestamps import GENESIS, Timestamp
from repro.core.transaction import TxBuilder, TxRecord
from repro.errors import ProtocolError, SimTimeoutError
from repro.sim.events import Queue
from repro.sim.loop import Simulator
from repro.sim.network import Network
from repro.sim.node import Node


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TRead:
    req_id: int
    key: Any
    timestamp: Timestamp


@dataclass(frozen=True)
class TReadReply:
    req_id: int
    key: Any
    version: Timestamp
    value: Any


@dataclass(frozen=True)
class TPrepare:
    req_id: int
    tx: TxRecord


@dataclass(frozen=True)
class TPrepareReply:
    req_id: int
    replica: str
    vote: TapirVote


@dataclass(frozen=True)
class TConfirm:
    """Slow-path confirmation round (charged one extra round trip)."""

    req_id: int
    txid: bytes


@dataclass(frozen=True)
class TConfirmReply:
    req_id: int
    replica: str


@dataclass(frozen=True)
class TDecision:
    tx: TxRecord
    commit: bool


class TapirReplica(Node):
    """One TAPIR shard replica."""

    def __init__(self, sim, name, network, config: SystemConfig, sharder: Sharder) -> None:
        super().__init__(sim, name, config=config.node)
        self.network = network
        self.config = config
        self.sharder = sharder
        self.shard = sharder.shard_of_replica(name)
        self.store = TapirStore(sim)

    async def handle_message(self, sender: str, message: Any) -> None:
        if isinstance(message, TRead):
            version = self.store.read(message.key, message.timestamp)
            self.store.versions.update_rts(message.key, message.timestamp)
            if version is None:
                reply = TReadReply(message.req_id, message.key, GENESIS, None)
            else:
                reply = TReadReply(message.req_id, message.key, version.timestamp, version.value)
            self.network.send(self, sender, reply)
        elif isinstance(message, TPrepare):
            vote = self.store.occ_check(self.sharder.part_of(message.tx, self.shard))
            self.network.send(
                self, sender, TPrepareReply(message.req_id, self.name, vote)
            )
        elif isinstance(message, TConfirm):
            self.network.send(self, sender, TConfirmReply(message.req_id, self.name))
        elif isinstance(message, TDecision):
            part = self.sharder.part_of(message.tx, self.shard)
            if message.commit:
                self.store.commit(part)
            else:
                self.store.abort(part)


@dataclass
class TapirResult:
    committed: bool
    fast_path: bool
    timestamp: Timestamp
    #: True when the abort was due to ABSTAIN (retry likely to succeed).
    retryable: bool = False
    value: Any = None


class TapirClient(Node):
    """A TAPIR client: execution, 2PC-with-IR prepare, decision."""

    def __init__(self, sim, client_id, network, config: SystemConfig, sharder: Sharder) -> None:
        super().__init__(sim, f"client/{client_id}", config=config.client_node)
        self.client_id = client_id
        self.network = network
        self.config = config
        self.sharder = sharder
        self._req_seq = 0
        #: Monotonic-begin guard for open-loop injection (see
        #: BasilClient.begin): concurrent sessions on one client must
        #: not share a (time, client_id) transaction timestamp.
        self._last_issued = GENESIS
        self._pending: dict[int, Queue] = {}

    def _next_req(self) -> int:
        self._req_seq += 1
        return self._req_seq

    async def handle_message(self, sender: str, message: Any) -> None:
        req_id = getattr(message, "req_id", None)
        queue = self._pending.get(req_id)
        if queue is not None:
            queue.put((sender, message))

    def begin(self) -> TxBuilder:
        ts = Timestamp.from_clock(self.local_time, self.client_id)
        if ts <= self._last_issued:
            ts = Timestamp(time=self._last_issued.time + 1, client_id=self.client_id)
        self._last_issued = ts
        return TxBuilder(timestamp=ts)

    # ------------------------------------------------------------------
    async def read(self, builder: TxBuilder, key: Any) -> Any:
        """One replica, one round trip (non-Byzantine trust model)."""
        shard = self.sharder.shard_of(key)
        members = self.sharder.members(shard)
        target = members[self.client_id % len(members)]
        req_id = self._next_req()
        queue = self._pending[req_id] = Queue(self.sim)
        try:
            attempt = 0
            while True:
                self.network.send(
                    self, target, TRead(req_id, key, builder.timestamp)
                )
                try:
                    _sender, reply = await self.sim.wait_for(
                        queue.get(), self.config.request_timeout
                    )
                    break
                except SimTimeoutError:
                    attempt += 1
                    target = members[(self.client_id + attempt) % len(members)]
                    if attempt > 8:
                        raise ProtocolError("tapir read starved")
        finally:
            self._pending.pop(req_id, None)
        builder.record_read(key, reply.version)
        return reply.value

    async def commit(self, tx: TxRecord) -> TapirResult:
        involved = self.sharder.shards_of_tx(tx)
        req_id = self._next_req()
        queue = self._pending[req_id] = Queue(self.sim)
        votes: dict[int, dict[str, TapirVote]] = {shard: {} for shard in involved}
        outcome: dict[int, TapirVote] = {}
        fast = True
        st1_begin = self.sim.now
        try:
            for shard in involved:
                self.network.broadcast(self, self.sharder.members(shard), TPrepare(req_id, tx))
            while len(outcome) < len(involved):
                try:
                    sender, reply = await self.sim.wait_for(
                        queue.get(), self.config.request_timeout
                    )
                except SimTimeoutError:
                    # settle shards by majority on what we have
                    for shard in involved:
                        if shard not in outcome:
                            outcome[shard] = self._classify(votes[shard], complete=True)
                            fast = False
                    break
                if not isinstance(reply, TPrepareReply):
                    continue
                shard = self.sharder.shard_of_replica(sender)
                if shard in outcome:
                    continue
                votes[shard][sender] = reply.vote
                decided = self._classify(votes[shard], complete=False)
                if decided is not None:
                    outcome[shard] = decided
        finally:
            self._pending.pop(req_id, None)
            if self.sim.instruments is not None:
                self.sim.instruments.txn_phase(
                    self.name, "st1", st1_begin,
                    txid=tx.txid.hex(), shards=len(involved),
                )

        commit = all(v is TapirVote.OK for v in outcome.values())
        retryable = not commit and any(
            v is TapirVote.ABSTAIN for v in outcome.values()
        )
        # Fast path requires unanimous replies per shard; a shard decided
        # by majority costs one extra confirmation round.
        for shard in involved:
            if len(votes[shard]) < self.sharder.n:
                fast = False
        if not fast:
            st2_begin = self.sim.now
            await self._confirm_round(tx, involved)
            if self.sim.instruments is not None:
                self.sim.instruments.txn_phase(
                    self.name, "st2", st2_begin,
                    txid=tx.txid.hex(), proposed="CONFIRM",
                )
        wb_begin = self.sim.now
        decision = TDecision(tx=tx, commit=commit)
        for shard in involved:
            self.network.broadcast(self, self.sharder.members(shard), decision)
        if self.sim.instruments is not None:
            self.sim.instruments.txn_phase(
                self.name, "writeback", wb_begin,
                txid=tx.txid.hex(),
                decision="COMMIT" if commit else "ABORT", fast_path=fast,
            )
        return TapirResult(
            committed=commit, fast_path=fast, timestamp=tx.timestamp, retryable=retryable
        )

    def _classify(self, shard_votes: dict[str, TapirVote], complete: bool):
        n = self.sharder.n
        f = self.config.f
        counts = {vote: 0 for vote in TapirVote}
        for vote in shard_votes.values():
            counts[vote] += 1
        if counts[TapirVote.ABORT] > 0:
            return TapirVote.ABORT
        if counts[TapirVote.ABSTAIN] > f:
            return TapirVote.ABSTAIN
        if counts[TapirVote.OK] == n:
            return TapirVote.OK
        if complete:
            if counts[TapirVote.OK] >= f + 1:
                return TapirVote.OK
            return TapirVote.ABSTAIN
        return None

    async def _confirm_round(self, tx: TxRecord, involved) -> None:
        """One extra round trip making the slow-path outcome durable."""
        req_id = self._next_req()
        queue = self._pending[req_id] = Queue(self.sim)
        try:
            shard = involved[0]
            members = self.sharder.members(shard)
            self.network.broadcast(self, members, TConfirm(req_id, tx.txid))
            needed = self.config.f + 1
            got = 0
            while got < needed:
                try:
                    _s, reply = await self.sim.wait_for(
                        queue.get(), self.config.request_timeout
                    )
                except SimTimeoutError:
                    return
                if isinstance(reply, TConfirmReply):
                    got += 1
        finally:
            self._pending.pop(req_id, None)


class TapirSession:
    """Same surface as :class:`repro.core.api.TransactionSession`."""

    def __init__(self, client: TapirClient) -> None:
        self.client = client
        self.builder = client.begin()
        self._cache: dict[Any, Any] = {}
        self._began_at = client.sim.now

    @property
    def timestamp(self) -> Timestamp:
        return self.builder.timestamp

    async def read(self, key: Any) -> Any:
        if key in self.builder.writes:
            return self.builder.writes[key]
        if key in self._cache:
            return self._cache[key]
        value = await self.client.read(self.builder, key)
        self._cache[key] = value
        return value

    def write(self, key: Any, value: Any) -> None:
        self.builder.record_write(key, value)

    async def commit(self) -> TapirResult:
        if not self.builder.reads and not self.builder.writes:
            return TapirResult(committed=True, fast_path=True, timestamp=self.builder.timestamp)
        tx = self.builder.freeze()
        instruments = self.client.sim.instruments
        if instruments is not None:
            instruments.txn_phase(
                self.client.name, "execute", self._began_at,
                txid=tx.txid.hex(),
                reads=len(self.builder.reads), writes=len(self.builder.writes),
            )
        return await self.client.commit(tx)

    def abort(self) -> None:
        pass  # nothing to release: reads leave only advisory RTS


class TapirSystem:
    """A TAPIR deployment: shards x (2f+1) replicas."""

    def __init__(self, config: SystemConfig | None = None) -> None:
        self.config = config or SystemConfig()
        self.sim = Simulator(seed=self.config.seed)
        self.network = Network(self.sim, self.config.network)
        self.sharder = Sharder(self.config, replicas_per_shard=2 * self.config.f + 1)
        self.replicas: dict[str, TapirReplica] = {}
        self.clients: list[TapirClient] = []
        self._next_client_id = 1
        from repro.core.system import CLOCK_EPOCH

        skew_rng = self.sim.rng("clock-skew")
        for name in self.sharder.all_replicas():
            replica = TapirReplica(self.sim, name, self.network, self.config, self.sharder)
            replica.clock_offset = CLOCK_EPOCH + skew_rng.uniform(
                -self.config.clock_skew, self.config.clock_skew
            )
            self.network.register(replica)
            self.replicas[name] = replica

    def load(self, items: Any) -> None:
        """Make ``items`` the shared, implicit genesis of every replica
        (see ``BasilSystem.load``)."""
        genesis = Genesis(items, self.sharder)
        for replica in self.replicas.values():
            replica.store.versions.seed(genesis, replica.shard)

    def create_client(self) -> TapirClient:
        from repro.core.system import CLOCK_EPOCH

        client = TapirClient(
            self.sim, self._next_client_id, self.network, self.config, self.sharder
        )
        self._next_client_id += 1
        client.clock_offset = CLOCK_EPOCH + self.sim.rng("clock-skew").uniform(
            -self.config.clock_skew, self.config.clock_skew
        )
        self.network.register(client)
        self.clients.append(client)
        return client

    def new_session(self, client: TapirClient) -> TapirSession:
        return TapirSession(client)

    def run(self, until: float | None = None) -> None:
        self.sim.run(until=until)

    def committed_value(self, key: Any) -> Any:
        shard = self.sharder.shard_of(key)
        latest = None
        for name in self.sharder.members(shard):
            versions = self.replicas[name].store.versions.committed_versions(key)
            if versions and (latest is None or versions[-1].timestamp > latest.timestamp):
                latest = versions[-1]
        return latest.value if latest is not None else None
