"""TxSMR: client, sessions, and system wiring for TxHotStuff/TxBFT-SMaRt.

A transaction costs **two ordered operations per involved shard** (one
Prepare, one Commit/Abort), each paying the full consensus latency of
the underlying SMR protocol — the layering overhead the paper measures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from repro.baselines.smr.hotstuff import HotStuffReplica
from repro.baselines.smr.log import SMRClient
from repro.baselines.smr.pbft import PBFTReplica
from repro.baselines.txsmr.occ import ShardTx
from repro.baselines.txsmr.shardapp import ShardReadReply, ShardReadRequest, TxShardApp
from repro.config import SystemConfig
from repro.core.genesis import Genesis
from repro.core.sharding import Sharder
from repro.core.timestamps import Timestamp
from repro.crypto.digest import digest_of
from repro.crypto.signatures import KeyRegistry
from repro.errors import ProtocolError, SimTimeoutError
from repro.sim.events import Queue
from repro.sim.loop import Simulator
from repro.sim.network import Network


class TxSMRClient(SMRClient):
    """A transaction client over SMR shards (2PC coordinator)."""

    def __init__(self, sim, client_id, network, config, sharder, registry, broadcast_requests):
        super().__init__(
            sim,
            f"client/{client_id}",
            network,
            config,
            registry,
            broadcast_requests=broadcast_requests,
        )
        self.client_id = client_id
        self.sharder = sharder
        self._read_seq = itertools.count(1)
        self._read_pending: dict[int, Queue] = {}
        self._txn_seq = itertools.count(1)

    async def handle_message(self, sender: str, message: Any) -> None:
        if isinstance(message, ShardReadReply):
            queue = self._read_pending.get(message.req_id)
            if queue is not None:
                queue.put(message)
            return
        await super().handle_message(sender, message)

    async def read(self, key: Any) -> tuple[Any, int]:
        """Execution-phase read from one replica (validated at prepare)."""
        shard = self.sharder.shard_of(key)
        members = self.sharder.members(shard)
        target = members[self.client_id % len(members)]
        req_id = next(self._read_seq)
        queue = self._read_pending[req_id] = Queue(self.sim)
        try:
            attempt = 0
            while True:
                self.network.send(self, target, ShardReadRequest(req_id=req_id, key=key))
                try:
                    reply = await self.sim.wait_for(queue.get(), self.config.request_timeout)
                    return reply.value, reply.version
                except SimTimeoutError:
                    attempt += 1
                    if attempt > 8:
                        raise ProtocolError("txsmr read starved")
                    target = members[(self.client_id + attempt) % len(members)]
        finally:
            self._read_pending.pop(req_id, None)


@dataclass
class TxSMRResult:
    committed: bool
    fast_path: bool  # always False: there is no fast path in this design
    timestamp: Timestamp
    retryable: bool = True
    value: Any = None


class TxSMRSession:
    """Same surface as the Basil/TAPIR sessions."""

    def __init__(self, system: "TxSMRSystem", client: TxSMRClient) -> None:
        self.system = system
        self.client = client
        self.reads: dict[Any, int] = {}
        self.writes: dict[Any, Any] = {}
        self._cache: dict[Any, Any] = {}
        self._begin_time = Timestamp.from_clock(client.local_time, client.client_id)

    @property
    def timestamp(self) -> Timestamp:
        return self._begin_time

    async def read(self, key: Any) -> Any:
        if key in self.writes:
            return self.writes[key]
        if key in self._cache:
            return self._cache[key]
        value, version = await self.client.read(key)
        self.reads[key] = version
        self._cache[key] = value
        return value

    def write(self, key: Any, value: Any) -> None:
        self.writes[key] = value

    def abort(self) -> None:
        pass  # nothing locked during execution

    async def commit(self) -> TxSMRResult:
        if not self.reads and not self.writes:
            return TxSMRResult(committed=True, fast_path=False, timestamp=self._begin_time)
        txid = digest_of(
            (self.client.name, next(self.client._txn_seq),
             tuple(sorted(self.reads.items(), key=lambda e: repr(e[0]))),
             tuple(sorted((k, repr(v)) for k, v in self.writes.items())))
        )
        sharder = self.client.sharder
        keys = set(self.reads) | set(self.writes)
        involved = sorted({sharder.shard_of(k) for k in keys})
        shard_txs = {
            shard: ShardTx(
                txid=txid,
                read_set=tuple(
                    sorted(
                        ((k, v) for k, v in self.reads.items() if sharder.shard_of(k) == shard),
                        key=lambda e: repr(e[0]),
                    )
                ),
                write_set=tuple(
                    sorted(
                        ((k, v) for k, v in self.writes.items() if sharder.shard_of(k) == shard),
                        key=lambda e: repr(e[0]),
                    )
                ),
            )
            for shard in involved
        }
        # Phase 1: one ordered Prepare per shard, in parallel.
        results = await self.client.sim.gather(
            [
                self.client.submit(
                    sharder.members(shard), sharder.members(shard)[0],
                    ("prepare", shard_txs[shard]),
                )
                for shard in involved
            ]
        )
        votes = {shard: res for shard, res in zip(involved, results)}
        commit = all(res.result == ("prepare-result", txid, "ok") for res in votes.values())
        # Phase 2: one ordered Commit/Abort per shard.  The decision is
        # only durable once this second request is ordered (the paper:
        # "must process and order two requests for each decision"), so
        # the client waits for it — unlike Basil, whose writeback is
        # asynchronous because the decision was already made durable.
        proofs = tuple((shard, votes[shard].proof) for shard in involved)
        await self.client.sim.gather(
            [
                self._submit_quietly(
                    sharder.members(shard),
                    ("commit", shard_txs[shard], proofs)
                    if commit
                    else ("abort", shard_txs[shard]),
                )
                for shard in involved
            ]
        )
        return TxSMRResult(committed=commit, fast_path=False, timestamp=self._begin_time)

    async def _submit_quietly(self, group, op) -> None:
        try:
            await self.client.submit(group, group[0], op)
        except ProtocolError:
            pass  # phase-2 retries exhausted; replicas will see the op again


class TxSMRSystem:
    """A sharded transactional system over PBFT or HotStuff groups."""

    def __init__(self, config: SystemConfig | None = None, protocol: str = "pbft") -> None:
        if protocol not in ("pbft", "hotstuff"):
            raise ValueError(f"unknown SMR protocol {protocol!r}")
        self.config = config or SystemConfig()
        self.protocol = protocol
        self.sim = Simulator(seed=self.config.seed)
        self.network = Network(self.sim, self.config.network)
        self.registry = KeyRegistry(seed=self.config.seed)
        self.sharder = Sharder(self.config, replicas_per_shard=3 * self.config.f + 1)
        self.replicas: dict[str, Any] = {}
        self.apps: dict[str, TxShardApp] = {}
        self.clients: list[TxSMRClient] = []
        self._next_client_id = 1
        from repro.core.attestation import AttestationVerifier
        from repro.core.system import CLOCK_EPOCH

        replica_class = PBFTReplica if protocol == "pbft" else HotStuffReplica
        skew_rng = self.sim.rng("clock-skew")
        for shard in range(self.config.num_shards):
            group = self.sharder.members(shard)
            for name in group:
                # placeholder app replaced right after construction so the
                # app can charge costs to the replica's own CPU context
                replica = replica_class(
                    self.sim, name, self.network, self.config, group, None, self.registry
                )
                app = TxShardApp(
                    shard, self.config, self.sharder, AttestationVerifier(replica.crypto)
                )
                replica.app = app
                replica.clock_offset = CLOCK_EPOCH + skew_rng.uniform(
                    -self.config.clock_skew, self.config.clock_skew
                )
                self.network.register(replica)
                self.replicas[name] = replica
                self.apps[name] = app

    def load(self, items: Any) -> None:
        """Make ``items`` the shared, implicit genesis of every replica's
        state machine (see ``BasilSystem.load``)."""
        genesis = Genesis(items, self.sharder)
        for app in self.apps.values():
            app.store.data.seed(genesis, app.shard)

    def create_client(self) -> TxSMRClient:
        from repro.core.system import CLOCK_EPOCH

        client = TxSMRClient(
            self.sim,
            self._next_client_id,
            self.network,
            self.config,
            self.sharder,
            self.registry,
            broadcast_requests=(self.protocol == "hotstuff"),
        )
        self._next_client_id += 1
        client.clock_offset = CLOCK_EPOCH + self.sim.rng("clock-skew").uniform(
            -self.config.clock_skew, self.config.clock_skew
        )
        self.network.register(client)
        self.clients.append(client)
        return client

    def new_session(self, client: TxSMRClient) -> TxSMRSession:
        return TxSMRSession(self, client)

    def run(self, until: float | None = None) -> None:
        self.sim.run(until=until)

    def committed_value(self, key: Any) -> Any:
        shard = self.sharder.shard_of(key)
        for name in self.sharder.members(shard):
            value, version = self.apps[name].store.read(key)
            if version:
                return value
        return None
