"""System wiring: build a whole Basil deployment on one simulator.

:class:`BasilSystem` owns the simulator, network, PKI, shard topology,
replicas and clients, and provides the conveniences tests, examples and
benchmarks use (``load``, ``create_client``, ``run_transaction``).
"""

from __future__ import annotations

from typing import Any, Awaitable, Callable, Type

from repro.config import SystemConfig
from repro.core.client import BasilClient
from repro.core.replica import BasilReplica
from repro.core.genesis import Genesis
from repro.core.sharding import Sharder
from repro.crypto.signatures import KeyRegistry
from repro.sim.loop import Simulator
from repro.sim.network import Network, NetworkAdversary


#: All local clocks start at this epoch (plus per-node skew) so that every
#: client timestamp is strictly above the GENESIS timestamp.
CLOCK_EPOCH = 1.0


class BasilSystem:
    """A complete Basil deployment (shards x (5f+1) replicas + clients).

    ``partition`` (optional) builds one *slice* of the deployment for a
    space-parallel run (:mod:`repro.parallel`): an object exposing
    ``partition_id`` (this slice), ``partition_of(name) -> int``, and
    ``roster() -> iterable[str]`` (every node name in the whole
    deployment).  Only local nodes are constructed; remote names are
    registered with the network so messages to them leave as exchange
    envelopes, and the full roster's signing keys are pre-issued so
    signatures minted by any partition verify here (the registry's
    per-signer derivation makes that order-independent).
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        replica_class: Type[BasilReplica] = BasilReplica,
        adversary: NetworkAdversary | None = None,
        partition: Any = None,
        latency: Any = None,
    ) -> None:
        self.config = config or SystemConfig()
        self.partition = partition
        pid = partition.partition_id if partition is not None else None
        self.sim = Simulator(seed=self.config.seed, partition_id=pid)
        self.network = Network(
            self.sim, self.config.network, adversary=adversary, latency=latency
        )
        self.registry = KeyRegistry(seed=self.config.seed)
        self.sharder = Sharder(self.config)
        self.replicas: dict[str, BasilReplica] = {}
        #: The deployment's initial state, shared by every replica's store
        #: (None until ``load``: every key then reads as absent).
        self.genesis: Genesis | None = None
        self.clients: list[BasilClient] = []
        self._next_client_id = 1
        skew_rng = self.sim.rng("clock-skew")
        for name in self.sharder.all_replicas():
            if partition is not None and partition.partition_of(name) != pid:
                self.network.register_remote(name)
                continue
            replica = replica_class(
                self.sim, name, self.network, self.config, self.sharder, self.registry
            )
            replica.clock_offset = CLOCK_EPOCH + skew_rng.uniform(
                -self.config.clock_skew, self.config.clock_skew
            )
            replica.partition_id = pid
            self.network.register(replica)
            self.replicas[name] = replica
        if partition is not None:
            for name in partition.roster():
                self.registry.issue(name)
                if (
                    name not in self.replicas
                    and partition.partition_of(name) != pid
                    and not self.network.is_remote(name)
                ):
                    self.network.register_remote(name)

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def load(self, items: Any) -> None:
        """Make ``items`` the genesis state of the whole deployment.

        ``items`` is a mapping (``Workload.genesis()``; any iterable of
        ``(key, value)`` pairs is collected into one) that must not
        change afterwards.  It is wrapped once, in ``self.genesis``, and
        every local replica's store is pointed at that one object: no
        key is copied or even visited here, whatever the population (10 M
        YCSB keys, 1 M Smallbank accounts).  A store creates a key's
        state when a read, prepare, RTS or write first touches it on the
        key's own shard; until then the key reads as its GENESIS version
        with ``GENESIS_CERT``.  Call before traffic starts.  Pure setup:
        never schedules events or draws from an RNG stream.
        """
        self.genesis = Genesis(items, self.sharder)
        for replica in self.replicas.values():
            replica.store.seed(self.genesis, replica.shard)

    def create_client(
        self, client_class: Type[BasilClient] = BasilClient, **kwargs: Any
    ) -> BasilClient:
        """Add a client node (optionally a Byzantine subclass)."""
        client = client_class(
            self.sim,
            self._next_client_id,
            self.network,
            self.config,
            self.sharder,
            self.registry,
            **kwargs,
        )
        self._next_client_id += 1
        skew_rng = self.sim.rng("clock-skew")
        client.clock_offset = CLOCK_EPOCH + skew_rng.uniform(
            -self.config.clock_skew, self.config.clock_skew
        )
        if self.partition is not None:
            client.partition_id = self.partition.partition_id
        self.network.register(client)
        self.clients.append(client)
        return client

    def replace_replica(self, name: str, replica_class: Type[BasilReplica]) -> BasilReplica:
        """Swap one replica for a (usually Byzantine) variant.

        Must be called before traffic starts; keeps the same identity and
        signing key, so the variant can equivocate but not forge.
        """
        old = self.replicas[name]
        replica = replica_class(
            self.sim, name, self.network, self.config, self.sharder, self.registry
        )
        replica.clock_offset = old.clock_offset
        if self.genesis is not None:
            replica.store.seed(self.genesis, replica.shard)
        self.network._nodes[name] = replica
        self.replicas[name] = replica
        return replica

    # ------------------------------------------------------------------
    # Convenience execution
    # ------------------------------------------------------------------
    def new_session(self, client: BasilClient) -> "TransactionSession":
        """Start one interactive transaction on ``client``."""
        from repro.core.api import TransactionSession

        return TransactionSession(client)

    def run_transaction(
        self,
        body: Callable[["TransactionSession"], Awaitable[Any]],
        client: BasilClient | None = None,
    ) -> "TransactionResult":
        """Run one interactive transaction to completion (blocking)."""
        from repro.core.api import TransactionSession

        client = client or (self.clients[0] if self.clients else self.create_client())

        async def runner():
            session = TransactionSession(client)
            value = await body(session)
            result = await session.commit()
            result.value = value
            return result

        return self.sim.run_until_complete(runner())

    def run(self, until: float | None = None) -> None:
        """Advance simulated time (drains in-flight background work)."""
        self.sim.run(until=until)

    # ------------------------------------------------------------------
    # Introspection used by tests
    # ------------------------------------------------------------------
    def shard_replicas(self, shard: int) -> list[BasilReplica]:
        return [self.replicas[name] for name in self.sharder.members(shard)]

    def committed_value(self, key: Any) -> Any:
        """The latest committed value for ``key`` on its shard's replicas.

        Asserts all replicas that have the key agree (eventual consistency
        per Lemma 2); returns the most recent version's value.
        """
        shard = self.sharder.shard_of(key)
        latest = None
        for replica in self.shard_replicas(shard):
            versions = replica.store.committed_versions(key)
            if not versions:
                continue
            head = versions[-1]
            if latest is None or head.timestamp > latest.timestamp:
                latest = head
        return latest.value if latest is not None else None
