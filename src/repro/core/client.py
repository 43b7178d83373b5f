"""The Basil client: drives execution, 2PC, writeback, and recovery.

Clients are first-class protocol participants (Basil is leaderless):
they choose transaction timestamps, collect read quorums with validity
checks, tally shard votes, decide commit/abort, log decisions on the
slow path, broadcast decision certificates, and — when other clients
stall — finish foreign transactions through the fallback protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.config import SystemConfig
from repro.core.attestation import (
    Attestation,
    AttestationVerifier,
    BatchAttestation,
    attestation_payload,
)
from repro.core.certificates import (
    AbortCert,
    CertValidator,
    CommitCert,
    DecisionCert,
    GENESIS_TXID,
    ShardLogCert,
)
from repro.core.messages import (
    Decision,
    DecisionLogReply,
    DecisionLogRequest,
    DecisionLogResult,
    FetchTxReply,
    FetchTxRequest,
    PrepareReply,
    PrepareRequest,
    PrepareVote,
    ReadReply,
    ReadRequest,
    RecoveryReply,
    RtsRemoveRequest,
    Vote,
    WritebackRequest,
)
from repro.core.sharding import Sharder
from repro.core.timestamps import GENESIS, Timestamp
from repro.core.transaction import Dep, TxBuilder, TxRecord
from repro.core.votes import ShardOutcome, ShardVoteCollector, VoteTally
from repro.crypto.cost_model import CryptoContext
from repro.crypto.digest import Digest
from repro.crypto.signatures import KeyRegistry, SignedMessage
from repro.errors import ProtocolError, SimTimeoutError
from repro.sim.events import Queue
from repro.sim.loop import Simulator
from repro.sim.network import Network
from repro.sim.node import Node


@dataclass
class ReadResult:
    """Outcome of one client read."""

    key: Any
    value: Any
    version: Timestamp
    dep: Dep | None = None
    dep_record: TxRecord | None = None


@dataclass
class PrepareOutcome:
    """Outcome of the Prepare + Writeback pipeline for one transaction."""

    decision: Decision
    fast_path: bool
    cert: DecisionCert
    shard_outcomes: dict[int, ShardOutcome] = field(default_factory=dict)
    #: Hints from abort votes: conflicting txid -> a key it touches.
    conflicts: dict[Digest, Any] = field(default_factory=dict)

    @property
    def committed(self) -> bool:
        return self.decision is Decision.COMMIT


class BasilClient(Node):
    """A Basil protocol client bound to one identity."""

    def __init__(
        self,
        sim: Simulator,
        client_id: int,
        network: Network,
        config: SystemConfig,
        sharder: Sharder,
        registry: KeyRegistry,
        name: str | None = None,
    ) -> None:
        super().__init__(sim, name or f"client/{client_id}", config=config.client_node)
        self.client_id = client_id
        self.network = network
        self.config = config
        self.sharder = sharder
        self.crypto = CryptoContext(
            registry, registry.issue(self.name), config.crypto, self.cpu
        )
        self.verifier = AttestationVerifier(self.crypto, aggregate=config.crypto.signature_aggregation)
        self.validator = CertValidator(config, sharder, self.verifier)
        self._req_seq = 0
        #: Highest timestamp handed out by begin(); open-loop injection
        #: (repro.load) starts many concurrent sessions on one client,
        #: and two transactions sharing (time, client_id) would collide
        #: on their identity.  Closed-loop use never trips this guard.
        self._last_issued = GENESIS
        self._pending: dict[int, Queue] = {}
        #: Pushed ST2R (req_id == 0) routed by transaction id.
        self._finish_watch: dict[Digest, list[Queue]] = {}
        #: Dedupe concurrent fallback invocations per transaction.
        self._finishing: dict[Digest, Any] = {}
        # statistics
        self.fallbacks_invoked = 0
        self.recoveries_started = 0
        self.recoveries_finished = 0

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def _next_req(self) -> int:
        self._req_seq += 1
        return self._req_seq

    def _register(self, req_id: int) -> Queue:
        queue = Queue(self.sim)
        self._pending[req_id] = queue
        return queue

    def _unregister(self, req_id: int) -> None:
        self._pending.pop(req_id, None)

    async def handle_message(self, sender: str, message: Any) -> None:
        req_id = self._req_id_of(message)
        if req_id is not None:
            queue = self._pending.get(req_id)
            if queue is not None:
                queue.put((sender, message))
                return
        # Pushed ST2R results (fallback decisions) arrive with req_id 0 or
        # after their request completed; route them by transaction id.
        if isinstance(message, DecisionLogReply) and isinstance(
            message.attestation, (SignedMessage, BatchAttestation)
        ):
            payload = attestation_payload(message.attestation)
            if isinstance(payload, DecisionLogResult):
                for queue in self._finish_watch.get(payload.txid, []):
                    queue.put((sender, message))

    @staticmethod
    def _req_id_of(message: Any) -> int | None:
        if isinstance(message, (PrepareReply, DecisionLogReply, RecoveryReply, FetchTxReply)):
            return message.req_id
        if isinstance(message, (SignedMessage, BatchAttestation)):
            payload = attestation_payload(message)
            if isinstance(payload, ReadReply):
                return payload.req_id
        return None

    # ------------------------------------------------------------------
    # Execution phase
    # ------------------------------------------------------------------
    def begin(self) -> TxBuilder:
        """Begin(): choose ts = (Time, ClientID) from the local clock.

        Timestamps are strictly monotonic per client: when two sessions
        begin within the same clock microsecond (possible only under
        open-loop injection), the later one is bumped forward one tick.
        Replicas admit timestamps up to their clock + delta, so a bump
        of a few microseconds never risks rejection.
        """
        ts = Timestamp.from_clock(self.local_time, self.client_id)
        if ts <= self._last_issued:
            ts = Timestamp(time=self._last_issued.time + 1, client_id=self.client_id)
        self._last_issued = ts
        return TxBuilder(timestamp=ts)

    async def read(self, builder: TxBuilder, key: Any) -> ReadResult:
        """Sec 4.1 Read(): quorum read with Byzantine-validity filtering."""
        shard = self.sharder.shard_of(key)
        members = self.sharder.members(shard)
        fanout = self.config.effective_read_fanout
        quorum = self.config.effective_read_quorum
        req_id = self._next_req()
        # rotate targets per request so sub-n fanouts spread load evenly
        start = (self.client_id + req_id) % len(members)
        targets = [members[(start + i) % len(members)] for i in range(fanout)]
        queue = self._register(req_id)
        request = ReadRequest(req_id=req_id, key=key, timestamp=builder.timestamp, client=self.name)
        try:
            self.network.broadcast(self, targets, request)
            result = await self._collect_read(
                queue, request, shard, members, quorum
            )
        finally:
            self._unregister(req_id)
        builder.record_read(key, result.version)
        if result.dep is not None:
            builder.record_dep(result.dep)
        return result

    async def _collect_read(
        self,
        queue: Queue,
        request: ReadRequest,
        shard: int,
        members: tuple[str, ...],
        quorum: int,
    ) -> ReadResult:
        valid_from: set[str] = set()
        best_committed: tuple[Timestamp, Any] | None = None
        prepared_seen: dict[Digest, tuple[set[str], Any, TxRecord]] = {}
        prepared_threshold = 1 if quorum == 1 else self.config.f + 1
        attempts = 0
        while True:
            try:
                sender, message = await self.sim.wait_for(
                    queue.get(), self.config.request_timeout
                )
            except SimTimeoutError:
                attempts += 1
                if attempts > 8:
                    raise ProtocolError(f"read of {request.key!r} starved")
                self.network.broadcast(self, members, request)
                continue
            reply = await self._validated_read_reply(sender, message, request, members)
            if reply is None or sender in valid_from:
                continue
            valid_from.add(sender)
            if reply.committed is not None:
                committed = reply.committed
                if await self._committed_read_valid(request.key, committed, request.timestamp):
                    if best_committed is None or committed.version > best_committed[0]:
                        best_committed = (committed.version, committed.value)
            if reply.prepared is not None:
                prepared = reply.prepared
                if self._prepared_read_shape_ok(request.key, prepared, request.timestamp):
                    entry = prepared_seen.setdefault(
                        prepared.tx.txid, (set(), prepared.value, prepared.tx)
                    )
                    entry[0].add(sender)
            if len(valid_from) >= quorum:
                return self._choose_read(
                    request.key, best_committed, prepared_seen, prepared_threshold
                )

    async def _validated_read_reply(
        self, sender: str, message: Any, request: ReadRequest, members: tuple[str, ...]
    ) -> ReadReply | None:
        if not isinstance(message, (SignedMessage, BatchAttestation)):
            return None
        payload = attestation_payload(message)
        if not isinstance(payload, ReadReply):
            return None
        if payload.req_id != request.req_id or payload.key != request.key:
            return None
        if payload.replica != sender or message.signer != sender or sender not in members:
            return None
        if not await self.verifier.verify(message):
            return None
        return payload

    async def _committed_read_valid(self, key, committed, ts: Timestamp) -> bool:
        if committed.version >= ts:
            return False
        cert = committed.cert
        if not isinstance(cert, CommitCert):
            return False
        if cert.kind == "genesis":
            # Genesis state is known to all participants at load time.
            return committed.version == GENESIS and cert.txid == GENESIS_TXID
        tx = committed.tx
        if tx is None or tx.timestamp != committed.version:
            return False
        if not tx.writes_key(key) or tx.written_value(key) != committed.value:
            return False
        return await self.validator.validate_commit(cert, tx)

    def _prepared_read_shape_ok(self, key, prepared, ts: Timestamp) -> bool:
        tx = prepared.tx
        if tx.timestamp >= ts:
            return False
        if not tx.writes_key(key) or tx.written_value(key) != prepared.value:
            return False
        return True

    def _choose_read(
        self,
        key: Any,
        best_committed: tuple[Timestamp, Any] | None,
        prepared_seen: dict[Digest, tuple[set[str], Any, TxRecord]],
        prepared_threshold: int,
    ) -> ReadResult:
        """Pick the highest-timestamped *valid* version (Sec 4.1 step 3)."""
        best_prepared: tuple[Timestamp, Any, TxRecord] | None = None
        for _txid, (senders, value, tx) in prepared_seen.items():
            if len(senders) < prepared_threshold:
                continue
            if best_prepared is None or tx.timestamp > best_prepared[0]:
                best_prepared = (tx.timestamp, value, tx)
        if best_prepared is not None and (
            best_committed is None or best_prepared[0] > best_committed[0]
        ):
            version, value, tx = best_prepared
            dep = Dep(txid=tx.txid, key=key, version=version)
            return ReadResult(key=key, value=value, version=version, dep=dep, dep_record=tx)
        if best_committed is not None:
            return ReadResult(key=key, value=best_committed[1], version=best_committed[0])
        # No version exists below our timestamp: read the initial "empty"
        # state; the read-set entry still fences conflicting writers.
        return ReadResult(key=key, value=None, version=GENESIS)

    def abort_execution(self, builder: TxBuilder) -> None:
        """Sec 4.1 Abort(): release our RTS marks; writes were buffered."""
        by_shard: dict[int, list[Any]] = {}
        for key in builder.reads:
            by_shard.setdefault(self.sharder.shard_of(key), []).append(key)
        for shard, keys in by_shard.items():
            request = RtsRemoveRequest(keys=tuple(keys), timestamp=builder.timestamp)
            self.network.broadcast(self, self.sharder.members(shard), request)

    # ------------------------------------------------------------------
    # Prepare + Writeback (Sec 4.2, 4.3)
    # ------------------------------------------------------------------
    async def commit(self, tx: TxRecord, dep_records: dict[Digest, TxRecord] | None = None) -> PrepareOutcome:
        """Run the full Prepare/Writeback pipeline for ``tx``."""
        outcome = await self.prepare(tx, dep_records or {})
        wb_begin = self.sim.now
        self.writeback(tx, outcome.cert)
        if self.sim.instruments is not None:
            # The client-perceived writeback phase: fire-and-forget, so
            # its span closes the execute/st1/st2 tiling at zero width.
            self.sim.instruments.txn_phase(
                self.name, "writeback", wb_begin,
                txid=tx.txid.hex(), decision=outcome.decision.name,
                fast_path=outcome.fast_path,
            )
        if outcome.decision is Decision.ABORT and outcome.conflicts:
            # Sec 5: a client aborted because of a (possibly stalled)
            # transaction tries to finish it, so its own retry can pass.
            await self._finish_conflict_hints(outcome.conflicts, dep_records or {})
        return outcome

    async def _finish_conflict_hints(
        self, conflicts: dict[Digest, Any], dep_records: dict[Digest, TxRecord]
    ) -> None:
        for txid, key in list(conflicts.items())[:3]:
            record = dep_records.get(txid)
            if record is None:
                record = await self.fetch_tx(txid, key)
            if record is not None:
                try:
                    await self.finish(record)
                except ProtocolError:
                    pass

    async def prepare(
        self, tx: TxRecord, dep_records: dict[Digest, TxRecord]
    ) -> PrepareOutcome:
        involved = self.sharder.shards_of_tx(tx)
        req_id = self._next_req()
        queue = self._register(req_id)
        request = PrepareRequest(req_id=req_id, tx=tx, client=self.name)
        st1_begin = self.sim.now
        try:
            await self.crypto.charge_sign()
            for shard in involved:
                self.network.broadcast(self, self.sharder.members(shard), request)
            outcomes, tallies, conflicts = await self._collect_votes(
                queue, request, tx, involved, dep_records
            )
        finally:
            self._unregister(req_id)
            if self.sim.instruments is not None:
                self.sim.instruments.txn_phase(
                    self.name, "st1", st1_begin,
                    txid=tx.txid.hex(), shards=len(involved),
                )
        outcome = await self._decide(tx, outcomes, tallies)
        outcome.conflicts = conflicts
        return outcome

    async def _collect_votes(
        self,
        queue: Queue,
        request: PrepareRequest,
        tx: TxRecord,
        involved: tuple[int, ...],
        dep_records: dict[Digest, TxRecord],
    ) -> tuple[dict[int, ShardOutcome], dict[int, VoteTally], dict[Digest, Any]]:
        collectors = {
            shard: ShardVoteCollector(txid=tx.txid, shard=shard, config=self.config)
            for shard in involved
        }
        outcomes: dict[int, ShardOutcome] = {}
        tallies: dict[int, VoteTally] = {}
        conflicts: dict[Digest, Any] = {}
        stall_rounds = 0
        quorum_begin = self.sim.now
        while len(outcomes) < len(involved):
            try:
                sender, message = await self.sim.wait_for(
                    queue.get(), self.config.dependency_timeout
                )
            except SimTimeoutError:
                # Patience exhausted: settle shards that can classify from
                # the replies already in hand (slow-path thresholds).
                for shard, collector in collectors.items():
                    if shard in outcomes:
                        continue
                    classified = collector.classify(complete=True)
                    if classified is not None:
                        outcomes[shard], tallies[shard] = classified
                        if self.sim.instruments is not None:
                            self.sim.instruments.quorum_formed(
                                shard, self.sim.now - quorum_begin
                            )
                if len(outcomes) == len(involved):
                    break
                stall_rounds += 1
                if stall_rounds > 6:
                    raise ProtocolError(f"prepare of {tx!r} starved")
                # Dependencies may be stalled: finish them, then re-prepare.
                await self._finish_dependencies(tx, dep_records)
                for shard in involved:
                    if shard not in outcomes:
                        self.network.broadcast(
                            self, self.sharder.members(shard), request
                        )
                continue
            vote_att = await self._validated_vote(sender, message, request, tx)
            if vote_att is None:
                continue
            payload = attestation_payload(vote_att)
            if payload.conflict_txid is not None:
                conflicts[payload.conflict_txid] = payload.conflict_key
            shard = self.sharder.shard_of_replica(sender)
            collector = collectors.get(shard)
            if collector is None or shard in outcomes:
                continue
            collector.add(vote_att)
            classified = collector.classify(complete=collector.replies >= self.config.n)
            if classified is not None:
                outcomes[shard], tallies[shard] = classified
                if self.sim.instruments is not None:
                    self.sim.instruments.quorum_formed(shard, self.sim.now - quorum_begin)
        return outcomes, tallies, conflicts

    async def _validated_vote(
        self, sender: str, message: Any, request: PrepareRequest, tx: TxRecord
    ) -> Attestation | None:
        if not isinstance(message, PrepareReply) or message.req_id != request.req_id:
            return None
        if not self.sharder.is_replica(sender):
            return None  # authenticated, but not a replica of any shard
        att = message.attestation
        payload = attestation_payload(att)
        if not isinstance(payload, PrepareVote) or payload.txid != tx.txid:
            return None
        if payload.replica != sender or att.signer != sender:
            return None
        if not await self.verifier.verify(att):
            return None
        if payload.conflict is not None:
            if payload.vote is not Vote.ABORT:
                return None
            if not await self.validator.validate_conflict(payload.conflict, tx):
                return None  # fabricated conflict: drop the whole vote
        return att

    async def _finish_dependencies(
        self, tx: TxRecord, dep_records: dict[Digest, TxRecord]
    ) -> None:
        for dep in tx.deps:
            record = dep_records.get(dep.txid)
            if record is None:
                record = await self.fetch_tx(dep.txid, dep.key)
            if record is not None:
                await self.finish(record)

    async def _decide(
        self,
        tx: TxRecord,
        outcomes: dict[int, ShardOutcome],
        tallies: dict[int, VoteTally],
    ) -> PrepareOutcome:
        decision = (
            Decision.COMMIT
            if all(o.decision is Decision.COMMIT for o in outcomes.values())
            else Decision.ABORT
        )
        if self.config.fast_path_enabled:
            if decision is Decision.COMMIT and all(
                o is ShardOutcome.COMMIT_FAST for o in outcomes.values()
            ):
                cert = CommitCert(
                    txid=tx.txid, kind="fast", tallies=tuple(tallies.values())
                )
                return PrepareOutcome(decision, True, cert, outcomes)
            if decision is Decision.ABORT:
                for shard, outcome in outcomes.items():
                    if outcome is ShardOutcome.ABORT_FAST:
                        cert = AbortCert(txid=tx.txid, kind="fast", tally=tallies[shard])
                        return PrepareOutcome(decision, True, cert, outcomes)
        logged_decision, log_cert = await self.log_decision(
            tx, decision, tuple(tallies.values())
        )
        if logged_decision is Decision.COMMIT:
            cert: DecisionCert = CommitCert(txid=tx.txid, kind="slow", log=log_cert)
        else:
            cert = AbortCert(txid=tx.txid, kind="slow", log=log_cert)
        return PrepareOutcome(logged_decision, False, cert, outcomes)

    async def log_decision(
        self, tx: TxRecord, decision: Decision, tallies: tuple[VoteTally, ...], view: int = 0
    ) -> tuple[Decision, ShardLogCert]:
        """ST2: log the decision on S_log; wait for n-f matching ST2R."""
        s_log = self.sharder.s_log(tx)
        members = self.sharder.members(s_log)
        req_id = self._next_req()
        queue = self._register(req_id)
        request = DecisionLogRequest(
            req_id=req_id,
            tx=tx,
            decision=decision,
            shard_votes=tallies,
            view=view,
            client=self.name,
        )
        st2_begin = self.sim.now
        try:
            await self.crypto.charge_sign()
            self.network.broadcast(self, members, request)
            groups: dict[tuple[Decision, int], dict[str, Attestation]] = {}
            attempts = 0
            while True:
                try:
                    sender, message = await self.sim.wait_for(
                        queue.get(), self.config.request_timeout
                    )
                except SimTimeoutError:
                    attempts += 1
                    if attempts > 8:
                        raise ProtocolError(f"ST2 for {tx!r} starved")
                    self.network.broadcast(self, members, request)
                    continue
                att = await self._validated_st2r(sender, message, tx, members, req_id)
                if att is None:
                    continue
                payload: DecisionLogResult = attestation_payload(att)
                group = groups.setdefault(
                    (payload.decision, payload.view_decision), {}
                )
                group[payload.replica] = att
                if len(group) >= self.config.st2_quorum:
                    cert = ShardLogCert(
                        txid=tx.txid,
                        shard=s_log,
                        decision=payload.decision,
                        view=payload.view_decision,
                        st2rs=tuple(group.values()),
                    )
                    return payload.decision, cert
        finally:
            self._unregister(req_id)
            if self.sim.instruments is not None:
                self.sim.instruments.txn_phase(
                    self.name, "st2", st2_begin,
                    txid=tx.txid.hex(), proposed=decision.name,
                )

    async def _validated_st2r(
        self, sender: str, message: Any, tx: TxRecord, members: tuple[str, ...], req_id: int
    ) -> Attestation | None:
        if not isinstance(message, DecisionLogReply):
            return None
        if req_id and message.req_id not in (req_id, 0):
            return None
        att = message.attestation
        payload = attestation_payload(att)
        if not isinstance(payload, DecisionLogResult) or payload.txid != tx.txid:
            return None
        if payload.replica != sender or att.signer != sender or sender not in members:
            return None
        if not await self.verifier.verify(att):
            return None
        return att

    def writeback(self, tx: TxRecord, cert: DecisionCert) -> None:
        """Sec 4.3: asynchronously broadcast the decision certificate."""
        self.spawn(self._sign_writeback(), name="wb-sign")
        message = WritebackRequest(cert=cert, tx=tx)
        for shard in self.sharder.shards_of_tx(tx):
            self.network.broadcast(self, self.sharder.members(shard), message)

    async def _sign_writeback(self) -> None:
        await self.crypto.charge_sign()

    # ------------------------------------------------------------------
    # Record fetch (dependency chains)
    # ------------------------------------------------------------------
    async def fetch_tx(self, txid: Digest, key: Any) -> TxRecord | None:
        """Retrieve a transaction record by id from the key's shard.

        Self-authenticating: a record is accepted iff it hashes to the
        requested id, so a single honest reply suffices.
        """
        shard = self.sharder.shard_of(key)
        members = self.sharder.members(shard)
        req_id = self._next_req()
        queue = self._register(req_id)
        try:
            self.network.broadcast(self, members, FetchTxRequest(req_id=req_id, txid=txid))
            replies = 0
            while replies < len(members):
                try:
                    _sender, message = await self.sim.wait_for(
                        queue.get(), self.config.request_timeout
                    )
                except SimTimeoutError:
                    return None
                if not isinstance(message, FetchTxReply):
                    continue
                replies += 1
                if message.tx is not None and message.tx.txid == txid:
                    return message.tx
            return None
        finally:
            self._unregister(req_id)

    # ------------------------------------------------------------------
    # Fallback: finishing stalled transactions (Sec 5)
    # ------------------------------------------------------------------
    async def finish(self, tx: TxRecord) -> tuple[Decision, DecisionCert | None]:
        """Finish a (possibly foreign) transaction; idempotent per txid."""
        existing = self._finishing.get(tx.txid)
        if existing is not None:
            return await existing
        from repro.core.fallback import RecoveryCoordinator

        instruments = self.sim.instruments
        fb_begin = self.sim.now
        if instruments is not None:
            instruments.fallback_started(self.region)
        task = self.sim.create_task(
            RecoveryCoordinator(self, tx).run(), name=f"{self.name}/finish"
        )
        self._finishing[tx.txid] = task
        try:
            decision, cert = await task
            if instruments is not None and decision is Decision.ABORT:
                instruments.fallback_aborted()
            return decision, cert
        finally:
            self._finishing.pop(tx.txid, None)
            if instruments is not None:
                instruments.fallback_finished(self.name, fb_begin, tx.txid.hex())

    def watch_finish(self, txid: Digest, queue: Queue) -> None:
        self._finish_watch.setdefault(txid, []).append(queue)

    def unwatch_finish(self, txid: Digest, queue: Queue) -> None:
        queues = self._finish_watch.get(txid)
        if queues and queue in queues:
            queues.remove(queue)
            if not queues:
                del self._finish_watch[txid]
