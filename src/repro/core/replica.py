"""The Basil replica.

One replica serves one shard.  It handles, in order of the protocol's
phases:

* **Reads** (Sec 4.1): timestamp-bound admission, RTS updates, returning
  the latest committed version (with its C-CERT) and latest prepared
  version (with the writer's full record, enabling dependency recovery).
* **ST1 / Prepare** (Sec 4.2 stage 1): MVTSO-Check, vote-once semantics,
  asynchronous dependency waiting before casting the vote.
* **ST2 / decision logging** (stage 2): validating a client's 2PC
  decision against its SHARDVOTES and logging it durably.
* **Writeback** (Sec 4.3): validating C-CERT/A-CERT and applying them.
* **Fallback** (Sec 5): recovery prepares, view adoption on InvokeFB,
  ELECTFB to the view's leader, leader aggregation and DECFB, and
  pushing ST2R results to interested clients.

All signature work is charged to the replica's CPU; replies travel
through the Merkle reply batcher.
"""

from __future__ import annotations

from typing import Any

from repro.config import SystemConfig
from repro.core.attestation import Attestation, AttestationVerifier, attestation_payload
from repro.core.batching import ReplyBatcher
from repro.core.certificates import (
    AbortCert,
    CertValidator,
    CommitCert,
    GENESIS_CERT,
    GENESIS_TXID,
)
from repro.core.messages import (
    CommittedRead,
    DecFBMessage,
    DecFBPayload,
    Decision,
    DecisionLogReply,
    DecisionLogRequest,
    DecisionLogResult,
    ElectFBMessage,
    ElectFBPayload,
    FetchTxReply,
    FetchTxRequest,
    InvokeFBRequest,
    PreparedRead,
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
from repro.core.mvtso import (
    CheckResult,
    CheckStatus,
    TxPhase,
    TxState,
    apply_commit,
    classify_abort,
    mvtso_check,
    undo_prepare,
)
from repro.core.sharding import Sharder
from repro.core.timestamps import Timestamp
from repro.crypto.cost_model import CryptoContext
from repro.crypto.digest import Digest
from repro.crypto.signatures import KeyRegistry
from repro.sim.loop import Simulator
from repro.sim.network import Network
from repro.sim.node import Node


class BasilReplica(Node):
    """One shard replica running the Basil protocol."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        network: Network,
        config: SystemConfig,
        sharder: Sharder,
        registry: KeyRegistry,
    ) -> None:
        super().__init__(sim, name, config=config.node)
        self.network = network
        self.config = config
        self.sharder = sharder
        self.shard = sharder.shard_of_replica(name)
        self.crypto = CryptoContext(registry, registry.issue(name), config.crypto, self.cpu)
        self.verifier = AttestationVerifier(self.crypto, aggregate=config.crypto.signature_aggregation)
        self.validator = CertValidator(config, sharder, self.verifier)
        self.batcher = ReplyBatcher(
            sim, self.crypto, config.batch_size, config.batch_timeout, spawn=self.spawn
        )
        from repro.storage.versionstore import VersionStore

        self.store: VersionStore = VersionStore(sim)
        self.tx_states: dict[Digest, TxState] = {}
        #: Prepare requests parked on undecided dependencies (stats only).
        self.prepares_waiting = 0
        #: MVTSO-Check abort reasons seen here (fine-grained, always on;
        #: aggregated into BenchResult.extra and the obs abort taxonomy).
        self.abort_reasons: dict[str, int] = {}

    def state_of(self, txid: Digest) -> TxState:
        state = self.tx_states.get(txid)
        if state is None:
            state = TxState()
            self.tx_states[txid] = state
        return state

    # ------------------------------------------------------------------
    # Crash / restart (fault injection)
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """Node.crash() cancelled our tasks; also kill the batch timer.

        Without this the reply batcher's flush timer survives the crash,
        fires into the event loop, and signs + resolves attestations on
        behalf of a dead replica (the classic stale-callback leak).
        """
        self.batcher.close()

    def on_restart(self) -> None:
        """Restart with state retention (modeled durable storage).

        Committed data, decided transactions, and *cast* votes survive
        (vote-once must hold across restarts).  Volatile mid-flight state
        does not: the partial reply batch died with the crash, and any
        transaction that was prepared but whose vote was still pending on
        dependency decisions is rolled back — the interrupted wait task
        is gone, so the prepare is redone from scratch when a client
        replays ST1/RP.
        """
        self.batcher = ReplyBatcher(
            self.sim, self.crypto, self.config.batch_size, self.config.batch_timeout,
            spawn=self.spawn,
        )
        for state in self.tx_states.values():
            if state.phase is TxPhase.PREPARED and state.vote is None and state.tx is not None:
                undo_prepare(self.store, self.sharder.part_of(state.tx, self.shard))
                state.phase = TxPhase.UNKNOWN

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def handle_message(self, sender: str, message: Any) -> None:
        if isinstance(message, ReadRequest):
            await self.on_read(sender, message)
        elif isinstance(message, PrepareRequest):
            await self.on_prepare(sender, message)
        elif isinstance(message, DecisionLogRequest):
            await self.on_decision_log(sender, message)
        elif isinstance(message, WritebackRequest):
            await self.on_writeback(sender, message)
        elif isinstance(message, RtsRemoveRequest):
            self.on_rts_remove(message)
        elif isinstance(message, FetchTxRequest):
            self.on_fetch_tx(sender, message)
        elif isinstance(message, InvokeFBRequest):
            await self.on_invoke_fallback(sender, message)
        elif isinstance(message, ElectFBMessage):
            await self.on_elect_fb(sender, message)
        elif isinstance(message, DecFBMessage):
            await self.on_dec_fb(sender, message)

    # ------------------------------------------------------------------
    # Reads (Sec 4.1)
    # ------------------------------------------------------------------
    def _within_time_bound(self, ts: Timestamp) -> bool:
        bound = Timestamp.from_clock(self.local_time + self.config.delta, 1 << 62)
        return ts <= bound

    @staticmethod
    def _timestamp_matches_sender(ts: Timestamp, sender: str) -> bool:
        """The timestamp's client id must belong to the authenticated
        sender (channels are authenticated), or a Byzantine client could
        frame others — e.g. plant read timestamps under an honest
        client's id."""
        if not sender.startswith("client/"):
            return True  # replicas relaying recovery traffic
        try:
            return int(sender.split("/", 1)[1]) == ts.client_id
        except ValueError:
            return False

    async def on_read(self, sender: str, req: ReadRequest) -> None:
        if not self._within_time_bound(req.timestamp):
            return  # paper: replicas ignore out-of-bound reads
        if not self._timestamp_matches_sender(req.timestamp, sender):
            return  # forged client id in the timestamp: framing attempt
        self.store.update_rts(req.key, req.timestamp)
        reply = self.build_read_reply(req)
        # The ReadReply payload carries the req_id, so the attestation
        # itself is the wire message (no extra envelope needed).
        att = await self.batcher.attest(reply)
        self.network.send(self, sender, att)

    def build_read_reply(self, req: ReadRequest) -> ReadReply:
        committed = None
        version = self.store.latest_committed(req.key, req.timestamp)
        if version is not None:
            cert, writer_tx = GENESIS_CERT, None
            if version.writer != GENESIS_TXID:
                writer_state = self.tx_states.get(version.writer)
                cert = writer_state.cert if writer_state else None
                writer_tx = writer_state.tx if writer_state else None
            if cert is not None:
                committed = CommittedRead(
                    version=version.timestamp, value=version.value, cert=cert, tx=writer_tx
                )
        prepared = None
        pversion = self.store.latest_prepared(req.key, req.timestamp)
        if pversion is not None:
            writer_state = self.tx_states.get(pversion.writer)
            if writer_state is not None and writer_state.tx is not None:
                prepared = PreparedRead(value=pversion.value, tx=writer_state.tx)
        return ReadReply(
            req_id=req.req_id,
            key=req.key,
            replica=self.name,
            committed=committed,
            prepared=prepared,
        )

    def on_rts_remove(self, req: RtsRemoveRequest) -> None:
        for key in req.keys:
            self.store.remove_rts(key, req.timestamp)

    def on_fetch_tx(self, sender: str, req: FetchTxRequest) -> None:
        state = self.tx_states.get(req.txid)
        tx = state.tx if state else None
        self.network.send(
            self, sender, FetchTxReply(req_id=req.req_id, replica=self.name, tx=tx)
        )

    # ------------------------------------------------------------------
    # Prepare stage 1 (Sec 4.2)
    # ------------------------------------------------------------------
    async def on_prepare(self, sender: str, req: PrepareRequest) -> None:
        await self.crypto.charge_verify()
        tx = req.tx
        state = self.state_of(tx.txid)
        if state.tx is None:
            state.tx = tx
        if req.recovery:
            state.add_interested(sender)
        # Charge the id_T hash on first contact with this transaction.
        await self.crypto.charge_hash(tx.size_estimate())

        if state.vote is None and not state.decided:
            result = self.run_check(tx)
            if result.status in (CheckStatus.ABORT, CheckStatus.MISBEHAVIOR):
                state.vote = Vote.ABORT
                state.conflict = result.conflict
                state.conflict_txid = result.conflict_txid
                state.conflict_key = result.conflict_key
            elif result.pending_deps:
                # Step 7: wait for dependency decisions before voting.
                await self._await_dependencies(state, result.pending_deps)
            else:
                state.vote = Vote.COMMIT
        elif state.vote is None and state.decided:
            # Writeback arrived before any prepare: vote follows the outcome.
            state.vote = Vote.COMMIT if state.phase is TxPhase.COMMITTED else Vote.ABORT

        await self._reply_prepare(sender, req, state)

    def run_check(self, tx) -> CheckResult:
        result = mvtso_check(
            self.store, self.tx_states, self.sharder.part_of(tx, self.shard),
            self.local_time, self.config.delta,
        )
        if result.status is not CheckStatus.PREPARED:
            reason = result.reason or "unknown"
            self.abort_reasons[reason] = self.abort_reasons.get(reason, 0) + 1
        if self.sim.instruments is not None:
            prepared = result.status is CheckStatus.PREPARED
            self.sim.instruments.mvtso_check(
                self.name, tx.txid.hex(), result.status, len(result.pending_deps),
                None if prepared
                else (result.reason or "unknown", classify_abort(result.reason)),
            )
        return result

    async def _await_dependencies(self, state: TxState, pending: tuple[Digest, ...]) -> None:
        """Algorithm 1 lines 15-19: wait, then vote by dependency outcomes."""
        self.prepares_waiting += 1
        wait_begin = self.sim.now
        try:
            waits = [self.tx_states[d].wait_decision() for d in pending]
            decisions = await self.sim.gather(waits)
        finally:
            self.prepares_waiting -= 1
            if self.sim.instruments is not None:
                self.sim.instruments.dependency_waited(self.sim.now - wait_begin)
        if state.vote is not None or state.decided:
            return
        if all(d is Decision.COMMIT for d in decisions):
            state.vote = Vote.COMMIT
        else:
            if state.tx is not None and state.phase is TxPhase.PREPARED:
                undo_prepare(self.store, self.sharder.part_of(state.tx, self.shard))
                state.phase = TxPhase.UNKNOWN
            state.vote = Vote.ABORT

    async def _reply_prepare(self, sender: str, req: PrepareRequest, state: TxState) -> None:
        if req.recovery:
            reply = await self._recovery_reply(req.req_id, req.tx.txid, state)
        else:
            att = await self._attest_vote(req.tx.txid, state)
            reply = PrepareReply(req_id=req.req_id, attestation=att)
        self.network.send(self, sender, reply)

    async def _attest_vote(self, txid: Digest, state: TxState) -> Attestation:
        vote_payload = PrepareVote(
            txid=txid,
            replica=self.name,
            vote=state.vote,
            conflict=state.conflict,
            conflict_txid=state.conflict_txid,
            conflict_key=state.conflict_key,
        )
        return await self.batcher.attest(vote_payload)

    async def _recovery_reply(self, req_id: int, txid: Digest, state: TxState) -> RecoveryReply:
        """RPR: report how far this transaction progressed here.

        A finished transaction yields its certificate; otherwise both the
        logged ST2 state (if any) and the stage-1 vote are returned, so
        the recovering client can both detect divergence and assemble
        fresh SHARDVOTES.
        """
        if state.cert is not None:
            return RecoveryReply(req_id=req_id, replica=self.name, cert=state.cert)
        st2r = None
        if state.logged_decision is not None:
            result = DecisionLogResult(
                txid=txid,
                replica=self.name,
                decision=state.logged_decision,
                view_decision=state.view_decision,
                view_current=state.view_current,
            )
            st2r = await self.batcher.attest(result)
        st1r = None
        if state.vote is not None:
            st1r = await self._attest_vote(txid, state)
        return RecoveryReply(req_id=req_id, replica=self.name, st2r=st2r, st1r=st1r)

    # ------------------------------------------------------------------
    # Prepare stage 2: decision logging at S_log (Sec 4.2)
    # ------------------------------------------------------------------
    async def on_decision_log(self, sender: str, req: DecisionLogRequest) -> None:
        tx = req.tx
        if self.sharder.s_log(tx) != self.shard:
            return
        await self.crypto.charge_verify()
        state = self.state_of(tx.txid)
        if state.tx is None:
            state.tx = tx
        state.add_interested(sender)
        if state.logged_decision is None:
            if await self._justified(req):
                state.logged_decision = req.decision
                state.view_decision = req.view
        if state.logged_decision is None:
            return  # unjustified decision from a Byzantine client: ignore
        await self._send_st2r(sender, req.req_id, tx.txid, state)

    async def _justified(self, req: DecisionLogRequest) -> bool:
        """Validate that SHARDVOTES justify the client's 2PC decision."""
        if self.config.allow_unjustified_st2:
            # Experiment-only escape hatch for the paper's "equiv-forced"
            # worst case (Sec 6.4); see SystemConfig.allow_unjustified_st2.
            return True
        tx = req.tx
        involved = self.sharder.shards_of_tx(tx)
        tallies = {t.shard: t for t in req.shard_votes}
        if req.decision is Decision.COMMIT:
            for shard in involved:
                tally = tallies.get(shard)
                if tally is None or tally.decision is not Decision.COMMIT:
                    return False
                if not await self.validator.validate_vote_tally(
                    tally, tx, self.config.commit_quorum
                ):
                    return False
            return True
        for tally in req.shard_votes:
            if tally.decision is Decision.ABORT and await self.validator.validate_vote_tally(
                tally, tx, self.config.abort_quorum
            ):
                return True
        return False

    async def _send_st2r(self, dst: str, req_id: int, txid: Digest, state: TxState) -> None:
        result = DecisionLogResult(
            txid=txid,
            replica=self.name,
            decision=state.logged_decision,
            view_decision=state.view_decision,
            view_current=state.view_current,
        )
        att = await self.batcher.attest(result)
        self.network.send(self, dst, DecisionLogReply(req_id=req_id, attestation=att))

    # ------------------------------------------------------------------
    # Writeback (Sec 4.3)
    # ------------------------------------------------------------------
    async def on_writeback(self, sender: str, req: WritebackRequest) -> None:
        tx = req.tx
        state = self.state_of(tx.txid)
        if state.decided:
            return
        await self.crypto.charge_verify()
        cert = req.cert
        if isinstance(cert, CommitCert):
            if not await self.validator.validate_commit(cert, tx):
                return
            self.finalize(tx, Decision.COMMIT, cert)
        elif isinstance(cert, AbortCert):
            if not await self.validator.validate_abort(cert, tx):
                return
            self.finalize(tx, Decision.ABORT, cert)

    def finalize(self, tx, decision: Decision, cert) -> None:
        """Apply a validated decision certificate to local state."""
        state = self.state_of(tx.txid)
        if state.decided:
            return
        if state.tx is None:
            state.tx = tx
        state.cert = cert
        if decision is Decision.COMMIT:
            apply_commit(self.store, self.sharder.part_of(tx, self.shard))
            state.phase = TxPhase.COMMITTED
        else:
            if state.phase is TxPhase.PREPARED:
                undo_prepare(self.store, self.sharder.part_of(tx, self.shard))
            state.phase = TxPhase.ABORTED
        # Once decided, a wait resolves from the phase: drop the signal.
        signal, state.decision_signal = state.decision_signal, None
        if signal is not None:
            signal.fire(decision)

    # ------------------------------------------------------------------
    # Fallback: view adoption and leader election (Sec 5, divergent case)
    # ------------------------------------------------------------------
    async def on_invoke_fallback(self, sender: str, req: InvokeFBRequest) -> None:
        if self.sharder.s_log(req.tx) != self.shard:
            return
        state = self.state_of(req.txid)
        if state.tx is None:
            state.tx = req.tx
        state.add_interested(sender)
        await self.crypto.charge_verify()
        if state.decided or state.logged_decision is None:
            # Nothing to reconcile here (or nothing logged yet: the client
            # must first drive an ST2 so that Lemma 5's precondition —
            # ELECTFB only carries client-proposed decisions — holds).
            if state.decided:
                await self._send_st2r(sender, req.req_id, req.txid, state)
            return
        await self._adopt_view(state, req.view_evidence)
        leader = self.sharder.leader_of(self.shard, req.txid, state.view_current)
        payload = ElectFBPayload(
            txid=req.txid,
            replica=self.name,
            decision=state.logged_decision,
            view=state.view_current,
        )
        att = await self.crypto.sign(payload)
        self.network.send(self, leader, ElectFBMessage(attestation=att))
        # Echo our (signed) current view back to the invoking client so it
        # can assemble fresh evidence if this view's leader stalls.
        await self._send_st2r(sender, req.req_id, req.txid, state)

    async def _adopt_view(self, state: TxState, evidence: tuple[Attestation, ...]) -> None:
        """Apply the paper's view-adoption rules R1/R2 with subsumption."""
        views: dict[str, int] = {}
        for att in evidence:
            payload = attestation_payload(att)
            if not isinstance(payload, DecisionLogResult):
                continue
            if payload.replica != att.signer:
                continue
            if payload.replica not in self.sharder.members(self.shard):
                continue
            if not await self.verifier.verify(att):
                continue
            views[payload.replica] = max(views.get(payload.replica, 0), payload.view_current)

        if self.config.vote_subsumption:
            def support(v: int) -> int:
                return sum(1 for held in views.values() if held >= v)
        else:
            # Appendix B.5: exact matching only (aggregatable signatures)
            def support(v: int) -> int:
                return sum(1 for held in views.values() if held == v)

        candidates = sorted(set(views.values()), reverse=True)
        # R1: 3f+1 support for view v lets us *advance* to v+1, but only
        # after the previous view's leader had its chance (the timeout).
        timeout_ok = (
            state.view_current == 0
            or self.sim.now >= state.view_adopted_at + self.config.fallback_view_timeout
        )
        for v in candidates:
            if support(v) >= 3 * self.config.f + 1:
                if v + 1 > state.view_current and timeout_ok:
                    self._enter_view(state, v + 1)
                break
        # R2: f+1 support lets us *catch up* to v (no timeout needed).
        for v in candidates:
            if v > state.view_current and support(v) >= self.config.f + 1:
                self._enter_view(state, v)
                break
        # Optimization (Appendix B.5): view 0 -> 1 needs no proof.
        if state.view_current == 0:
            self._enter_view(state, 1)

    def _enter_view(self, state: TxState, view: int) -> None:
        if view <= state.view_current:
            return
        state.view_current = view
        state.view_adopted_at = self.sim.now
        if self.sim.instruments is not None:
            self.sim.instruments.view_changed(self.name, self.region)

    async def on_elect_fb(self, sender: str, msg: ElectFBMessage) -> None:
        payload: ElectFBPayload = attestation_payload(msg.attestation)
        if not isinstance(payload, ElectFBPayload) or payload.replica != msg.attestation.signer:
            return
        if payload.replica not in self.sharder.members(self.shard):
            return
        if not await self.verifier.verify(msg.attestation):
            return
        state = self.state_of(payload.txid)
        if self.sharder.leader_of(self.shard, payload.txid, payload.view) != self.name:
            return
        if state.elect_msgs is None:
            state.elect_msgs, state.proposed_views = {}, set()
        bucket = state.elect_msgs.setdefault(payload.view, {})
        bucket.setdefault(payload.replica, msg.attestation)
        if (
            len(bucket) >= self.config.elect_quorum
            and payload.view not in state.proposed_views
        ):
            state.proposed_views.add(payload.view)
            await self._propose_decision(state, payload.txid, payload.view)

    async def _propose_decision(self, state: TxState, txid: Digest, view: int) -> None:
        """As elected fallback leader: propose the majority decision."""
        atts = list(state.elect_msgs[view].values())[: self.config.elect_quorum]
        decisions = [attestation_payload(a).decision for a in atts]
        commits = sum(1 for d in decisions if d is Decision.COMMIT)
        dec_new = Decision.COMMIT if commits * 2 > len(decisions) else Decision.ABORT
        payload = DecFBPayload(txid=txid, leader=self.name, decision=dec_new, view=view)
        att = await self.crypto.sign(payload)
        message = DecFBMessage(attestation=att, proof=tuple(atts))
        self.network.broadcast(self, self.sharder.members(self.shard), message)

    async def on_dec_fb(self, sender: str, msg: DecFBMessage) -> None:
        payload: DecFBPayload = attestation_payload(msg.attestation)
        if not isinstance(payload, DecFBPayload):
            return
        state = self.state_of(payload.txid)
        if state.view_current > payload.view:
            return
        if self.sharder.leader_of(self.shard, payload.txid, payload.view) != payload.leader:
            return
        if payload.leader != msg.attestation.signer:
            return
        if not await self.verifier.verify(msg.attestation):
            return
        if not await self._valid_elect_proof(payload, msg.proof):
            return
        # Adopt the reconciled decision for this view.
        self._enter_view(state, payload.view)
        state.view_current = payload.view
        state.logged_decision = payload.decision
        state.view_decision = payload.view
        for client in sorted(state.interested or ()):
            await self._send_st2r(client, 0, payload.txid, state)

    async def _valid_elect_proof(
        self, payload: DecFBPayload, proof: tuple[Attestation, ...]
    ) -> bool:
        members = self.sharder.member_set(self.shard)
        seen: set[str] = set()
        decisions: list[Decision] = []
        for att in proof:
            elect = attestation_payload(att)
            if not isinstance(elect, ElectFBPayload):
                return False
            if elect.txid != payload.txid or elect.view != payload.view:
                return False
            if elect.replica != att.signer or elect.replica not in members:
                return False
            if elect.replica in seen:
                continue
            if not await self.verifier.verify(att):
                return False
            seen.add(elect.replica)
            decisions.append(elect.decision)
        if len(seen) < self.config.elect_quorum:
            return False
        commits = sum(1 for d in decisions if d is Decision.COMMIT)
        majority = Decision.COMMIT if commits * 2 > len(decisions) else Decision.ABORT
        return payload.decision is majority
