"""Client-side transaction recovery (Sec 5).

Any client blocked by a stalled transaction T can finish it.  The
:class:`RecoveryCoordinator` first replays T's Prepare phase with RP
messages (the *common case*: one extra round-trip on the fast path, two
with logging).  If replicas report divergent logged decisions — Byzantine
ST2 equivocation, or concurrent recoverers — it drives the *divergent
case*: fallback leader election on the logging shard, DECFB decision
reconciliation, and collection of n-f matching ST2R results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.attestation import Attestation, attestation_payload
from repro.core.certificates import (
    AbortCert,
    CommitCert,
    DecisionCert,
    ShardLogCert,
)
from repro.core.messages import (
    Decision,
    DecisionLogReply,
    DecisionLogRequest,
    DecisionLogResult,
    InvokeFBRequest,
    PrepareRequest,
    PrepareVote,
    RecoveryReply,
    Vote,
)
from repro.core.transaction import TxRecord
from repro.core.votes import ShardOutcome, ShardVoteCollector, VoteTally
from repro.errors import ProtocolError, SimTimeoutError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import BasilClient


@dataclass
class _RecoveryState:
    """Mutable evidence gathered while finishing one transaction."""

    collectors: dict[int, ShardVoteCollector]
    outcomes: dict[int, ShardOutcome] = field(default_factory=dict)
    tallies: dict[int, VoteTally] = field(default_factory=dict)
    #: Latest attested ST2R per logging-shard replica.
    st2r: dict[str, Attestation] = field(default_factory=dict)

    def record_st2r(self, att: Attestation) -> None:
        payload: DecisionLogResult = attestation_payload(att)
        current = self.st2r.get(payload.replica)
        if current is None or attestation_payload(current).view_current <= payload.view_current:
            self.st2r[payload.replica] = att

    def st2r_quorum(self, quorum: int) -> tuple[Decision, int, tuple[Attestation, ...]] | None:
        groups: dict[tuple[Decision, int], list[Attestation]] = {}
        for att in self.st2r.values():
            payload = attestation_payload(att)
            groups.setdefault((payload.decision, payload.view_decision), []).append(att)
        for (decision, view), atts in groups.items():
            if len(atts) >= quorum:
                return decision, view, tuple(atts)
        return None

    def divergent(self) -> bool:
        keys = {
            (attestation_payload(a).decision, attestation_payload(a).view_decision)
            for a in self.st2r.values()
        }
        return len(keys) > 1


class RecoveryCoordinator:
    """Drives the fallback protocol for one transaction on one client."""

    def __init__(self, client: "BasilClient", tx: TxRecord) -> None:
        self.client = client
        self.tx = tx
        self.config = client.config
        self.sharder = client.sharder
        self.sim = client.sim
        self.involved = self.sharder.shards_of_tx(tx)
        self.s_log = self.sharder.s_log(tx)
        self.log_members = self.sharder.members(self.s_log)

    @property
    def network(self):
        return self.client.network

    def _broadcast_all(self, message: Any) -> None:
        for shard in self.involved:
            self.network.broadcast(self.client, self.sharder.members(shard), message)

    async def run(self) -> tuple[Decision, DecisionCert | None]:
        self.client.recoveries_started += 1
        instruments = self.sim.instruments
        if instruments is not None:
            instruments.recovery(
                self.client.name, "recovery_start",
                txid=self.tx.txid.hex(), shards=len(self.involved),
            )
        req_id = self.client._next_req()
        queue = self.client._register(req_id)
        self.client.watch_finish(self.tx.txid, queue)
        try:
            state = _RecoveryState(
                collectors={
                    shard: ShardVoteCollector(
                        txid=self.tx.txid, shard=shard, config=self.config
                    )
                    for shard in self.involved
                }
            )
            done = await self._common_case(req_id, queue, state)
            if done is None:
                done = await self._divergent_case(req_id, queue, state)
            self.client.recoveries_finished += 1
            if instruments is not None:
                instruments.recovery(
                    self.client.name, "recovery_done",
                    txid=self.tx.txid.hex(), decision=done[0].value,
                )
            return done
        finally:
            self.client.unwatch_finish(self.tx.txid, queue)
            self.client._unregister(req_id)

    # ------------------------------------------------------------------
    # Common case: replay the Prepare phase
    # ------------------------------------------------------------------
    async def _common_case(
        self, req_id: int, queue, state: _RecoveryState
    ) -> tuple[Decision, DecisionCert] | None:
        request = PrepareRequest(req_id=req_id, tx=self.tx, client=self.client.name, recovery=True)
        await self.client.crypto.charge_sign()
        self._broadcast_all(request)
        attempts = 0
        while True:
            try:
                sender, message = await self.sim.wait_for(
                    queue.get(), self.config.request_timeout
                )
            except SimTimeoutError:
                # Settle shards classifiable from the replies in hand.
                for shard, collector in state.collectors.items():
                    if shard in state.outcomes:
                        continue
                    classified = collector.classify(complete=True)
                    if classified is not None:
                        state.outcomes[shard], state.tallies[shard] = classified
                if len(state.outcomes) == len(self.involved) and not state.divergent():
                    outcome = await self.client._decide(self.tx, state.outcomes, state.tallies)
                    self.client.writeback(self.tx, outcome.cert)
                    return outcome.decision, outcome.cert
                attempts += 1
                if state.st2r and state.divergent():
                    return None  # move on to the divergent case
                if attempts > 6:
                    raise ProtocolError(f"recovery of {self.tx!r} starved")
                # Replicas may themselves be parked on this transaction's
                # dependencies: finish those first, then replay RP.
                await self.client._finish_dependencies(self.tx, {})
                self._broadcast_all(request)
                continue
            finished = await self._ingest(sender, message, req_id, state)
            if finished is not None:
                return finished
            # Decision point 1: a matching logged quorum already exists.
            quorum = state.st2r_quorum(self.config.st2_quorum)
            if quorum is not None:
                return self._finish_with_log_cert(*quorum)
            # Decision point 2: every shard classified from ST1R votes and
            # no divergence: proceed exactly like a normal Prepare.
            if len(state.outcomes) == len(self.involved) and not state.divergent():
                outcome = await self.client._decide(self.tx, state.outcomes, state.tallies)
                self.client.writeback(self.tx, outcome.cert)
                return outcome.decision, outcome.cert
            # Decision point 3: divergence detected with full information.
            if state.divergent() and len(state.st2r) >= self.config.st2_quorum:
                return None

    async def _ingest(
        self, sender: str, message: Any, req_id: int, state: _RecoveryState
    ) -> tuple[Decision, DecisionCert] | None:
        """Fold one reply into the evidence; return a result if final."""
        if isinstance(message, RecoveryReply):
            if message.req_id != req_id or message.replica != sender:
                return None
            if message.cert is not None:
                if await self.client.validator.validate(message.cert, self.tx):
                    self.client.writeback(self.tx, message.cert)
                    return message.cert.decision, message.cert
                return None
            if message.st2r is not None:
                att = await self.client._validated_st2r(
                    sender, DecisionLogReply(req_id=req_id, attestation=message.st2r),
                    self.tx, self.log_members, req_id,
                )
                if att is not None:
                    state.record_st2r(att)
            if message.st1r is not None:
                await self._ingest_st1r(sender, message.st1r, state)
            return None
        if isinstance(message, DecisionLogReply):
            att = await self.client._validated_st2r(
                sender, message, self.tx, self.log_members, req_id
            )
            if att is not None:
                state.record_st2r(att)
            return None
        return None

    async def _ingest_st1r(self, sender: str, att: Attestation, state: _RecoveryState) -> None:
        if not self.sharder.is_replica(sender):
            return
        payload = attestation_payload(att)
        if not isinstance(payload, PrepareVote) or payload.txid != self.tx.txid:
            return
        if payload.replica != sender or att.signer != sender:
            return
        shard = self.sharder.shard_of_replica(sender)
        collector = state.collectors.get(shard)
        if collector is None or shard in state.outcomes:
            return
        if sender not in self.sharder.members(shard):
            return
        if not await self.client.verifier.verify(att):
            return
        if payload.conflict is not None:
            if payload.vote is not Vote.ABORT:
                return
            if not await self.client.validator.validate_conflict(payload.conflict, self.tx):
                return
        collector.add(att)
        classified = collector.classify(complete=collector.replies >= self.config.n)
        if classified is not None:
            state.outcomes[shard], state.tallies[shard] = classified

    def _finish_with_log_cert(
        self, decision: Decision, view: int, atts: tuple[Attestation, ...]
    ) -> tuple[Decision, DecisionCert]:
        log_cert = ShardLogCert(
            txid=self.tx.txid, shard=self.s_log, decision=decision, view=view, st2rs=atts
        )
        if decision is Decision.COMMIT:
            cert: DecisionCert = CommitCert(txid=self.tx.txid, kind="slow", log=log_cert)
        else:
            cert = AbortCert(txid=self.tx.txid, kind="slow", log=log_cert)
        self.client.writeback(self.tx, cert)
        return decision, cert

    # ------------------------------------------------------------------
    # Divergent case: fallback leader election
    # ------------------------------------------------------------------
    async def _divergent_case(
        self, req_id: int, queue, state: _RecoveryState
    ) -> tuple[Decision, DecisionCert]:
        self.client.fallbacks_invoked += 1
        # Lemma 5's precondition: every correct S_log replica must hold a
        # *client-proposed* logged decision before electing a leader.  If
        # our ST1R tallies justify a decision, propose it (replicas that
        # already logged keep their decision; the rest adopt ours).
        if len(state.outcomes) == len(self.involved):
            decision = (
                Decision.COMMIT
                if all(o.decision is Decision.COMMIT for o in state.outcomes.values())
                else Decision.ABORT
            )
            request = DecisionLogRequest(
                req_id=req_id,
                tx=self.tx,
                decision=decision,
                shard_votes=tuple(state.tallies.values()),
                view=0,
                client=self.client.name,
            )
            await self.client.crypto.charge_sign()
            self.network.broadcast(self.client, self.log_members, request)

        for round_num in range(self.config.f + 3):
            if self.sim.instruments is not None:
                self.sim.instruments.recovery(
                    self.client.name, "invoke_fb",
                    txid=self.tx.txid.hex(), round=round_num,
                )
            evidence = tuple(state.st2r.values())
            invoke = InvokeFBRequest(
                req_id=req_id,
                txid=self.tx.txid,
                tx=self.tx,
                view_evidence=evidence,
                client=self.client.name,
            )
            await self.client.crypto.charge_sign()
            self.network.broadcast(self.client, self.log_members, invoke)
            deadline = self.config.fallback_view_timeout * (round_num + 1)
            result = await self._collect_st2r_round(req_id, queue, state, deadline)
            if result is not None:
                return result
        raise ProtocolError(f"fallback for {self.tx!r} failed to converge")

    async def _collect_st2r_round(
        self, req_id: int, queue, state: _RecoveryState, deadline: float
    ) -> tuple[Decision, DecisionCert] | None:
        end = self.sim.now + deadline
        while self.sim.now < end:
            try:
                sender, message = await self.sim.wait_for(
                    queue.get(), max(1e-6, end - self.sim.now)
                )
            except SimTimeoutError:
                return None
            finished = await self._ingest(sender, message, req_id, state)
            if finished is not None:
                return finished
            quorum = state.st2r_quorum(self.config.st2_quorum)
            if quorum is not None:
                return self._finish_with_log_cert(*quorum)
        return None

