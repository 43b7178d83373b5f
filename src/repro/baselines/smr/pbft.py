"""A PBFT-style SMR group (the BFT-SMaRt analogue).

Stable leader, three phases (pre-prepare → prepare → commit), n = 3f+1.
Together with the client request and reply hops this gives the five
message delays the paper attributes to BFT-SMaRt before a Prepare result
reaches the client.

View changes are supported when ``SystemConfig.pbft_view_change_timeout``
is set: backups that see outstanding work stall broadcast VIEW-CHANGE
messages carrying their prepared batches, and the next leader (round
robin on the view number) re-proposes them in a NEW-VIEW.  The
simplification relative to full PBFT: view-change messages carry the
prepared batches themselves rather than prepare-certificates, which is
sufficient against the crash/silent-leader faults this substrate is
exercised with (the paper benchmarks the baselines fault-free).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.baselines.smr.log import SMRReply, SMRRequest, StateMachine
from repro.config import SystemConfig
from repro.core.batching import ReplyBatcher
from repro.crypto.cost_model import CryptoContext
from repro.crypto.digest import Digest, digest_of
from repro.crypto.signatures import KeyRegistry, SignedMessage
from repro.sim.loop import Simulator
from repro.sim.network import Network
from repro.sim.node import Node


@dataclass(frozen=True)
class PrePrepare:
    view: int
    seq: int
    ops: tuple[SMRRequest, ...]

    def canonical_fields(self) -> tuple:
        return (self.view, self.seq, tuple((o.op_id, o.client) for o in self.ops))


@dataclass(frozen=True)
class PhaseVote:
    """A PREPARE or COMMIT vote over a batch digest."""

    phase: str  # "prepare" | "commit"
    view: int
    seq: int
    digest: Digest
    replica: str

    def canonical_fields(self) -> tuple:
        return (self.phase, self.view, self.seq, self.digest, self.replica)


@dataclass(frozen=True)
class ViewChange:
    """A backup's vote to move to ``new_view``, with its prepared slots."""

    new_view: int
    replica: str
    last_executed: int
    #: (seq, ops) for every slot this replica has pre-prepared.
    prepared: tuple[tuple[int, tuple[SMRRequest, ...]], ...]

    def canonical_fields(self) -> tuple:
        return (
            self.new_view, self.replica, self.last_executed,
            tuple((seq, tuple((o.op_id, o.client) for o in ops))
                  for seq, ops in self.prepared),
        )


@dataclass(frozen=True)
class NewView:
    """The new leader's proof of election plus re-issued pre-prepares."""

    view: int
    view_changes: tuple[SignedMessage, ...]
    preprepares: tuple[PrePrepare, ...]

    def canonical_fields(self) -> tuple:
        return (self.view, self.view_changes, self.preprepares)


@dataclass
class _SlotState:
    batch: tuple[SMRRequest, ...] | None = None
    digest: Digest | None = None
    prepares: set[str] = None  # type: ignore[assignment]
    commits: set[str] = None  # type: ignore[assignment]
    sent_commit: bool = False
    committed: bool = False
    executed: bool = False

    def __post_init__(self) -> None:
        self.prepares = set()
        self.commits = set()


class PBFTReplica(Node):
    """One member of a PBFT group replicating one shard's state machine."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        network: Network,
        config: SystemConfig,
        group: tuple[str, ...],
        app: StateMachine,
        registry: KeyRegistry,
    ) -> None:
        super().__init__(sim, name, config=config.node)
        self.network = network
        self.config = config
        self.group = group
        self.app = app
        self.n = len(group)
        self.f = config.f
        self.index = group.index(name)
        self.crypto = CryptoContext(registry, registry.issue(name), config.crypto, self.cpu)
        self.reply_batcher = ReplyBatcher(
            sim, self.crypto, config.batch_size, config.batch_timeout
        )
        # leader state
        self._queue: list[SMRRequest] = []
        self._batch_timer = None
        self._next_seq = 1
        # replication state
        self._slots: dict[int, _SlotState] = {}
        self._executed_through = 0
        self._executing = False
        self.batches_ordered = 0
        # view-change state (enabled via config.pbft_view_change_timeout)
        self.view = 0
        self._vc_timeout = config.pbft_view_change_timeout
        self._suspicion_timer = None
        self._backup_queue: list[SMRRequest] = []
        self._view_changes: dict[int, dict[str, SignedMessage]] = {}
        self.view_changes_sent = 0

    # ------------------------------------------------------------------
    @property
    def leader(self) -> str:
        return self.group[self.view % self.n]

    @property
    def is_leader(self) -> bool:
        return self.name == self.leader

    def _slot(self, seq: int) -> _SlotState:
        slot = self._slots.get(seq)
        if slot is None:
            slot = _SlotState()
            self._slots[seq] = slot
        return slot

    # ------------------------------------------------------------------
    async def handle_message(self, sender: str, message: Any) -> None:
        if isinstance(message, SMRRequest):
            await self.on_request(message)
        elif isinstance(message, SignedMessage):
            payload = message.payload
            if isinstance(payload, PrePrepare):
                await self.on_preprepare(message)
            elif isinstance(payload, PhaseVote):
                await self.on_phase_vote(message)
            elif isinstance(payload, ViewChange):
                await self.on_view_change(message)
            elif isinstance(payload, NewView):
                await self.on_new_view(message)
        else:
            await self.app.handle_direct(self, sender, message)

    # -- leader: batching -------------------------------------------------
    async def on_request(self, request: SMRRequest) -> None:
        if not self.is_leader:
            if self._vc_timeout is not None:
                # remember it; if the leader makes no progress, suspect it
                self._backup_queue.append(request)
                self._arm_suspicion()
            return
        await self.crypto.charge_verify()
        self._queue.append(request)
        if len(self._queue) >= self.config.smr_batch_size:
            await self._flush()
        elif self._batch_timer is None:
            self._batch_timer = self.sim.call_later(
                self.config.smr_batch_timeout, self._flush_cb
            )

    def _flush_cb(self) -> None:
        self._batch_timer = None
        if self._queue:
            self.spawn(self._flush(), name="pbft-flush")

    async def _flush(self) -> None:
        if self._batch_timer is not None:
            self._batch_timer.cancel()
            self._batch_timer = None
        batch, self._queue = tuple(self._queue), []
        if not batch:
            return
        seq = self._next_seq
        self._next_seq += 1
        preprepare = PrePrepare(view=self.view, seq=seq, ops=batch)
        signed = await self.crypto.sign(preprepare)
        self.network.broadcast(self, self.group, signed)

    # -- backup: three phases ------------------------------------------------
    async def on_preprepare(self, signed: SignedMessage) -> None:
        preprepare: PrePrepare = signed.payload
        if preprepare.view != self.view:
            return
        if signed.signer != self.leader or not await self.crypto.verify(signed):
            return
        await self._accept_preprepare(preprepare)

    async def _accept_preprepare(self, preprepare: PrePrepare) -> None:
        """Adopt an (already authenticated) pre-prepare and vote prepare."""
        if preprepare.view != self.view:
            return
        slot = self._slot(preprepare.seq)
        if slot.batch is not None:
            return
        slot.batch = preprepare.ops
        if not self.is_leader:
            # backups verify each client request signature in the batch
            for _op in preprepare.ops:
                await self.crypto.charge_verify()
        slot.digest = digest_of(preprepare.canonical_fields())
        vote = PhaseVote("prepare", self.view, preprepare.seq, slot.digest, self.name)
        signed_vote = await self.crypto.sign(vote)
        self.network.broadcast(self, self.group, signed_vote)
        await self._maybe_advance(preprepare.seq)

    async def on_phase_vote(self, signed: SignedMessage) -> None:
        vote: PhaseVote = signed.payload
        if vote.view != self.view:
            return
        if vote.replica != signed.signer or vote.replica not in self.group:
            return
        if not await self.crypto.verify(signed):
            return
        slot = self._slot(vote.seq)
        if slot.digest is not None and vote.digest != slot.digest:
            return
        if vote.phase == "prepare":
            slot.prepares.add(vote.replica)
        elif vote.phase == "commit":
            slot.commits.add(vote.replica)
        await self._maybe_advance(vote.seq)

    async def _maybe_advance(self, seq: int) -> None:
        slot = self._slot(seq)
        if slot.batch is None or slot.digest is None:
            return
        # prepared: pre-prepare + 2f prepares (incl. our own)
        if len(slot.prepares) >= 2 * self.f and not slot.sent_commit:
            slot.sent_commit = True
            vote = PhaseVote("commit", self.view, seq, slot.digest, self.name)
            signed_vote = await self.crypto.sign(vote)
            self.network.broadcast(self, self.group, signed_vote)
        if len(slot.commits) >= 2 * self.f + 1 and not slot.committed:
            slot.committed = True
            await self._execute_ready()

    async def _execute_ready(self) -> None:
        """Apply committed batches strictly in sequence order.

        Non-reentrant: handler tasks yield at crypto awaits, so without
        the guard two tasks could interleave batch execution and replicas
        would apply identical logs in different effective orders.
        """
        if self._executing:
            return
        self._executing = True
        try:
            while True:
                seq = self._executed_through + 1
                slot = self._slots.get(seq)
                if slot is None or not slot.committed or slot.executed:
                    return
                slot.executed = True
                self._executed_through = seq
                self.batches_ordered += 1
                self._on_progress()
                for request in slot.batch:
                    await self.cpu.spend(self.config.smr_exec_cost)
                    result = await self.app.apply(request.op, index=seq)
                    reply = SMRReply(op_id=request.op_id, replica=self.name, result=result)
                    self._send_attested(request.client, reply)
        finally:
            self._executing = False

    def _send_attested(self, dst: str, reply: SMRReply) -> None:
        """Queue the reply for batch signing without blocking execution.

        The executor must not await the reply batcher: its flush timeout
        would serialize the whole pipeline behind reply batching.
        """
        fut = self.reply_batcher.attest(reply)
        fut.add_done_callback(
            lambda f: self.network.send(self, dst, f.result())
        )

    # ------------------------------------------------------------------
    # View change (silent-leader recovery)
    # ------------------------------------------------------------------
    def _arm_suspicion(self) -> None:
        if self._vc_timeout is None or self._suspicion_timer is not None:
            return
        self._suspicion_timer = self.sim.call_later(
            self._vc_timeout, self._suspect_leader
        )

    def _on_progress(self) -> None:
        """Execution advanced: the leader is alive; stand down."""
        self._backup_queue.clear()
        if self._suspicion_timer is not None:
            self._suspicion_timer.cancel()
            self._suspicion_timer = None

    def _stalled(self) -> bool:
        if self._backup_queue:
            return True
        return any(
            slot.batch is not None and not slot.executed
            for slot in self._slots.values()
        )

    def _suspect_leader(self) -> None:
        self._suspicion_timer = None
        if not self._stalled():
            return
        self.spawn(self._send_view_change(self.view + 1), name="pbft-vc")
        # keep suspecting (with the same period) until progress resumes
        self._arm_suspicion()

    async def _send_view_change(self, new_view: int) -> None:
        self.view_changes_sent += 1
        prepared = tuple(
            (seq, slot.batch)
            for seq, slot in sorted(self._slots.items())
            if slot.batch is not None and not slot.executed
        )
        message = ViewChange(
            new_view=new_view,
            replica=self.name,
            last_executed=self._executed_through,
            prepared=prepared,
        )
        signed = await self.crypto.sign(message)
        self.network.broadcast(self, self.group, signed)

    async def on_view_change(self, signed: SignedMessage) -> None:
        if self._vc_timeout is None:
            return
        vc: ViewChange = signed.payload
        if vc.new_view <= self.view:
            return
        if vc.replica != signed.signer or vc.replica not in self.group:
            return
        if not await self.crypto.verify(signed):
            return
        bucket = self._view_changes.setdefault(vc.new_view, {})
        bucket.setdefault(vc.replica, signed)
        # echo: joining a view change once f+1 others suspect too
        if len(bucket) >= self.f + 1 and self.name not in bucket:
            await self._send_view_change(vc.new_view)
        if (
            len(bucket) >= 2 * self.f + 1
            and self.group[vc.new_view % self.n] == self.name
        ):
            await self._lead_new_view(vc.new_view, tuple(bucket.values()))

    async def _lead_new_view(self, view: int, proofs: tuple[SignedMessage, ...]) -> None:
        if self.view >= view:
            return
        # union of prepared slots reported by the quorum
        batches: dict[int, tuple[SMRRequest, ...]] = {}
        for signed_vc in proofs:
            for seq, ops in signed_vc.payload.prepared:
                batches.setdefault(seq, ops)
        preprepares = tuple(
            PrePrepare(view=view, seq=seq, ops=ops)
            for seq, ops in sorted(batches.items())
        )
        message = NewView(view=view, view_changes=proofs, preprepares=preprepares)
        signed = await self.crypto.sign(message)
        self.network.broadcast(self, self.group, signed)

    async def on_new_view(self, signed: SignedMessage) -> None:
        if self._vc_timeout is None:
            return
        nv: NewView = signed.payload
        if nv.view <= self.view:
            return
        if signed.signer != self.group[nv.view % self.n]:
            return
        if not await self.crypto.verify(signed):
            return
        # validate the election proof: 2f+1 distinct signed VIEW-CHANGEs
        voters = set()
        for vc_signed in nv.view_changes:
            vc = vc_signed.payload
            if not isinstance(vc, ViewChange) or vc.new_view != nv.view:
                return
            if vc.replica != vc_signed.signer or vc.replica not in self.group:
                return
            if not await self.crypto.verify(vc_signed):
                return
            voters.add(vc.replica)
        if len(voters) < 2 * self.f + 1:
            return
        self._enter_view(nv.view)
        # the NEW-VIEW envelope authenticated the embedded pre-prepares;
        # accept them directly (no per-message signature to re-verify)
        for preprepare in nv.preprepares:
            await self._accept_preprepare(preprepare)

    def _enter_view(self, view: int) -> None:
        self.view = view
        self._on_progress()
        # reset in-flight slots; the new leader re-proposes them
        for seq, slot in list(self._slots.items()):
            if not slot.executed:
                self._slots[seq] = _SlotState()
        if self.group[view % self.n] == self.name:
            # take over sequencing beyond anything ever proposed
            top = max(self._slots) if self._slots else 0
            self._next_seq = max(self._next_seq, top + 1)
