"""Chained HotStuff SMR (the TxHotStuff substrate).

Pipelined three-phase commit over a chain of blocks: the leader of round
r proposes a block justified by the quorum certificate (QC) for round
r-1; replicas vote to the leader of round r+1; a block commits once it
heads a 3-chain of consecutive rounds.  Leaders rotate round-robin.
Counting hops — client request, proposal, votes, and the two further
chained rounds, plus the reply — an operation sees roughly the nine
message delays the paper attributes to HotStuff.

QCs are modeled as threshold-aggregated: forming one costs the leader
n-f share verifications; checking one costs a single verification.

Scope note: like the PBFT baseline, the fault-free path only (no
pacemaker timeouts/view sync; the paper's baselines are evaluated
without leader faults).
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
class QC:
    """A (modeled threshold-aggregated) quorum certificate for a block."""

    round: int
    block_digest: Digest
    signers: tuple[str, ...]

    def canonical_fields(self) -> tuple:
        return (self.round, self.block_digest, self.signers)


@dataclass(frozen=True)
class Block:
    round: int
    ops: tuple[SMRRequest, ...]
    justify: QC | None  # None only for the implicit genesis block

    def canonical_fields(self) -> tuple:
        return (self.round, tuple((o.op_id, o.client) for o in self.ops), self.justify)


@dataclass(frozen=True)
class Vote:
    round: int
    block_digest: Digest
    replica: str

    def canonical_fields(self) -> tuple:
        return (self.round, self.block_digest, self.replica)


_GENESIS_DIGEST = b"\x00" * 32


class HotStuffReplica(Node):
    """One member of a chained-HotStuff group."""

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
        # chain state
        self.blocks: dict[int, Block] = {}
        self.high_qc = QC(round=0, block_digest=_GENESIS_DIGEST, signers=())
        self.voted_round = 0
        self.committed_round = 0
        #: Ops seen from clients but not yet observed inside a block.
        self._mempool: dict[int, SMRRequest] = {}
        self._proposed_ids: set[tuple[str, int]] = set()
        #: Votes collected while acting as next-round leader.
        self._votes: dict[int, dict[str, Vote]] = {}
        self._proposed_rounds: set[int] = set()
        self._commit_target = 0
        self._executing = False
        self._last_propose = -1.0
        self._propose_timer = None
        self.blocks_committed = 0

    # ------------------------------------------------------------------
    def leader_of(self, round_num: int) -> str:
        return self.group[round_num % self.n]

    def _mempool_ready(self) -> list[SMRRequest]:
        return [
            req
            for req in self._mempool.values()
            if (req.client, req.op_id) not in self._proposed_ids
        ]

    def _flush_needed(self) -> bool:
        """Non-empty blocks above the committed frontier need flushing."""
        return any(
            blk.ops and r > self.committed_round for r, blk in self.blocks.items()
        )

    # ------------------------------------------------------------------
    async def handle_message(self, sender: str, message: Any) -> None:
        if isinstance(message, SMRRequest):
            if (message.client, message.op_id) not in self._mempool:
                await self.crypto.charge_verify()
            self._mempool[(message.client, message.op_id)] = message
            await self._maybe_propose()
        elif isinstance(message, SignedMessage):
            payload = message.payload
            if isinstance(payload, Block):
                await self.on_proposal(message)
            elif isinstance(payload, Vote):
                await self.on_vote(message)
        else:
            await self.app.handle_direct(self, sender, message)

    # -- proposing ----------------------------------------------------------
    async def _maybe_propose(self) -> None:
        """Propose if we lead the round after high_qc and have content.

        The pacemaker enforces a minimum round spacing, modeling batch
        formation and round synchronization — the reason HotStuff's
        decision latency exceeds PBFT's in the paper's measurements.
        """
        next_round = self.high_qc.round + 1
        if self.leader_of(next_round) != self.name:
            return
        if next_round in self._proposed_rounds:
            return
        batch = tuple(self._mempool_ready()[: self.config.smr_batch_size])
        if not batch and not self._flush_needed():
            return
        earliest = self._last_propose + self.config.hotstuff_round_interval
        if self.sim.now < earliest:
            if self._propose_timer is None:
                self._propose_timer = self.sim.call_later(
                    earliest - self.sim.now, self._propose_later
                )
            return
        self._last_propose = self.sim.now
        self._proposed_rounds.add(next_round)
        for req in batch:
            self._proposed_ids.add((req.client, req.op_id))
        block = Block(round=next_round, ops=batch, justify=self.high_qc)
        signed = await self.crypto.sign(block)
        self.network.broadcast(self, self.group, signed)

    def _propose_later(self) -> None:
        self._propose_timer = None
        self.spawn(self._maybe_propose(), name="hs-propose")

    # -- voting ---------------------------------------------------------------
    async def on_proposal(self, signed: SignedMessage) -> None:
        block: Block = signed.payload
        if signed.signer != self.leader_of(block.round):
            return
        if not await self.crypto.verify(signed):
            return
        justify = block.justify
        if justify is None or block.round != justify.round + 1:
            return
        if justify.round > 0:
            # model threshold-QC check as one signature verification
            await self.crypto.charge_verify()
            if len(set(justify.signers)) < self.n - self.f:
                return
        if block.round <= self.voted_round:
            return
        self.voted_round = block.round
        self.blocks[block.round] = block
        for req in block.ops:
            self._proposed_ids.add((req.client, req.op_id))
        self.high_qc = max(self.high_qc, justify, key=lambda q: q.round)
        await self._commit_three_chain(block)
        vote = Vote(round=block.round, block_digest=digest_of(block.canonical_fields()), replica=self.name)
        signed_vote = await self.crypto.sign(vote)
        self.network.send(self, self.leader_of(block.round + 1), signed_vote)
        # The proposer itself won't see its own broadcast synchronously
        # advance the chain unless it also participates via the network —
        # it does: the broadcast included self.

    async def _commit_three_chain(self, block: Block) -> None:
        """Commit rule: accepting B_r finalizes the block at round r-3.

        Execution is non-reentrant (see the PBFT twin): overlapping
        handler tasks must not interleave block application.
        """
        self._commit_target = max(self._commit_target, block.round - 3)
        if self._executing:
            return
        self._executing = True
        try:
            while self.committed_round < self._commit_target:
                r = self.committed_round + 1
                self.committed_round = r
                committed = self.blocks.get(r)
                if committed is None:
                    continue
                self.blocks_committed += 1
                for request in committed.ops:
                    await self.cpu.spend(self.config.smr_exec_cost)
                    result = await self.app.apply(request.op, index=r)
                    reply = SMRReply(op_id=request.op_id, replica=self.name, result=result)
                    self._send_attested(request.client, reply)
        finally:
            self._executing = False

    def _send_attested(self, dst: str, reply: SMRReply) -> None:
        """Queue the reply for batch signing without blocking execution
        (the executor must not stall on the reply batcher's timeout)."""
        fut = self.reply_batcher.attest(reply)
        fut.add_done_callback(
            lambda f: self.network.send(self, dst, f.result())
        )

    # -- leader: vote aggregation ------------------------------------------------
    async def on_vote(self, signed: SignedMessage) -> None:
        vote: Vote = signed.payload
        if vote.replica != signed.signer or vote.replica not in self.group:
            return
        if self.leader_of(vote.round + 1) != self.name:
            return
        # share verification (threshold scheme): one verify per vote
        if not await self.crypto.verify(signed):
            return
        bucket = self._votes.setdefault(vote.round, {})
        bucket[vote.replica] = vote
        if len(bucket) >= self.n - self.f and vote.round >= self.high_qc.round:
            qc = QC(
                round=vote.round,
                block_digest=vote.block_digest,
                signers=tuple(sorted(bucket)),
            )
            if qc.round > self.high_qc.round:
                self.high_qc = qc
                await self._maybe_propose()
