"""Byzantine client strategies (Sec 6.4, Figure 7).

A Byzantine client's best disruption strategy is to follow the workload
distribution, pick conservative timestamps, and then misbehave at commit
time.  The four behaviours the paper evaluates:

* ``stall-early`` — send ST1 (making writes visible as prepared) and
  vanish: dependent transactions block until someone runs the fallback.
* ``stall-late`` — finish the Prepare phase (so the decision is fully
  determined) but never send the writeback certificates.
* ``equiv-real`` — collect all ST1R votes; *if* the replies contain both
  a CommitQuorum and an AbortQuorum, send conflicting justified ST2
  messages to different halves of the logging shard and vanish.  The
  paper measures that this is rarely possible (~0.05% of txns).
* ``equiv-forced`` — the artificial worst case: conflicting ST2s always
  "succeed" (requires ``SystemConfig.allow_unjustified_st2``).

Byzantine clients never retry their aborted transactions (paper: "faulty
transactions that abort because of contention are not retried").
"""

from __future__ import annotations

from repro.core.client import BasilClient, PrepareOutcome
from repro.core.certificates import CommitCert
from repro.core.messages import Decision, DecisionLogRequest, PrepareReply, PrepareRequest
from repro.core.transaction import TxRecord
from repro.core.votes import ShardVoteCollector
from repro.crypto.digest import Digest
from repro.errors import SimTimeoutError

BEHAVIOURS = ("stall-early", "stall-late", "equiv-real", "equiv-forced")


class ByzantineClient(BasilClient):
    """A client that misbehaves on a fraction of its transactions."""

    byzantine = True

    def __init__(
        self,
        *args,
        behaviour: str = "stall-late",
        faulty_fraction: float = 1.0,
        **kwargs,
    ) -> None:
        if behaviour not in BEHAVIOURS:
            raise ValueError(f"unknown Byzantine behaviour {behaviour!r}")
        super().__init__(*args, **kwargs)
        self.behaviour = behaviour
        self.faulty_fraction = faulty_fraction
        self._byz_rng = self.sim.rng(f"byz-{self.name}")
        self.faulty_txns = 0
        self.equiv_attempts = 0
        self.equiv_successes = 0

    # ------------------------------------------------------------------
    async def commit(
        self, tx: TxRecord, dep_records: dict[Digest, TxRecord] | None = None
    ) -> PrepareOutcome:
        if self._byz_rng.random() >= self.faulty_fraction:
            return await super().commit(tx, dep_records)
        self.faulty_txns += 1
        if self.sim.instruments is not None:
            self.sim.instruments.byz_faulty_txn(self.behaviour)
        if self.behaviour == "stall-early":
            return await self._stall_early(tx)
        if self.behaviour == "stall-late":
            return await self._stall_late(tx, dep_records or {})
        return await self._equivocate(tx)

    # ------------------------------------------------------------------
    async def _stall_early(self, tx: TxRecord) -> PrepareOutcome:
        """Send ST1 everywhere, then walk away without tallying votes."""
        request = PrepareRequest(req_id=self._next_req(), tx=tx, client=self.name)
        await self.crypto.charge_sign()
        for shard in self.sharder.shards_of_tx(tx):
            self.network.broadcast(self, self.sharder.members(shard), request)
        # Report "committed" so the driver moves on; correct clients will
        # discover and finish (or abort) this transaction themselves.
        return PrepareOutcome(Decision.COMMIT, True, _fake_cert(tx))

    async def _stall_late(
        self, tx: TxRecord, dep_records: dict[Digest, TxRecord]
    ) -> PrepareOutcome:
        """Run the full Prepare phase but never send the writeback."""
        outcome = await self.prepare(tx, dep_records)
        return outcome  # note: no self.writeback(...)

    # ------------------------------------------------------------------
    async def _equivocate(self, tx: TxRecord) -> PrepareOutcome:
        """Try to log conflicting decisions at S_log, then stall."""
        collectors = await self._collect_all_votes(tx)
        cfg = self.config
        commit_tallies = {
            shard: c.commit_tally(cfg.commit_quorum) for shard, c in collectors.items()
        }
        abort_tally = next(
            (
                tally
                for c in collectors.values()
                if (tally := c.abort_tally(cfg.abort_quorum)) is not None
            ),
            None,
        )
        can_commit = all(t is not None for t in commit_tallies.values())
        forced = self.behaviour == "equiv-forced" and cfg.allow_unjustified_st2
        self.equiv_attempts += 1
        if (can_commit and abort_tally is not None) or forced:
            self.equiv_successes += 1
            if self.sim.instruments is not None:
                self.sim.instruments.byz_equivocation()
            members = self.sharder.members(self.sharder.s_log(tx))
            half = len(members) // 2
            commit_votes = tuple(t for t in commit_tallies.values() if t is not None)
            abort_votes = (abort_tally,) if abort_tally is not None else ()
            await self.crypto.charge_sign()
            await self.crypto.charge_sign()
            self.network.broadcast(
                self,
                members[:half],
                DecisionLogRequest(
                    req_id=self._next_req(), tx=tx, decision=Decision.COMMIT,
                    shard_votes=commit_votes, view=0, client=self.name,
                ),
            )
            self.network.broadcast(
                self,
                members[half:],
                DecisionLogRequest(
                    req_id=self._next_req(), tx=tx, decision=Decision.ABORT,
                    shard_votes=abort_votes, view=0, client=self.name,
                ),
            )
            # stall: dependent correct clients must run the divergent-case
            # fallback to reconcile the logging shard.
            return PrepareOutcome(Decision.COMMIT, False, _fake_cert(tx))
        if can_commit:
            # Equivocation impossible: behave like stall-late (keep the
            # transaction pending so it still contends).
            return PrepareOutcome(Decision.COMMIT, False, _fake_cert(tx))
        return PrepareOutcome(Decision.ABORT, False, _fake_cert(tx))

    async def _collect_all_votes(self, tx: TxRecord) -> dict[int, ShardVoteCollector]:
        """Gather ST1R votes from every replica (or until patience ends)."""
        involved = self.sharder.shards_of_tx(tx)
        req_id = self._next_req()
        queue = self._register(req_id)
        request = PrepareRequest(req_id=req_id, tx=tx, client=self.name)
        collectors = {
            shard: ShardVoteCollector(txid=tx.txid, shard=shard, config=self.config)
            for shard in involved
        }
        try:
            await self.crypto.charge_sign()
            for shard in involved:
                self.network.broadcast(self, self.sharder.members(shard), request)
            expected = len(involved) * self.config.n
            got = 0
            while got < expected:
                try:
                    sender, message = await self.sim.wait_for(
                        queue.get(), self.config.dependency_timeout
                    )
                except SimTimeoutError:
                    break
                if not isinstance(message, PrepareReply):
                    continue
                att = await self._validated_vote(sender, message, request, tx)
                if att is None:
                    continue
                shard = self.sharder.shard_of_replica(sender)
                collectors[shard].add(att)
                got += 1
        finally:
            self._unregister(req_id)
        return collectors


def _fake_cert(tx: TxRecord) -> CommitCert:
    """Placeholder cert for the driver; never shown to honest validators."""
    return CommitCert(txid=tx.txid, kind="byz-unfinished")

