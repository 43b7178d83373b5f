"""Tests for Byzantine client behaviours: safety and recoverability."""

import pytest

from repro.byzantine.clients import ByzantineClient
from repro.config import SystemConfig
from repro.core.api import TransactionSession
from repro.core.mvtso import TxPhase
from repro.core.system import BasilSystem


def make_system(**overrides):
    defaults = dict(f=1, num_shards=1, batch_size=1)
    defaults.update(overrides)
    system = BasilSystem(SystemConfig(**defaults))
    system.load({f"k{i}": f"v{i}".encode() for i in range(10)})
    return system


def byz(system, behaviour):
    return system.create_client(client_class=ByzantineClient, behaviour=behaviour)


def run(system, coro):
    return system.sim.run_until_complete(coro)


def test_rejects_unknown_behaviour():
    system = make_system()
    with pytest.raises(ValueError):
        byz(system, "drop-tables")


def test_stall_early_recovered_by_reader():
    system = make_system()
    attacker = byz(system, "stall-early")
    victim = system.create_client()

    async def main():
        byz_session = TransactionSession(attacker)
        byz_session.write("k1", b"byz-write")
        await byz_session.commit()  # sends ST1 then stalls
        await system.sim.sleep(0.01)
        session = TransactionSession(victim)
        value = await session.read("k1")  # picks up the prepared version
        session.write("k2", b"victim")
        return value, await session.commit()

    value, result = run(system, main())
    assert value == b"byz-write"
    assert result.committed
    assert victim.recoveries_started >= 1
    system.run()
    # the stalled transaction was finished; all replicas converged
    phases = {
        s.phase
        for r in system.shard_replicas(0)
        for s in r.tx_states.values()
        if s.tx is not None and s.tx.writes_key("k1")
    }
    assert phases == {TxPhase.COMMITTED}


def test_stall_late_recovered_in_single_roundtrip():
    system = make_system()
    attacker = byz(system, "stall-late")
    victim = system.create_client()

    async def main():
        byz_session = TransactionSession(attacker)
        byz_session.write("k1", b"late")
        await byz_session.commit()  # prepares fully, skips writeback
        await system.sim.sleep(0.01)
        session = TransactionSession(victim)
        value = await session.read("k1")
        session.write("k2", b"v")
        return value, await session.commit()

    value, result = run(system, main())
    assert value == b"late"
    assert result.committed
    # common-case recovery: no leader election needed
    assert victim.fallbacks_invoked == 0


def test_equiv_real_usually_cannot_equivocate():
    """Without contention, the vote set never contains an AbortQuorum."""
    system = make_system()
    attacker = byz(system, "equiv-real")

    async def main():
        session = TransactionSession(attacker)
        session.write("k1", b"x")
        await session.commit()

    run(system, main())
    assert attacker.equiv_attempts == 1
    assert attacker.equiv_successes == 0


def test_equiv_forced_reconciled_by_fallback():
    system = make_system(allow_unjustified_st2=True)
    attacker = byz(system, "equiv-forced")
    victim = system.create_client()

    async def main():
        byz_session = TransactionSession(attacker)
        byz_session.write("k1", b"equiv")
        await byz_session.commit()  # logs conflicting ST2 decisions
        await system.sim.sleep(0.01)
        # victim depends on the equivocated transaction
        session = TransactionSession(victim)
        value = await session.read("k1")
        session.write("k2", b"v")
        return value, await session.commit()

    value, result = run(system, main())
    assert attacker.equiv_successes == 1
    assert result.committed
    assert victim.fallbacks_invoked >= 1  # divergent case was exercised
    system.run()
    # Whatever was decided, every correct replica agrees (Byz-serializability).
    decisions = {
        s.phase
        for r in system.shard_replicas(0)
        for s in r.tx_states.values()
        if s.tx is not None and s.tx.writes_key("k1")
    }
    assert len(decisions) == 1
    assert decisions <= {TxPhase.COMMITTED, TxPhase.ABORTED}


def test_unjustified_st2_rejected_without_flag():
    """With validation on (the default), forged ST2 decisions are ignored."""
    from repro.core.messages import Decision

    system = make_system()  # allow_unjustified_st2 = False
    attacker = byz(system, "equiv-forced")

    async def main():
        session = TransactionSession(attacker)
        session.write("k1", b"x")
        await session.commit()

    run(system, main())
    system.run()
    # The attacker did send the conflicting ST2s: the ABORT half carries
    # no abort quorum, so it is unjustified.
    assert attacker.equiv_successes >= 1
    logged = [
        state.logged_decision
        for replica in system.shard_replicas(0)
        for state in replica.tx_states.values()
        if state.tx is not None and state.tx.writes_key("k1")
    ]
    # Half the shard logged the justified COMMIT; no replica logged the
    # forged ABORT.
    assert Decision.COMMIT in logged
    assert Decision.ABORT not in logged


def test_faulty_fraction_half_behaves_half_the_time():
    system = make_system()
    attacker = system.create_client(
        client_class=ByzantineClient, behaviour="stall-late", faulty_fraction=0.5
    )

    async def one():
        session = TransactionSession(attacker)
        session.write("k3", b"x")
        result = await session.commit()
        await system.sim.sleep(0.005)
        return result

    async def main():
        for _ in range(20):
            await one()

    run(system, main())
    assert 0 < attacker.faulty_txns < 20


def test_correct_clients_progress_with_30pct_byzantine():
    """Byzantine independence, end to end: correct clients keep committing."""
    from repro.bench.runner import ExperimentRunner
    from repro.workloads.ycsb import YCSBWorkload

    system = make_system(batch_size=4)
    factories = []
    for i in range(10):
        if i < 3:
            factories.append(
                lambda: system.create_client(
                    client_class=ByzantineClient, behaviour="stall-early",
                    faulty_fraction=0.5,
                )
            )
        else:
            factories.append(lambda: system.create_client())
    # Keyspace scaled as in the paper's RW-Z (zipf 0.9 over a large
    # population): no single key is hot enough to be RTS-starved.
    wl = YCSBWorkload(num_keys=5000, reads=1, writes=1, distribution="zipfian")
    runner = ExperimentRunner(
        system, wl, num_clients=10, duration=0.3, warmup=0.1,
        client_factories=factories,
    )
    result = runner.run()
    assert result.extra["correct_throughput"] > 0
    assert runner.monitor.counter("commits", tag="correct").value > 50
