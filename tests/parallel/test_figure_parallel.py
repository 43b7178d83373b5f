"""Figure runs on the parallel front-end (ISSUE 8).

Three contracts:

* **Golden digests** — every figure entry point at ``workers=1`` is
  byte-identical (trace digest) to the pre-PR sequential figure path,
  reconstructed hand-built here exactly as ``_run`` used to build it:
  fig4 across all four systems, fig5c, and fig7 with Byzantine clients.
* **Worker-count invariance** — a fig4 Basil point produces the same
  bench row and digest at ``workers=2`` and ``workers=4`` (partition
  schedules are functions of the plan, never of worker packing).
* **Fault-stat merging** — injector counters are per-partition dicts;
  the runtime must sum them.  A cross-partition ``partition-minority``
  schedule spreads drops over several sending partitions, so a merge
  that only surfaced partition 0's dict would undercount (the PR 8
  regression), and deterministic crash/restart counters must agree
  between the sequential and partitioned runs of the same seed.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.bench.experiments as exp
from repro.bench.experiments import Scale, WorkloadDesc, fig7_crash_schedule
from repro.bench.runner import ExperimentRunner
from repro.byzantine.clients import ByzantineClient
from repro.config import CryptoConfig, SystemConfig
from repro.faults.spec import ByzantineClientFault, FaultSchedule, PartitionFault
from repro.parallel import ParallelRunner
from repro.run import ModelSpec, SequentialRun
from repro.trace.export import trace_digest
from repro.trace.tracer import Tracer

pytestmark = pytest.mark.parallel_smoke

#: A tiny Scale: every population field set so figure runs stay fast.
TINY = Scale(
    duration=0.02,
    warmup=0.005,
    clients=4,
    baseline_clients=6,
    ycsb_keys=300,
    smallbank_accounts=400,
    smallbank_hot=40,
    retwis_users=300,
    tpcc_warehouses=2,
    tpcc_customers=4,
    tpcc_items=40,
)


@pytest.fixture
def trace_dirs(tmp_path):
    """Route figure artifacts into tmp and expose digests in extra."""
    exp.set_trace_dir(str(tmp_path / "traces"))
    yield tmp_path
    exp.set_trace_dir(None)


def _hand_built_digest(system, workload, clients: int, name: str, **kwargs) -> str:
    """The pre-PR sequential figure path: ``_run`` with a tracer, inlined."""
    tracer = Tracer()
    ExperimentRunner(
        system, workload, num_clients=clients,
        duration=TINY.duration, warmup=TINY.warmup, name=name,
        tracer=tracer, **kwargs,
    ).run()
    return trace_digest(tracer)


# ---------------------------------------------------------------------------
# Golden digests: workers=1 == pre-PR sequential path
# ---------------------------------------------------------------------------
def test_fig4_workers1_digests_match_sequential(trace_dirs):
    from repro.baselines.tapir.system import TapirSystem
    from repro.baselines.txsmr.system import TxSMRSystem
    from repro.core.system import BasilSystem

    app = "smallbank"
    results = exp.fig4_systems(app, scale=TINY, workers=1)
    batches = exp.APP_BATCHES[app]
    wdesc = exp.app_workload_desc(app, TINY)

    expected = {
        "basil": _hand_built_digest(
            BasilSystem(SystemConfig(f=1, batch_size=batches["basil"])),
            wdesc.build(), TINY.clients, f"basil/{app}",
        ),
        "tapir": _hand_built_digest(
            TapirSystem(SystemConfig(f=1)), wdesc.build(), TINY.clients,
            f"tapir/{app}",
        ),
        "txbftsmart": _hand_built_digest(
            TxSMRSystem(
                SystemConfig(f=1, smr_batch_size=batches["pbft"],
                             batch_size=batches["basil"]),
                protocol="pbft",
            ),
            wdesc.build(), TINY.baseline_clients, f"txbftsmart/{app}",
        ),
        "txhotstuff": _hand_built_digest(
            TxSMRSystem(
                SystemConfig(f=1, smr_batch_size=batches["hotstuff"],
                             batch_size=batches["basil"]),
                protocol="hotstuff",
            ),
            wdesc.build(), TINY.baseline_clients, f"txhotstuff/{app}",
        ),
    }
    for system_name, result in results.items():
        assert result.extra["trace_digest"] == expected[system_name], system_name


def test_fig5c_workers1_digests_match_sequential(trace_dirs):
    from repro.core.system import BasilSystem
    from repro.workloads.ycsb import YCSBWorkload

    results = exp.fig5c_shard_scaling(scale=TINY, workers=1)
    for crypto_on in (True, False):
        for shards in (1, 3):
            config = SystemConfig(
                f=1, num_shards=shards, batch_size=4,
                crypto=CryptoConfig(enabled=crypto_on),
            )
            name = f"{'sig' if crypto_on else 'nosig'}-{shards}shard"
            clients = TINY.clients if shards == 1 else TINY.clients * 2
            digest = _hand_built_digest(
                BasilSystem(config),
                YCSBWorkload(num_keys=TINY.ycsb_keys, reads=3, writes=3),
                clients, name,
            )
            assert results[name].extra["trace_digest"] == digest, name


def test_fig7_workers1_digest_matches_sequential(trace_dirs):
    from repro.core.system import BasilSystem
    from repro.workloads.ycsb import YCSBWorkload

    behaviour, fraction = "equiv-real", 0.5  # 2 of TINY's 4 clients
    results = exp.fig7_failures(
        "uniform", behaviours=(behaviour,), byz_client_fractions=(fraction,),
        scale=TINY, workers=1,
    )

    # the pre-PR fig7 body: per-index factories, byz clients first
    system = BasilSystem(SystemConfig(f=1, batch_size=4))
    num_byz = round(TINY.clients * fraction)
    factories = []
    for i in range(TINY.clients):
        if i < num_byz:
            factories.append(
                lambda s=system, b=behaviour: s.create_client(
                    client_class=ByzantineClient, behaviour=b, faulty_fraction=1.0
                )
            )
        else:
            factories.append(lambda s=system: s.create_client())
    digest = _hand_built_digest(
        system,
        YCSBWorkload(num_keys=TINY.ycsb_keys, reads=2, writes=2,
                     distribution="uniform"),
        TINY.clients, f"{behaviour}@{int(fraction * 100)}%",
        client_factories=factories,
    )
    assert results[behaviour][fraction].extra["trace_digest"] == digest


# ---------------------------------------------------------------------------
# Worker-count invariance: w2 == w4 for a fig4 Basil point
# ---------------------------------------------------------------------------
def _strip_packing(result):
    """Bench-row fields minus the worker-packing annotations."""
    row = dataclasses.asdict(result)
    row["extra"] = {
        k: v for k, v in row["extra"].items() if k not in ("workers", "trace_path")
    }
    return row


def test_fig4_basil_point_invariant_w2_w4(trace_dirs):
    config = SystemConfig(f=1, batch_size=4, num_shards=2)
    wdesc = WorkloadDesc("ycsb-u", TINY.ycsb_keys)
    rows = {
        w: exp._run_point(config, wdesc, TINY.clients, TINY, "fig4-inv", workers=w)
        for w in (2, 4)
    }
    assert rows[2].extra["trace_digest"] == rows[4].extra["trace_digest"]
    assert _strip_packing(rows[2]) == _strip_packing(rows[4])
    assert rows[2].commits > 0


# ---------------------------------------------------------------------------
# Fault-stat merging across partitions
# ---------------------------------------------------------------------------
def _minority_schedule(scale: Scale) -> FaultSchedule:
    """Isolate shard 0 mid-run — drops land on *multiple* sending
    partitions (client requests on the client partition, in-flight
    replies on shard 0's own partition), so the test fails if the merge
    surfaces any single partition's counters instead of the sum."""
    start = scale.warmup + 0.2 * scale.duration
    end = scale.warmup + 0.8 * scale.duration
    return FaultSchedule(
        name="partition-minority",
        faults=(
            PartitionFault(groups=(("s0/*",), ("*",)), start=start, end=end),
        ),
    )


def _spec(config, schedule) -> ModelSpec:
    return ModelSpec(
        kind="basil",
        config=config,
        workload="ycsb-u",
        workload_keys=TINY.ycsb_keys,
        num_clients=TINY.clients,
        duration=TINY.duration,
        warmup=TINY.warmup,
        fault_schedule=schedule,
    )


def test_partition_minority_stats_summed_across_partitions():
    config = SystemConfig(f=1, batch_size=4, num_shards=2)
    schedule = _minority_schedule(TINY)
    r2 = ParallelRunner(_spec(config, schedule), workers=2).run()
    r4 = ParallelRunner(_spec(config, schedule), workers=4).run()

    assert r2.fault_stats is not None
    assert r2.fault_stats["partition_drops"] > 0
    # several partitions dropped messages; a merge that surfaced only one
    # partition's dict would miss the client-partition drops
    per_part = [
        res.get("messages_dropped", 0) for res in r2.per_partition.values()
    ]
    assert sum(1 for d in per_part if d > 0) >= 2
    # packing-invariant: same partitions, same schedules, same counters
    assert r2.fault_stats == r4.fault_stats
    assert r2.digest == r4.digest
    # the merged bench row carries the aggregated counters
    assert r2.bench["extra"]["fault_stats"] == r2.fault_stats
    assert r2.bench["dropped"] >= r2.fault_stats["partition_drops"]


def test_fig7_crash_stats_equal_sequential_vs_partitioned():
    """Acceptance: a fault-injected fig7 run at workers=2 reports
    aggregated injector stats equal to the sequential run's (same seed).

    Crash/restart faults fire at fixed times on plan-derived victims, so
    unlike per-message counters they are immune to the per-partition RNG
    namespacing and must match exactly between kernels.
    """
    config = SystemConfig(f=1, batch_size=4, num_shards=2)
    schedule = fig7_crash_schedule(config, TINY, num_crashes=2)
    assert len(schedule.crashes) == 2
    # victims come from the plan roster, not from any live system
    assert all(not c.node.startswith("client/") for c in schedule.crashes)

    seq = ParallelRunner(_spec(config, schedule), workers=1).run()
    par = ParallelRunner(_spec(config, schedule), workers=2).run()
    assert seq.fault_stats is not None and par.fault_stats is not None
    assert seq.fault_stats["crashes"] == 2
    assert seq.fault_stats["restarts"] == 2
    assert seq.fault_stats == par.fault_stats

    # same seed, same helper -> same logical victims at any worker count
    again = fig7_crash_schedule(config, TINY, num_crashes=2)
    assert again == schedule


def test_fig7_schedule_digest_invariant_w2_w4():
    config = SystemConfig(f=1, batch_size=4, num_shards=2)
    schedule = fig7_crash_schedule(config, TINY, num_crashes=1)
    r2 = ParallelRunner(_spec(config, schedule), workers=2).run()
    r4 = ParallelRunner(_spec(config, schedule), workers=4).run()
    assert r2.digest == r4.digest
    assert r2.fault_stats == r4.fault_stats


def test_schedule_byz_clients_reach_the_runner_at_any_worker_count():
    """A schedule's byz-client faults become clients for every consumer
    of a spec, not only the fault campaign (which used to build the mix
    itself: here the runner came up all-correct)."""
    config = SystemConfig(f=1, batch_size=4, num_shards=2)
    schedule = FaultSchedule(
        name="byz", faults=(ByzantineClientFault(behaviour="stall-late", count=2),)
    )
    seq = SequentialRun(_spec(config, schedule))
    seq.start()
    assert seq.runner.byz_clients == 2
    assert seq.runner.correct_clients == TINY.clients - 2

    r2 = ParallelRunner(_spec(config, schedule), workers=2).run()
    r4 = ParallelRunner(_spec(config, schedule), workers=4).run()
    assert r2.digest == r4.digest
    assert "byz_commits" in r2.bench["extra"]  # the client slice ran the mix
    assert r2.digest != ParallelRunner(_spec(config, None), workers=2).run().digest


def test_empty_schedule_is_byte_identical_at_workers2():
    """The injector's empty-schedule contract must survive partitioning."""
    config = SystemConfig(f=1, batch_size=4, num_shards=2)
    base = ParallelRunner(_spec(config, None), workers=2).run()
    empty = ParallelRunner(_spec(config, FaultSchedule()), workers=2).run()
    assert empty.digest == base.digest
    assert empty.fault_stats == {name: 0 for name in empty.fault_stats}
