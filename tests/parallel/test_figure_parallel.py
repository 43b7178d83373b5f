"""Figure entry points through the run pipeline.

Two contracts:

* **Golden digests** — every figure's points, each run traced in a
  forked child, are byte-identical (run digest) to the original
  sequential figure path, untraced and reconstructed
  hand-built here exactly as ``_run`` used to build it: fig4 across all
  four systems, fig5c, and fig7 with Byzantine clients.
* **Fault overlays** — fig7's crash schedule names fixed victims per
  seed, and a schedule's faults (crashes, Byzantine clients) reach the
  run.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.bench.experiments as exp
from repro.bench.experiments import Scale, fig7_crash_schedule
from repro.bench.runner import ExperimentRunner
from repro.byzantine.clients import ByzantineClient
from repro.config import CryptoConfig, SystemConfig
from repro.faults.spec import ByzantineClientFault, FaultSchedule
from repro.run import ModelSpec, SequentialRun

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


def traced(specs: dict[str, ModelSpec], tmp_path) -> dict:
    """Run a figure's points as ``--trace DIR`` does, one forked child
    each: artifacts go into tmp, each row's extra carries its digest."""
    trace_dir = str(tmp_path / "traces")
    specs = {name: dataclasses.replace(spec, trace=True, trace_dir=trace_dir)
             for name, spec in specs.items()}
    return dict(exp.run_figures({"figure": specs}))["figure"]


def _hand_built_digest(system, workload, clients: int, name: str, **kwargs) -> str:
    """The original sequential figure path, ``_run``, inlined."""
    ExperimentRunner(
        system, workload, num_clients=clients,
        duration=TINY.duration, warmup=TINY.warmup, name=name, **kwargs,
    ).run()
    return system.network.digest()


# ---------------------------------------------------------------------------
# Golden digests: the pipeline == the original sequential path
# ---------------------------------------------------------------------------
def test_fig4_workers1_digests_match_sequential(tmp_path):
    from repro.baselines.tapir.system import TapirSystem
    from repro.baselines.txsmr.system import TxSMRSystem
    from repro.core.system import BasilSystem

    app = "smallbank"
    results = traced(exp.fig4_systems(app, scale=TINY), tmp_path)
    batches = exp.APP_BATCHES[app]
    workload = ModelSpec(**exp.app_workload(app, TINY))

    expected = {
        "basil": _hand_built_digest(
            BasilSystem(SystemConfig(f=1, batch_size=batches["basil"])),
            workload.make_workload(), TINY.clients, f"basil/{app}",
        ),
        "tapir": _hand_built_digest(
            TapirSystem(SystemConfig(f=1)), workload.make_workload(), TINY.clients,
            f"tapir/{app}",
        ),
        "txbftsmart": _hand_built_digest(
            TxSMRSystem(
                SystemConfig(f=1, smr_batch_size=batches["pbft"],
                             batch_size=batches["basil"]),
                protocol="pbft",
            ),
            workload.make_workload(), TINY.baseline_clients, f"txbftsmart/{app}",
        ),
        "txhotstuff": _hand_built_digest(
            TxSMRSystem(
                SystemConfig(f=1, smr_batch_size=batches["hotstuff"],
                             batch_size=batches["basil"]),
                protocol="hotstuff",
            ),
            workload.make_workload(), TINY.baseline_clients, f"txhotstuff/{app}",
        ),
    }
    for system_name, result in results.items():
        assert result.extra["digest"] == expected[system_name], system_name


def test_fig5c_workers1_digests_match_sequential(tmp_path):
    from repro.core.system import BasilSystem
    from repro.workloads.ycsb import YCSBWorkload

    results = traced(exp.fig5c_shard_scaling(scale=TINY), tmp_path)
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
            assert results[name].extra["digest"] == digest, name


def test_fig7_workers1_digest_matches_sequential(tmp_path):
    from repro.core.system import BasilSystem
    from repro.workloads.ycsb import YCSBWorkload

    behaviour, fraction = "equiv-real", 0.5  # 2 of TINY's 4 clients
    results = traced(exp.fig7_failures(
        "uniform", behaviours=(behaviour,), byz_client_fractions=(fraction,),
        scale=TINY,
    ), tmp_path)

    # the original fig7 body: per-index factories, byz clients first
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
    assert results[f"{behaviour}@50%"].extra["digest"] == digest


# ---------------------------------------------------------------------------
# Fault overlays
# ---------------------------------------------------------------------------
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


@pytest.mark.parametrize("shards, seed, victims", [
    (1, None, ("s0/r4", "s0/r2")),
    (1, 7, ("s0/r1", "s0/r5")),
    (2, None, ("s1/r2", "s0/r4")),
    (2, 7, ("s0/r3", "s0/r2")),
])
def test_fig7_crash_victims_are_pinned(shards, seed, victims):
    """The victims the schedule drew from the partition plan's roster,
    literally: drawing from the sorted replica names must not move them."""
    config = SystemConfig(f=1, batch_size=4, num_shards=shards)
    schedule = fig7_crash_schedule(config, TINY, num_crashes=2, seed=seed)
    assert tuple(c.node for c in schedule.crashes) == victims
    assert {(c.at, c.restart_at) for c in schedule.crashes} == {
        (TINY.warmup + 0.3 * TINY.duration, TINY.warmup + 0.7 * TINY.duration)
    }
    assert fig7_crash_schedule(config, TINY, num_crashes=2, seed=seed) == schedule


def test_fig7_crash_schedule_crashes_and_restarts():
    config = SystemConfig(f=1, batch_size=4, num_shards=2)
    schedule = fig7_crash_schedule(config, TINY, num_crashes=2)
    result = SequentialRun(_spec(config, schedule)).run()
    assert result.fault_stats["crashes"] == 2
    assert result.fault_stats["restarts"] == 2


def test_schedule_byz_clients_reach_the_runner():
    """A schedule's byz-client faults become clients for every consumer
    of a spec, not only the fault campaign (which used to build the mix
    itself: here the runner came up all-correct)."""
    config = SystemConfig(f=1, batch_size=4, num_shards=2)
    schedule = FaultSchedule(
        name="byz", faults=(ByzantineClientFault(behaviour="stall-late", count=2),)
    )
    seq = SequentialRun(_spec(config, schedule))
    result = seq.run()
    assert seq.runner.byz_clients == 2
    assert seq.runner.correct_clients == TINY.clients - 2
    assert "byz_commits" in result.bench["extra"]
    assert result.digest != SequentialRun(_spec(config, None)).run().digest
