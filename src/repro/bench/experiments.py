"""One entry point per figure of the paper's evaluation (Sec 6), plus
two ablations.

Every function returns the figure's points as a dict of
:class:`~repro.run.ModelSpec` keyed the way the figure's series are
labeled: closed-loop clients on the paper's workload for that figure.
:func:`run_figures` runs them, one forked child per point, and returns
the :class:`~repro.bench.runner.BenchResult` rows under the same keys.
Populations and run lengths are scaled down from the paper's testbed
(see EXPERIMENTS.md); the ``scale`` argument shrinks them further for
smoke testing.

Tuning note: as in the paper, each system runs its best-known
configuration — reply-batch size per workload (Basil), consensus batch
size per workload (TxBFT-SMaRt/TxHotStuff), and enough closed-loop
clients to reach its knee.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.bench.runner import BenchResult
from repro.config import CryptoConfig, SystemConfig
from repro.run import ModelSpec, PartitionResult, run_specs


@dataclass(frozen=True)
class Scale:
    """Run-size knobs; ``default`` matches EXPERIMENTS.md numbers.

    The population fields cover every figure workload so one Scale fully
    determines a run: ``default`` is the scaled-down population the
    sequential kernel handles comfortably, ``paper()`` is the paper's
    testbed population (Sec 6.1: 10 M YCSB keys, 1 M Smallbank accounts);
    genesis is implicit, so a population costs nothing until touched.
    """

    duration: float = 0.3
    warmup: float = 0.1
    clients: int = 40
    baseline_clients: int = 80  # Tx* are latency-bound: they need more
    ycsb_keys: int = 10_000
    smallbank_accounts: int = 20_000
    smallbank_hot: int = 1_000
    retwis_users: int = 20_000
    tpcc_warehouses: int = 20
    tpcc_customers: int = 20
    tpcc_items: int = 200

    @classmethod
    def quick(cls) -> "Scale":
        return cls(duration=0.1, warmup=0.05, clients=12, baseline_clients=24,
                   ycsb_keys=2_000)

    @classmethod
    def paper(cls) -> "Scale":
        """The paper's populations (Sec 6.1), EXPERIMENTS.md "paper" rows.

        Only the populations grow — run length and client counts stay at
        the defaults.  YCSB-T and Smallbank set up in O(1) at any
        population (computed genesis); a Zipfian generator over 10 M keys
        takes ~3 s to build its CDF, and Retwis builds a dict of its users.
        """
        return cls(
            ycsb_keys=10_000_000,
            smallbank_accounts=1_000_000,
            smallbank_hot=1_000,
            retwis_users=1_000_000,
            tpcc_warehouses=20,
        )


DEFAULT_SCALE = Scale()


def point(scale: Scale, label: str, config: SystemConfig, clients: int = 0,
          **fields: Any) -> ModelSpec:
    """One figure point at ``scale``: ``clients`` closed-loop clients
    (``scale.clients`` when 0) on YCSB-U over ``scale.ycsb_keys`` unless
    ``fields`` name another workload.  Untraced: ``--trace`` turns
    tracing on for a whole sweep."""
    fields.setdefault("workload", "ycsb-u")
    fields.setdefault("workload_keys", scale.ycsb_keys)
    return ModelSpec(
        config=config, num_clients=clients or scale.clients, duration=scale.duration,
        warmup=scale.warmup, label=label, trace=False, **fields,
    )


def bench_row(spec: ModelSpec, run: PartitionResult) -> BenchResult:
    """A figure point's row: the run's bench row plus its event count, its
    fault counters and, when the spec wrote them, its trace and obs report."""
    row = BenchResult(**run.bench)
    row.extra["events"] = run.events
    if run.fault_stats is not None:
        row.extra.setdefault("fault_stats", dict(run.fault_stats))
    if spec.trace_dir:
        row.extra["trace_digest"] = run.digest
        row.extra["trace_path"] = spec.artifact_path("trace")
    if spec.obs_dir and run.report is not None:
        row.extra["obs_path"] = spec.artifact_path("obs")
        row.extra["health"] = run.report.get("health", "")
    return row


def run_figures(figures: dict[str, dict[str, ModelSpec]]) -> dict[str, dict[str, BenchResult]]:
    """Every point of every figure through one :func:`~repro.run.run_specs`
    call; the rows keyed like the specs."""
    flat = [(key, name, spec) for key, specs in figures.items() for name, spec in specs.items()]
    rows: dict[str, dict[str, BenchResult]] = {key: {} for key in figures}
    for (key, name, spec), run in zip(flat, run_specs([spec for *_, spec in flat])):
        rows[key][name] = bench_row(spec, run)
    return rows


# ---------------------------------------------------------------------------
# Figure 4: application benchmarks, four systems
# ---------------------------------------------------------------------------
def app_workload(app: str, scale: Scale = DEFAULT_SCALE) -> dict[str, Any]:
    """The Fig 4 application workload at ``scale``'s population, as the
    :class:`~repro.run.ModelSpec` fields that name it."""
    if app == "tpcc":
        return dict(workload="tpcc", workload_keys=scale.tpcc_warehouses * 100,
                    workload_kwargs=(("num_warehouses", scale.tpcc_warehouses),
                                     ("customers_per_district", scale.tpcc_customers),
                                     ("num_items", scale.tpcc_items)))
    if app == "smallbank":
        return dict(workload="smallbank", workload_keys=scale.smallbank_accounts,
                    workload_kwargs=(("hot_accounts", scale.smallbank_hot),))
    if app == "retwis":
        return dict(workload="retwis", workload_keys=scale.retwis_users)
    raise KeyError(f"unknown fig4 app {app!r}")


#: Per-app tuned batch sizes (paper Sec 6.1: Basil 4 on TPC-C / 16
#: elsewhere; TxHotStuff 4; TxBFT-SMaRt 16 on TPC-C, 64 elsewhere).
APP_BATCHES = {
    "tpcc": dict(basil=4, pbft=16, hotstuff=4),
    "smallbank": dict(basil=16, pbft=64, hotstuff=16),
    "retwis": dict(basil=16, pbft=64, hotstuff=16),
}


def fig4_systems(app: str, scale: Scale = DEFAULT_SCALE) -> dict[str, ModelSpec]:
    """One app (Figure 4a/4b column): throughput + latency per system."""
    batches = APP_BATCHES[app]
    workload = app_workload(app, scale)
    specs = {
        "basil": point(scale, f"basil/{app}", SystemConfig(f=1, batch_size=batches["basil"]),
                       **workload),
        "tapir": point(scale, f"tapir/{app}", SystemConfig(f=1), kind="tapir", **workload),
    }
    for label, core, kind in (
        ("txbftsmart", "pbft", "txsmr"), ("txhotstuff", "hotstuff", "txsmr-hotstuff")
    ):
        config = SystemConfig(f=1, smr_batch_size=batches[core], batch_size=batches["basil"])
        specs[label] = point(scale, f"{label}/{app}", config, scale.baseline_clients,
                             kind=kind, **workload)
    return specs


# ---------------------------------------------------------------------------
# Figure 5a: cost of cryptography (Basil with vs without signatures)
# ---------------------------------------------------------------------------
def fig5a_crypto_cost(scale: Scale = DEFAULT_SCALE) -> dict[str, ModelSpec]:
    specs = {}
    for dist, tag in (("uniform", "rw-u"), ("zipfian", "rw-z")):
        for crypto_on in (True, False):
            config = SystemConfig(
                f=1, batch_size=4 if crypto_on else 1,
                crypto=CryptoConfig(enabled=crypto_on),
            )
            name = f"basil-{tag}-{'sig' if crypto_on else 'nosig'}"
            specs[name] = point(scale, name, config,
                                workload_kwargs=(("distribution", dist),))
    return specs


# ---------------------------------------------------------------------------
# Figure 5b: read quorum size (read-only workload, 24 reads/txn)
# ---------------------------------------------------------------------------
def fig5b_read_quorum(scale: Scale = DEFAULT_SCALE) -> dict[str, ModelSpec]:
    f = 1
    # Read-only transactions are cheap per-replica; it takes ~3x the usual
    # client count to reach the replica-side knee the paper measures.
    return {
        label: point(
            scale, f"readonly-{label}",
            SystemConfig(f=f, batch_size=16, read_quorum=quorum, read_fanout=fanout),
            scale.clients * 3, workload="ycsb-ro",
        )
        for label, quorum, fanout in (
            ("q=1", 1, 1), ("q=f+1", f + 1, 2 * f + 1), ("q=2f+1", 2 * f + 1, 3 * f + 1)
        )
    }


# ---------------------------------------------------------------------------
# Figure 5c: shard scaling (1 -> 3 shards), with and without crypto
# ---------------------------------------------------------------------------
def fig5c_shard_scaling(scale: Scale = DEFAULT_SCALE) -> dict[str, ModelSpec]:
    # The no-crypto runs push very high simulated throughput (millions of
    # events); a shorter window keeps wall-clock sane without changing
    # the 1-shard -> 3-shard ratios the figure reports.
    scale = dataclasses.replace(
        scale,
        duration=min(scale.duration, 0.15),
        warmup=min(scale.warmup, 0.05),
    )
    specs = {}
    for crypto_on in (True, False):
        for shards in (1, 3):
            config = SystemConfig(
                f=1, num_shards=shards, batch_size=4,
                crypto=CryptoConfig(enabled=crypto_on),
            )
            name = f"{'sig' if crypto_on else 'nosig'}-{shards}shard"
            clients = scale.clients if shards == 1 else scale.clients * 2
            specs[name] = point(scale, name, config, clients,
                                workload_kwargs=(("reads", 3), ("writes", 3)))
    return specs


# ---------------------------------------------------------------------------
# Figure 6a: fast path on/off
# ---------------------------------------------------------------------------
def fig6a_fast_path(scale: Scale = DEFAULT_SCALE) -> dict[str, ModelSpec]:
    specs = {}
    for dist, tag in (("uniform", "rw-u"), ("zipfian", "rw-z")):
        for fast in (True, False):
            name = f"{tag}-{'fp' if fast else 'nofp'}"
            specs[name] = point(
                scale, name, SystemConfig(f=1, batch_size=4, fast_path_enabled=fast),
                workload_kwargs=(("distribution", dist),),
            )
    return specs


# ---------------------------------------------------------------------------
# Figure 6b: reply-batching sweep
# ---------------------------------------------------------------------------
def fig6b_batching(
    scale: Scale = DEFAULT_SCALE, sizes: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
) -> dict[str, ModelSpec]:
    return {
        f"{tag}-b{b}": point(scale, f"{tag}-b{b}", SystemConfig(f=1, batch_size=b),
                             workload_kwargs=(("distribution", dist),))
        for dist, tag in (("uniform", "rw-u"), ("zipfian", "rw-z"))
        for b in sizes
    }


# ---------------------------------------------------------------------------
# Figure 7: Basil under Byzantine client failures
# ---------------------------------------------------------------------------
FAILURE_BEHAVIOURS = ("stall-early", "stall-late", "equiv-real", "equiv-forced")


def fig7_crash_schedule(
    config: SystemConfig,
    scale: Scale = DEFAULT_SCALE,
    num_crashes: int = 1,
    seed: int | None = None,
):
    """A Fig 7 replica crash/restart schedule.

    Victims are drawn from the deployment's sorted replica names, never
    from a live system's dict order, so a seed always names the same
    replicas.  Crashes land at 30% of the measured window and restart at
    70%.
    """
    import random as _random

    from repro.core.sharding import Sharder
    from repro.faults.spec import CrashFault, FaultSchedule

    replicas = sorted(Sharder(config).all_replicas())
    rng = _random.Random(f"{seed if seed is not None else config.seed}/fig7-crashes")
    victims = rng.sample(replicas, min(num_crashes, len(replicas)))
    crash_at = scale.warmup + 0.3 * scale.duration
    restart_at = scale.warmup + 0.7 * scale.duration
    return FaultSchedule(
        name=f"fig7-crash-{num_crashes}",
        faults=tuple(
            CrashFault(node=name, at=crash_at, restart_at=restart_at)
            for name in victims
        ),
    )


def fig7_failures(
    distribution: str,
    behaviours: tuple[str, ...] = FAILURE_BEHAVIOURS,
    byz_client_fractions: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3),
    scale: Scale = DEFAULT_SCALE,
    fault_schedule=None,
) -> dict[str, ModelSpec]:
    """Correct-client throughput vs fraction of Byzantine clients, one
    point per ``{behaviour}@{percent}%``.

    Byzantine clients misbehave on every admitted transaction; the
    fraction of faulty *clients* sweeps the x-axis (the paper sweeps the
    faulty-transaction percentage; with faulty_fraction=1 these
    coincide at the client granularity).  ``fault_schedule`` overlays
    replica faults (see :func:`fig7_crash_schedule`) on every point; its
    injector stats end up in each row's ``extra["fault_stats"]``.
    :func:`fig7_metrics` adds the paper's metric to the rows.
    """
    specs = {}
    for behaviour in behaviours:
        for fraction in byz_client_fractions:
            config = SystemConfig(
                f=1, batch_size=4,
                allow_unjustified_st2=(behaviour == "equiv-forced"),
            )
            num_byz = round(scale.clients * fraction)
            name = f"{behaviour}@{int(fraction * 100)}%"
            specs[name] = point(
                scale, name, config,
                workload_kwargs=(("distribution", distribution),),
                fault_schedule=fault_schedule,
                byz_client_behaviour=behaviour if num_byz else None,
                byz_client_count=num_byz,
            )
    return specs


def fig7_metrics(row: BenchResult, total_clients: int) -> BenchResult:
    """Add the paper's Fig 7 metric, ``extra["correct_tps_per_client"]``,
    and the equivocation success rate to a Fig 7 row."""
    attempts = row.extra.get("equiv_attempts", 0)
    successes = row.extra.get("equiv_successes", 0)
    if attempts:
        # the paper: equivocation succeeds ~0.048% of the time at
        # 40% faulty transactions on RW-Z
        row.extra["equiv_success_rate"] = successes / attempts
    row.extra["correct_tps_per_client"] = correct_tps_per_client(row, total_clients)
    return row


def correct_tps_per_client(result: BenchResult, total_clients: int) -> float:
    """The paper's Fig 7 metric: committed tx/s per *correct* client."""
    if "correct_tps_per_client" in result.extra:
        return result.extra["correct_tps_per_client"]
    return result.throughput / max(1, total_clients)


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------
def ablation_aggregation(scale: Scale = DEFAULT_SCALE) -> dict[str, ModelSpec]:
    """Sec 4.4's signature aggregation on the crypto-bound RW-U workload.

    The paper describes aggregating matching ST1R/ST2R signatures but its
    prototype does not implement it; this measures what it would buy.
    """
    return {
        name: point(scale, name, SystemConfig(
            f=1, batch_size=4, crypto=CryptoConfig(signature_aggregation=aggregate)
        ))
        for name, aggregate in (("per-signature", False), ("aggregated", True))
    }


def ablation_dependency_timeout(scale: Scale = DEFAULT_SCALE) -> dict[str, ModelSpec]:
    """How aggressively correct clients chase stalled dependencies (the
    paper's "aggressively finish"): a timeout sweep on RW-Z with 30 %
    stall-early Byzantine clients."""
    specs = {}
    for timeout in (0.002, 0.005, 0.02, 0.05):
        name = f"dep-timeout={timeout * 1000:.0f}ms"
        specs[name] = point(
            scale, name, SystemConfig(f=1, batch_size=4, dependency_timeout=timeout),
            workload_kwargs=(("distribution", "zipfian"),),
            byz_client_behaviour="stall-early", byz_client_count=round(0.3 * scale.clients),
        )
    return specs
