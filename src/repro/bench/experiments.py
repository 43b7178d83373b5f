"""One entry point per figure of the paper's evaluation (Sec 6), plus
two ablations.

Every function builds fresh systems, runs closed-loop clients on the
paper's workload for that figure, and returns a dict of
:class:`~repro.bench.runner.BenchResult` keyed the way the figure's
series are labeled.  Populations and run lengths are scaled down from
the paper's testbed (see EXPERIMENTS.md); the ``scale`` argument shrinks
them further for smoke testing.

Tuning note: as in the paper, each system runs its best-known
configuration — reply-batch size per workload (Basil), consensus batch
size per workload (TxBFT-SMaRt/TxHotStuff), and enough closed-loop
clients to reach its knee.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any

from repro.bench.runner import BenchResult
from repro.config import CryptoConfig, SystemConfig


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


@dataclass(frozen=True)
class WorkloadDesc:
    """One figure workload as plain data: registry name + population +
    constructor kwargs.

    Every figure point copies the fields into a
    :class:`~repro.run.ModelSpec`; :meth:`build` is for callers that want
    the workload object itself.
    """

    name: str
    keys: int
    kwargs: tuple[tuple[str, Any], ...] = ()

    def build(self):
        from repro.workloads import make_workload

        return make_workload(self.name, keys=self.keys, **dict(self.kwargs))

#: When set (see :func:`set_trace_dir`), every figure point attaches a
#: fresh tracer and writes a Chrome trace_event JSON into the dir.
_TRACE_DIR: str | None = None


def set_trace_dir(path: str | None) -> None:
    """Enable (or disable with ``None``) tracing for every benchmark run.

    The globals only configure the *front-end*: each figure point copies
    them into its :class:`~repro.run.ModelSpec`.
    """
    global _TRACE_DIR
    if path is not None:
        os.makedirs(path, exist_ok=True)
    _TRACE_DIR = path


#: When set (see :func:`set_obs_dir`), every figure point attaches a
#: fresh :class:`repro.obs.recorder.ObsRecorder` and writes a RunReport
#: JSON into the dir.
_OBS_DIR: str | None = None


def set_obs_dir(path: str | None) -> None:
    """Enable (or disable with ``None``) telemetry for every benchmark run."""
    global _OBS_DIR
    if path is not None:
        os.makedirs(path, exist_ok=True)
    _OBS_DIR = path


def _bench_from_dict(data: dict) -> BenchResult:
    """Rehydrate the run pipeline's jsonable bench dict into a row."""
    known = {f.name for f in dataclasses.fields(BenchResult)}
    return BenchResult(**{k: v for k, v in data.items() if k in known})


def _run_point(
    config: SystemConfig,
    wdesc: WorkloadDesc,
    clients: int,
    scale: Scale,
    name: str,
    fault_schedule=None,
    byz_behaviour: str | None = None,
    byz_count: int = 0,
    kind: str = "basil",
) -> BenchResult:
    """One figure point, of any system ``kind``, through the run pipeline.

    A :class:`~repro.run.SequentialRun`: byte-identical trace digests to a
    hand-built system + runner (pinned by the golden-digest tests).
    """
    from repro.run import ModelSpec, SequentialRun

    spec = ModelSpec(
        kind=kind,
        config=config,
        workload=wdesc.name,
        workload_keys=wdesc.keys,
        workload_kwargs=wdesc.kwargs,
        num_clients=clients,
        duration=scale.duration,
        warmup=scale.warmup,
        label=name,
        trace=_TRACE_DIR is not None,
        obs=_OBS_DIR is not None,
        fault_schedule=fault_schedule,
        byz_client_behaviour=byz_behaviour,
        byz_client_count=byz_count,
        trace_dir=_TRACE_DIR,
        obs_dir=_OBS_DIR,
    )
    run = SequentialRun(spec).run()
    result = _bench_from_dict(run.bench)
    result.extra["events"] = run.events
    if run.fault_stats is not None:
        result.extra.setdefault("fault_stats", dict(run.fault_stats))
    if _TRACE_DIR is not None:
        result.extra["trace_digest"] = run.digest
        path = spec.artifact_path("trace")
        result.extra["trace_path"] = path
        print(f"  trace: {path} (digest {run.digest[:12]})")
    if _OBS_DIR is not None and run.report is not None:
        path = spec.artifact_path("obs")  # written by the pipeline
        result.extra["obs_path"] = path
        result.extra["health"] = run.report.get("health", "")
        print(f"  obs: {path} (health {result.extra['health']})")
    return result


# ---------------------------------------------------------------------------
# Figure 4: application benchmarks, four systems
# ---------------------------------------------------------------------------
def app_workload_desc(app: str, scale: Scale = DEFAULT_SCALE) -> WorkloadDesc:
    """The Fig 4 application workload at ``scale``'s population."""
    if app == "tpcc":
        return WorkloadDesc("tpcc", scale.tpcc_warehouses * 100, (
            ("num_warehouses", scale.tpcc_warehouses),
            ("customers_per_district", scale.tpcc_customers),
            ("num_items", scale.tpcc_items),
        ))
    if app == "smallbank":
        return WorkloadDesc(
            "smallbank", scale.smallbank_accounts,
            (("hot_accounts", scale.smallbank_hot),),
        )
    if app == "retwis":
        return WorkloadDesc("retwis", scale.retwis_users)
    raise KeyError(f"unknown fig4 app {app!r}")


#: Per-app tuned batch sizes (paper Sec 6.1: Basil 4 on TPC-C / 16
#: elsewhere; TxHotStuff 4; TxBFT-SMaRt 16 on TPC-C, 64 elsewhere).
APP_BATCHES = {
    "tpcc": dict(basil=4, pbft=16, hotstuff=4),
    "smallbank": dict(basil=16, pbft=64, hotstuff=16),
    "retwis": dict(basil=16, pbft=64, hotstuff=16),
}


def fig4_systems(app: str, scale: Scale = DEFAULT_SCALE) -> dict[str, BenchResult]:
    """One app (Figure 4a/4b column): throughput + latency per system."""
    batches = APP_BATCHES[app]
    wdesc = app_workload_desc(app, scale)
    results: dict[str, BenchResult] = {}

    results["basil"] = _run_point(
        SystemConfig(f=1, batch_size=batches["basil"]),
        wdesc, scale.clients, scale, f"basil/{app}",
    )
    results["tapir"] = _run_point(
        SystemConfig(f=1), wdesc, scale.clients, scale, f"tapir/{app}",
        kind="tapir",
    )
    for label, core, kind in (
        ("txbftsmart", "pbft", "txsmr"), ("txhotstuff", "hotstuff", "txsmr-hotstuff")
    ):
        results[label] = _run_point(
            SystemConfig(
                f=1, smr_batch_size=batches[core], batch_size=batches["basil"]
            ),
            wdesc, scale.baseline_clients, scale, f"{label}/{app}", kind=kind,
        )
    return results


# ---------------------------------------------------------------------------
# Figure 5a: cost of cryptography (Basil with vs without signatures)
# ---------------------------------------------------------------------------
def fig5a_crypto_cost(scale: Scale = DEFAULT_SCALE) -> dict[str, BenchResult]:
    results = {}
    for dist, tag in (("uniform", "rw-u"), ("zipfian", "rw-z")):
        for crypto_on in (True, False):
            config = SystemConfig(
                f=1, batch_size=4 if crypto_on else 1,
                crypto=CryptoConfig(enabled=crypto_on),
            )
            wdesc = WorkloadDesc(
                "ycsb-u", scale.ycsb_keys, (("distribution", dist),)
            )
            name = f"basil-{tag}-{'sig' if crypto_on else 'nosig'}"
            results[name] = _run_point(config, wdesc, scale.clients, scale, name)
    return results


# ---------------------------------------------------------------------------
# Figure 5b: read quorum size (read-only workload, 24 reads/txn)
# ---------------------------------------------------------------------------
def fig5b_read_quorum(scale: Scale = DEFAULT_SCALE) -> dict[str, BenchResult]:
    results = {}
    f = 1
    # Read-only transactions are cheap per-replica; it takes ~3x the usual
    # client count to reach the replica-side knee the paper measures.
    clients = scale.clients * 3
    for label, quorum, fanout in (
        ("q=1", 1, 1), ("q=f+1", f + 1, 2 * f + 1), ("q=2f+1", 2 * f + 1, 3 * f + 1)
    ):
        config = SystemConfig(f=f, batch_size=16, read_quorum=quorum, read_fanout=fanout)
        wdesc = WorkloadDesc("ycsb-ro", scale.ycsb_keys)
        results[label] = _run_point(config, wdesc, clients, scale, f"readonly-{label}")
    return results


# ---------------------------------------------------------------------------
# Figure 5c: shard scaling (1 -> 3 shards), with and without crypto
# ---------------------------------------------------------------------------
def fig5c_shard_scaling(scale: Scale = DEFAULT_SCALE) -> dict[str, BenchResult]:
    # The no-crypto runs push very high simulated throughput (millions of
    # events); a shorter window keeps wall-clock sane without changing
    # the 1-shard -> 3-shard ratios the figure reports.
    scale = dataclasses.replace(
        scale,
        duration=min(scale.duration, 0.15),
        warmup=min(scale.warmup, 0.05),
    )
    results = {}
    for crypto_on in (True, False):
        for shards in (1, 3):
            config = SystemConfig(
                f=1, num_shards=shards, batch_size=4,
                crypto=CryptoConfig(enabled=crypto_on),
            )
            wdesc = WorkloadDesc(
                "ycsb-u", scale.ycsb_keys, (("reads", 3), ("writes", 3))
            )
            name = f"{'sig' if crypto_on else 'nosig'}-{shards}shard"
            clients = scale.clients if shards == 1 else scale.clients * 2
            results[name] = _run_point(config, wdesc, clients, scale, name)
    return results


# ---------------------------------------------------------------------------
# Figure 6a: fast path on/off
# ---------------------------------------------------------------------------
def fig6a_fast_path(scale: Scale = DEFAULT_SCALE) -> dict[str, BenchResult]:
    results = {}
    for dist, tag in (("uniform", "rw-u"), ("zipfian", "rw-z")):
        for fast in (True, False):
            config = SystemConfig(f=1, batch_size=4, fast_path_enabled=fast)
            wdesc = WorkloadDesc(
                "ycsb-u", scale.ycsb_keys, (("distribution", dist),)
            )
            name = f"{tag}-{'fp' if fast else 'nofp'}"
            results[name] = _run_point(config, wdesc, scale.clients, scale, name)
    return results


# ---------------------------------------------------------------------------
# Figure 6b: reply-batching sweep
# ---------------------------------------------------------------------------
def fig6b_batching(
    scale: Scale = DEFAULT_SCALE, sizes: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
) -> dict[str, BenchResult]:
    results = {}
    for dist, tag in (("uniform", "rw-u"), ("zipfian", "rw-z")):
        for b in sizes:
            config = SystemConfig(f=1, batch_size=b)
            wdesc = WorkloadDesc(
                "ycsb-u", scale.ycsb_keys, (("distribution", dist),)
            )
            name = f"{tag}-b{b}"
            results[name] = _run_point(config, wdesc, scale.clients, scale, name)
    return results


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
) -> dict[str, dict[float, BenchResult]]:
    """Correct-client throughput vs fraction of Byzantine clients.

    Byzantine clients misbehave on every admitted transaction; the
    fraction of faulty *clients* sweeps the x-axis (the paper sweeps the
    faulty-transaction percentage; with faulty_fraction=1 these
    coincide at the client granularity).  ``fault_schedule`` overlays
    replica faults (see :func:`fig7_crash_schedule`) on every point; its
    injector stats end up in each row's ``extra["fault_stats"]``.  Every
    row carries the paper's metric, ``extra["correct_tps_per_client"]``.
    """
    results: dict[str, dict[float, BenchResult]] = {}
    for behaviour in behaviours:
        series: dict[float, BenchResult] = {}
        for fraction in byz_client_fractions:
            config = SystemConfig(
                f=1, batch_size=4,
                allow_unjustified_st2=(behaviour == "equiv-forced"),
            )
            wdesc = WorkloadDesc(
                "ycsb-u", scale.ycsb_keys, (("distribution", distribution),)
            )
            num_byz = round(scale.clients * fraction)
            name = f"{behaviour}@{int(fraction * 100)}%"
            result = _run_point(
                config, wdesc, scale.clients, scale, name,
                fault_schedule=fault_schedule,
                byz_behaviour=behaviour if num_byz else None,
                byz_count=num_byz,
            )
            attempts = result.extra.get("equiv_attempts", 0)
            successes = result.extra.get("equiv_successes", 0)
            if attempts:
                # the paper: equivocation succeeds ~0.048% of the time at
                # 40% faulty transactions on RW-Z
                result.extra["equiv_success_rate"] = successes / attempts
            result.extra["correct_tps_per_client"] = correct_tps_per_client(
                result, scale.clients
            )
            series[fraction] = result
        results[behaviour] = series
    return results


def correct_tps_per_client(result: BenchResult, total_clients: int) -> float:
    """The paper's Fig 7 metric: committed tx/s per *correct* client."""
    if "correct_tps_per_client" in result.extra:
        return result.extra["correct_tps_per_client"]
    return result.throughput / max(1, total_clients)


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------
def ablation_aggregation(scale: Scale = DEFAULT_SCALE) -> dict[str, BenchResult]:
    """Sec 4.4's signature aggregation on the crypto-bound RW-U workload.

    The paper describes aggregating matching ST1R/ST2R signatures but its
    prototype does not implement it; this measures what it would buy.
    """
    wdesc = WorkloadDesc("ycsb-u", scale.ycsb_keys)
    results = {}
    for name, aggregate in (("per-signature", False), ("aggregated", True)):
        config = SystemConfig(
            f=1, batch_size=4, crypto=CryptoConfig(signature_aggregation=aggregate)
        )
        results[name] = _run_point(config, wdesc, scale.clients, scale, name)
    return results


def ablation_dependency_timeout(scale: Scale = DEFAULT_SCALE) -> dict[str, BenchResult]:
    """How aggressively correct clients chase stalled dependencies (the
    paper's "aggressively finish"): a timeout sweep on RW-Z with 30 %
    stall-early Byzantine clients."""
    wdesc = WorkloadDesc("ycsb-u", scale.ycsb_keys, (("distribution", "zipfian"),))
    results = {}
    for timeout in (0.002, 0.005, 0.02, 0.05):
        name = f"dep-timeout={timeout * 1000:.0f}ms"
        results[name] = _run_point(
            SystemConfig(f=1, batch_size=4, dependency_timeout=timeout),
            wdesc, scale.clients, scale, name,
            byz_behaviour="stall-early", byz_count=round(0.3 * scale.clients),
        )
    return results
