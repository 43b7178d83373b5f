"""The run-artifact format: everything one run leaves behind.

A :class:`RunReport` is the machine-checkable record of one simulated
run: the configuration (and its digest, so two reports can assert they
ran the same setup), the trace digest when a tracer was attached (the
determinism oracle), the sampled metric time series, histogram
summaries, the benchmark row, and the evaluated health verdicts.

A profiled run's report also carries its wall-clock attribution
(:class:`~repro.prof.profiler.Attribution`: the subsystem table,
coverage and, in deep mode, collapsed stacks) as its ``prof`` section;
an unprofiled report has no such key, so its JSON is what it was before
the section existed.

Reports are plain JSON (``schema`` field versions the layout, the same
convention as ``repro.load.sweep/v1``).  The run pipeline
(:mod:`repro.run`) writes one per run into ``ModelSpec.obs_dir`` (the
``--obs DIR`` of ``python -m repro run`` and of the figures, faults,
load and geo sweeps), ``python -m repro run --prof`` writes one as
``PROF_<run name>.json``, and :func:`run_instrumented` returns one for
a library caller.
``python -m repro compare A B`` diffs two of them.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any

from repro.crypto.digest import sha256
from repro.prof.profiler import Attribution

SCHEMA = "repro.obs.run/v1"


def _jsonable(value: Any) -> Any:
    """Best-effort canonical JSON value (enums/digests become strings)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def config_digest(config: Any) -> str:
    """sha256 over the canonical JSON rendering of a SystemConfig."""
    payload = json.dumps(_jsonable(config), sort_keys=True, separators=(",", ":"))
    return sha256(payload.encode()).hexdigest()


@dataclass
class RunReport:
    """One run's telemetry artifact (see module docstring)."""

    name: str
    seed: int
    sim_seconds: float
    config_digest: str
    health: str = "ok"
    verdicts: list[dict[str, Any]] = field(default_factory=list)
    bench: dict[str, Any] | None = None
    series: list[dict[str, Any]] = field(default_factory=list)
    histograms: dict[str, dict[str, float]] = field(default_factory=dict)
    trace_digest: str | None = None
    config: dict[str, Any] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)
    #: The wall-clock attribution of a profiled run; None otherwise.
    prof: Attribution | None = None
    schema: str = SCHEMA

    @classmethod
    def of(
        cls, name: str, config: Any, seed: int, sim_seconds: float, **fields: Any
    ) -> "RunReport":
        """A report on a run of ``config`` (None: no system config), its
        digest and canonical JSON filled in."""
        return cls(
            name=name,
            seed=seed,
            sim_seconds=sim_seconds,
            config_digest=config_digest(config) if config is not None else "",
            config=_jsonable(config) if config is not None else {},
            **fields,
        )

    def to_dict(self) -> dict[str, Any]:
        prof = {} if self.prof is None else {"prof": self.prof.to_dict()}
        return {
            "schema": self.schema,
            "name": self.name,
            "seed": self.seed,
            "sim_seconds": self.sim_seconds,
            "config_digest": self.config_digest,
            "health": self.health,
            "verdicts": self.verdicts,
            "bench": self.bench,
            "series": self.series,
            "histograms": self.histograms,
            "trace_digest": self.trace_digest,
            "config": self.config,
            "meta": self.meta,
            **prof,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunReport":
        if data.get("schema") != SCHEMA:
            raise ValueError(
                f"not a {SCHEMA} report (schema={data.get('schema')!r})"
            )
        return cls(
            name=data["name"],
            seed=int(data["seed"]),
            sim_seconds=float(data["sim_seconds"]),
            config_digest=data["config_digest"],
            health=data.get("health", "ok"),
            verdicts=data.get("verdicts", []),
            bench=data.get("bench"),
            series=data.get("series", []),
            histograms=data.get("histograms", {}),
            trace_digest=data.get("trace_digest"),
            config=data.get("config", {}),
            meta=data.get("meta", {}),
            prof=Attribution.from_dict(data["prof"]) if "prof" in data else None,
        )

    # -- convenience lookups -------------------------------------------
    def verdict_status(self) -> dict[str, str]:
        return {v["rule"]: v["status"] for v in self.verdicts}

    def final_series_values(self) -> dict[str, float]:
        """Series key -> last sampled value (counters/gauges end state)."""
        from repro.sim.monitor import metric_key

        out: dict[str, float] = {}
        for s in self.series:
            points = s.get("points") or []
            if points:
                out[metric_key(s["name"], s.get("labels") or {})] = float(points[-1][1])
        return out


def write_report(path: str, report: RunReport) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> RunReport:
    with open(path) as fh:
        return RunReport.from_dict(json.load(fh))


def run_instrumented(
    system: str = "basil",
    seed: int = 11,
    clients: int = 8,
    shards: int = 1,
    workload: str = "ycsb-t",
    keys: int = 500,
    duration: float = 0.12,
    warmup: float = 0.03,
    interval: float = 0.005,
    verify_cost_scale: float = 1.0,
    partition: tuple[float, float] | None = None,
    name: str | None = None,
) -> RunReport:
    """One telemetry-instrumented closed-loop run -> RunReport.

    ``partition`` = (start, duration) isolates one replica per shard for
    that window, forcing dependency stalls and fallback churn.
    ``verify_cost_scale`` multiplies the signature-verification cost —
    the cheapest way to fake a crypto performance regression.  The
    default run's whole report is pinned by the tests.
    """
    from repro.faults.campaign import make_config
    from repro.run import ModelSpec, SequentialRun

    config = make_config(seed, {"num_shards": shards})
    meta: dict[str, Any] = {"clients": clients, "workload": workload}
    if verify_cost_scale != 1.0:
        crypto = dataclasses.replace(
            config.crypto, verify_cost=config.crypto.verify_cost * verify_cost_scale
        )
        config = config.with_overrides(crypto=crypto)
        meta["verify_cost_scale"] = verify_cost_scale
    schedule = None
    if partition is not None:
        from repro.faults.spec import FaultSchedule, PartitionFault

        # A 3/3 split: with n = 5f+1 = 6 neither side has a commit
        # quorum, so commits stall and dependency fallbacks churn until
        # the partition heals — the canonical "degraded" run.
        start, length = partition
        fault = PartitionFault(
            groups=(("s*/r0", "s*/r1", "s*/r2"), ("*",)),
            start=start, end=start + length,
        )
        schedule = FaultSchedule(name="obs-run", faults=(fault,)).validate()
        meta["partition"] = list(partition)
    spec = ModelSpec(
        kind=system,
        config=config,
        workload=workload,
        workload_keys=keys,
        num_clients=clients,
        duration=duration,
        warmup=warmup,
        label=name or f"obs-{system}-{workload}-seed{seed}",
        trace=False,
        obs=True,
        obs_interval=interval,
        fault_schedule=schedule,
        # Clients are left running, not cancelled: a cancel runs their
        # ``finally`` blocks, which record basil_fallback_seconds.
        drain=0.0,
    )
    report = RunReport.from_dict(SequentialRun(spec).run().report)
    report.meta.update(meta)
    return report
