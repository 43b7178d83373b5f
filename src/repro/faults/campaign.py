"""The seed-sweep simulation fuzzer.

One *case* = (scenario, system kind, seed).  A case is one
:class:`~repro.run.ModelSpec` — the scenario's seed-derived
schedule, closed-loop clients left to finish, a fault-free drain — run
through the one pipeline, in a forked child of its own during a sweep
(:func:`~repro.run.run_specs`); :func:`judge_case` then checks, in that
child on the live system:

* **Safety**, unconditionally: the Byz-serializability
  :class:`~repro.verify.history.HistoryChecker` for Basil; store
  convergence oracles for the TAPIR/TxSMR baselines.
* **Liveness**, per the scenario's :class:`~repro.config.LivenessConfig`:
  minimum commits, bounded undecided residue, bounded recovery
  starvation.

A failing case emits a self-contained JSON *repro bundle* (seed, built
schedule, scale, liveness bounds, trace digest) that ``python -m
repro replay bundle.json`` re-executes exactly — no scenario
code runs during replay, only the recorded schedule.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Iterator

from repro.config import LivenessConfig, SystemConfig
from repro.faults.scenarios import SCENARIOS, Scale, Scenario
from repro.faults.spec import FaultSchedule
from repro.run import ModelSpec, PartitionResult, SequentialRun, run_specs
from repro.verify.history import HistoryChecker


@dataclass
class CaseResult:
    """Outcome of one (scenario, system, seed) run."""

    scenario: str
    system: str
    seed: int
    commits: int = 0
    aborts: int = 0
    protocol_errors: int = 0
    undecided: int = 0
    faults_applied: int = 0
    digest: str | None = None
    safety_violations: list[str] = field(default_factory=list)
    liveness_violations: list[str] = field(default_factory=list)
    bundle: str | None = None

    @property
    def ok(self) -> bool:
        return not self.safety_violations and not self.liveness_violations

    def row(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        tail = ""
        if self.safety_violations:
            tail += f"  safety:{len(self.safety_violations)}"
        if self.liveness_violations:
            tail += "  " + "; ".join(self.liveness_violations)
        return (
            f"{status} {self.scenario:<26} {self.system:<6} seed={self.seed:<4} "
            f"commits={self.commits:<5} aborts={self.aborts:<4} "
            f"faults={self.faults_applied:<5} "
            f"digest={self.digest[:12] if self.digest else '-'}{tail}"
        )


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------
def make_config(seed: int, overrides: dict[str, Any] | None = None) -> SystemConfig:
    config = SystemConfig(f=1, batch_size=4, seed=seed)
    if overrides:
        config = config.with_overrides(**overrides)
    return config


# ---------------------------------------------------------------------------
# Safety oracles
# ---------------------------------------------------------------------------
def check_safety(kind: str, system: Any) -> list[str]:
    if kind == "basil":
        return [str(v) for v in HistoryChecker(system).check()]
    if kind == "tapir":
        return _tapir_convergence(system)
    if kind in ("txsmr", "txsmr-hotstuff"):
        return _txsmr_convergence(system)
    raise ValueError(f"unknown system kind {kind!r}")


def _tapir_convergence(system: Any) -> list[str]:
    """Committed version chains must agree across a shard's replicas.

    A partitioned/crashed replica may lag (missing versions), but any
    (key, timestamp) it did commit must carry the same writer everywhere.
    """
    violations: list[str] = []
    for shard in range(system.config.num_shards):
        members = system.sharder.members(shard)
        stores = [system.replicas[name].store.versions for name in members]
        keys: set[Any] = set()
        for store in stores:
            keys.update(store.keys())
        for key in keys:
            merged: dict[Any, Any] = {}
            for store in stores:
                for version in store.committed_versions(key):
                    prior = merged.get(version.timestamp)
                    if prior is None:
                        merged[version.timestamp] = version.writer
                    elif prior != version.writer:
                        violations.append(
                            f"[tapir-divergence] shard {shard} key {key!r} at "
                            f"{version.timestamp}: two writers"
                        )
    return violations


def _txsmr_convergence(system: Any) -> list[str]:
    """Replicas at the same per-key version must hold the same value.

    SMR replicas apply the same ordered log, so a lagging replica sits at
    an older version — but two replicas at version v must agree on v's
    value, else the shard's logs diverged.
    """
    violations: list[str] = []
    for shard in range(system.config.num_shards):
        members = system.sharder.members(shard)
        keys: set[Any] = set()
        for name in members:
            keys.update(system.apps[name].store.data.keys())
        for key in keys:
            by_version: dict[int, Any] = {}
            for name in members:
                # ``read`` rather than ``data.get``: a replica that has not
                # touched the key yet still holds its genesis entry.
                value, version = system.apps[name].store.read(key)
                if version == 0:
                    continue  # absent here
                if version in by_version:
                    if by_version[version] != value:
                        violations.append(
                            f"[txsmr-divergence] shard {shard} key {key!r} "
                            f"version {version}: two values"
                        )
                else:
                    by_version[version] = value
    return violations


# ---------------------------------------------------------------------------
# Case execution
# ---------------------------------------------------------------------------
def case_spec(
    scenario_name: str,
    system_kind: str,
    seed: int,
    schedule: FaultSchedule,
    scale: Scale,
    liveness: LivenessConfig,
    config_overrides: dict[str, Any] | None = None,
) -> ModelSpec:
    """One fully specified case as a spec, named ``{scenario}/{kind}/seed{seed}``."""
    return ModelSpec(
        kind=system_kind,
        config=make_config(seed, config_overrides),
        workload="ycsb-z",
        workload_keys=scale.keys,
        num_clients=scale.clients,
        duration=scale.duration,
        warmup=scale.warmup,
        label=f"{scenario_name}/{system_kind}/seed{seed}",
        fault_schedule=schedule,
        # Transient faults have ended by construction (see scenarios), so
        # retries/recoveries/writebacks settle before the oracles look.
        drain=liveness.drain,
    )


def judge_case(
    run: SequentialRun, result: PartitionResult, liveness: LivenessConfig | None = None
) -> CaseResult:
    """The safety and liveness oracles, on a finished case's live system;
    ``liveness`` None judges by the case's scenario's own bounds."""
    spec = run.spec
    scenario = spec.label.split("/")[0]
    liveness = liveness or SCENARIOS[scenario].liveness
    case = CaseResult(
        scenario=scenario,
        system=spec.kind,
        seed=spec.config.seed,
        commits=result.bench["commits"],
        aborts=result.bench["aborts"],
        protocol_errors=run.runner.monitor.counter("protocol_errors").value,
        faults_applied=sum(result.fault_stats.values()),
        digest=result.digest or None,
        safety_violations=check_safety(spec.kind, run.system),
    )
    if spec.kind == "basil":
        case.undecided = len(HistoryChecker(run.system).undecided_prepared())

    if case.commits < liveness.min_commits:
        case.liveness_violations.append(
            f"commits {case.commits} < min {liveness.min_commits}"
        )
    if (
        spec.kind == "basil"
        and liveness.max_undecided is not None
        and case.undecided > liveness.max_undecided
    ):
        case.liveness_violations.append(
            f"undecided {case.undecided} > max {liveness.max_undecided}"
        )
    if case.protocol_errors > liveness.max_protocol_errors:
        case.liveness_violations.append(
            f"protocol_errors {case.protocol_errors} > max {liveness.max_protocol_errors}"
        )
    return case


def execute_case(spec: ModelSpec, liveness: LivenessConfig) -> CaseResult:
    """Run one case in this process and judge it (the replay entry point)."""
    run = SequentialRun(spec)
    return judge_case(run, run.run(), liveness)


def run_case(
    scenario: Scenario, system_kind: str, seed: int, scale: Scale
) -> tuple[CaseResult, FaultSchedule]:
    """One sweep case in this process: the reference a forked sweep matches."""
    spec = _scenario_spec(scenario, system_kind, seed, scale)
    return execute_case(spec, scenario.liveness), spec.fault_schedule


def _scenario_spec(scenario: Scenario, system_kind: str, seed: int, scale: Scale) -> ModelSpec:
    return case_spec(
        scenario.name, system_kind, seed, scenario.schedule(seed, scale), scale,
        scenario.liveness, scenario.config_overrides,
    )


# ---------------------------------------------------------------------------
# Repro bundles
# ---------------------------------------------------------------------------
def write_bundle(
    case: CaseResult,
    schedule: FaultSchedule,
    scale: Scale,
    liveness: LivenessConfig,
    config_overrides: dict[str, Any],
    out_dir: str,
) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"{case.scenario}__{case.system}__seed{case.seed}.json"
    )
    payload = {
        "scenario": case.scenario,
        "system": case.system,
        "seed": case.seed,
        "schedule": schedule.to_dict(),
        "scale": asdict(scale),
        "liveness": asdict(liveness),
        "config_overrides": config_overrides,
        "trace_digest": case.digest,
        "safety_violations": case.safety_violations,
        "liveness_violations": case.liveness_violations,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def replay_bundle(path: str, with_trace: bool = True) -> CaseResult:
    """Re-execute a recorded failure exactly from its bundle."""
    with open(path) as fh:
        bundle = json.load(fh)
    liveness = LivenessConfig(**bundle["liveness"])
    spec = case_spec(
        bundle["scenario"],
        bundle["system"],
        bundle["seed"],
        FaultSchedule.from_dict(bundle["schedule"]),
        Scale(**bundle["scale"]),
        liveness,
        bundle.get("config_overrides") or None,
    )
    case = execute_case(replace(spec, trace=with_trace), liveness)
    recorded = bundle.get("trace_digest")
    if with_trace and recorded and case.digest != recorded:
        case.liveness_violations.append(
            f"replay digest {case.digest[:12]} != recorded {recorded[:12]}"
        )
    return case


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------
def sweep_specs(
    seeds: int = 10,
    seed_base: int = 1,
    scenario_names: tuple[str, ...] | None = None,
    systems: tuple[str, ...] | None = None,
    scale: Scale | None = None,
) -> list[ModelSpec]:
    """N seeds x scenario matrix x applicable systems, one spec per case."""
    return [
        _scenario_spec(scenario, kind, seed, scale or Scale.quick())
        for scenario, kind, seed in matrix(seeds, seed_base, scenario_names, systems)
    ]


def sweep(
    specs: list[ModelSpec],
    scale: Scale | None = None,
    out_dir: str = "fault-failures",
    verbose: bool = True,
) -> list[CaseResult]:
    """Run :func:`sweep_specs`' cases, one forked child each, judge each
    in its child and bundle the failures; rows print in spec order."""
    scale = scale or Scale.quick()
    results = run_specs(specs, then=judge_case)
    for spec, case in zip(specs, results):
        if not case.ok:
            scenario = SCENARIOS[case.scenario]
            case.bundle = write_bundle(
                case, spec.fault_schedule, scale, scenario.liveness,
                scenario.config_overrides, out_dir,
            )
        if verbose:
            print(case.row(), flush=True)
    return results


def matrix(
    seeds: int,
    seed_base: int = 1,
    scenario_names: tuple[str, ...] | None = None,
    systems: tuple[str, ...] | None = None,
) -> Iterator[tuple[Scenario, str, int]]:
    """The (scenario, system, seed) cases a sweep runs, in its order."""
    for name in scenario_names or tuple(SCENARIOS):
        scenario = SCENARIOS[name]
        for kind in scenario.systems:
            if systems is None or kind in systems:
                for seed in range(seed_base, seed_base + seeds):
                    yield scenario, kind, seed


def summarize(results: list[CaseResult]) -> str:
    failures = [r for r in results if not r.ok]
    safety = sum(len(r.safety_violations) for r in results)
    lines = [
        f"{len(results)} cases: {len(results) - len(failures)} ok, "
        f"{len(failures)} failed ({safety} safety violations)"
    ]
    for case in failures:
        lines.append(f"  {case.scenario}/{case.system}/seed{case.seed}"
                     + (f" -> {case.bundle}" if case.bundle else ""))
    return "\n".join(lines)
