"""Deterministic fault injection and seed-sweep campaigns.

See ``docs/simulation.md`` ("Fault injection & simulation testing") and
``python -m repro list`` for the scenario matrix; ``python -m repro sweep
faults`` runs it and ``python -m repro replay BUNDLE`` re-runs a failure.
"""

from repro.faults.campaign import (
    CaseResult,
    execute_case,
    replay_bundle,
    run_case,
    sweep,
)
from repro.faults.injector import FaultInjector
from repro.faults.scenarios import SCENARIOS, SMOKE_SCENARIOS, Scale, Scenario
from repro.faults.spec import (
    ByzantineClientFault,
    ByzantineReplicaFault,
    CrashFault,
    Fault,
    FaultSchedule,
    FaultSpecError,
    LinkFault,
    PartitionFault,
)

__all__ = [
    "ByzantineClientFault",
    "ByzantineReplicaFault",
    "CaseResult",
    "CrashFault",
    "Fault",
    "FaultInjector",
    "FaultSchedule",
    "FaultSpecError",
    "LinkFault",
    "PartitionFault",
    "SCENARIOS",
    "SMOKE_SCENARIOS",
    "Scale",
    "Scenario",
    "execute_case",
    "replay_bundle",
    "run_case",
    "sweep",
]
