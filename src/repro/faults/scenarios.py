"""The scenario matrix the seed-sweep fuzzer runs.

Each :class:`Scenario` turns a seed into a concrete
:class:`~repro.faults.spec.FaultSchedule` (deterministically — the only
randomness is ``random.Random(f"{seed}/{name}")``), names the systems it
applies to, and states the liveness bounds the run must meet.  Safety
(zero history-checker violations) is asserted for every scenario
unconditionally.

Fault windows are placed inside the measured portion of the run and,
unless the scenario is explicitly permanent, end well before cool-down,
so the liveness drain observes a fault-free network — the paper's
setting for "the fallback eventually finishes every stalled
transaction".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.config import LivenessConfig
from repro.faults.spec import (
    ByzantineClientFault,
    ByzantineReplicaFault,
    CrashFault,
    FaultSchedule,
    LinkFault,
    PartitionFault,
)


@dataclass(frozen=True)
class Scale:
    """Run-size knobs for one campaign case."""

    duration: float = 0.25
    warmup: float = 0.05
    clients: int = 10
    keys: int = 300

    @property
    def end_time(self) -> float:
        """Traffic stops here (warmup + measured + cool-down)."""
        return self.warmup + self.duration + self.warmup

    def window(self, begin_frac: float, end_frac: float) -> tuple[float, float]:
        """A fault window placed inside the measured portion of the run."""
        return (
            self.warmup + begin_frac * self.duration,
            self.warmup + end_frac * self.duration,
        )

    @classmethod
    def quick(cls) -> "Scale":
        return cls(duration=0.12, warmup=0.03, clients=6, keys=150)


@dataclass(frozen=True)
class Scenario:
    """One named point of the matrix."""

    name: str
    description: str
    build: Callable[[int, Scale, random.Random], tuple["FaultSchedule.__class__", ...]]
    #: Not every kind the campaign can run (``repro.run.SYSTEM_KINDS``):
    #: the sweep matrix holds one SMR core.
    systems: tuple[str, ...] = ("basil", "tapir", "txsmr")
    liveness: LivenessConfig = field(default_factory=LivenessConfig)
    config_overrides: dict[str, Any] = field(default_factory=dict)

    def schedule(self, seed: int, scale: Scale) -> FaultSchedule:
        rng = random.Random(f"{seed}/{self.name}")
        faults = tuple(self.build(seed, scale, rng))
        return FaultSchedule(name=self.name, faults=faults).validate()


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------
def _no_faults(seed: int, scale: Scale, rng: random.Random):
    return ()


def _partition_minority(seed: int, scale: Scale, rng: random.Random):
    """Isolate one replica per shard for a while, then heal.

    r2 exists in every system and is never the PBFT leader (r0), so the
    baseline keeps its quorum without view changes.
    """
    start, end = scale.window(0.2, 0.5)
    return (PartitionFault(groups=(("s*/r2",), ("*",)), start=start, end=end),)


def _partition_permanent(seed: int, scale: Scale, rng: random.Random):
    """Permanently isolate f replicas (within every system's budget)."""
    start, _ = scale.window(0.3, 0.5)
    return (PartitionFault(groups=(("s*/r2",), ("*",)), start=start, end=None),)


def _partition_majority_heal(seed: int, scale: Scale, rng: random.Random):
    """Split a Basil shard 3/3 — no commit quorum until it heals."""
    start, end = scale.window(0.3, 0.55)
    groups = (("s*/r0", "s*/r1", "s*/r2"), ("*",))
    return (PartitionFault(groups=groups, start=start, end=end),)


def _crash_restart(seed: int, scale: Scale, rng: random.Random):
    """Crash one (seed-chosen) replica mid-run; restart before cool-down."""
    victim = rng.randrange(3)  # index valid for every system's n >= 3
    at, restart_at = scale.window(0.25, 0.6)
    return (CrashFault(node=f"s*/r{victim}", at=at, restart_at=restart_at),)


def _crash_permanent(seed: int, scale: Scale, rng: random.Random):
    """Crash one replica per shard forever (stays within f = 1)."""
    victim = rng.randrange(3)
    at, _ = scale.window(0.3, 0.5)
    return (CrashFault(node=f"s*/r{victim}", at=at, restart_at=None),)


def _link_chaos(seed: int, scale: Scale, rng: random.Random):
    """Lossy, jittery, duplicating, reordering network for a window."""
    start, end = scale.window(0.1, 0.7)
    return (
        LinkFault(
            start=start,
            end=end,
            drop_rate=0.02,
            extra_delay=50e-6,
            delay_jitter=200e-6,
            duplicate_rate=0.05,
            reorder_rate=0.10,
            reorder_spread=500e-6,
        ),
    )


def _byz_replica(behaviour: str):
    def build(seed: int, scale: Scale, rng: random.Random):
        return (ByzantineReplicaFault(node=f"s*/r{rng.randrange(6)}", behaviour=behaviour),)

    return build


def _byz_clients(behaviour: str, count: int = 2):
    def build(seed: int, scale: Scale, rng: random.Random):
        return (ByzantineClientFault(behaviour=behaviour, count=count),)

    return build


def _combined(seed: int, scale: Scale, rng: random.Random):
    """Everything at once: the schedule a testbed cannot reproduce."""
    part_start, part_end = scale.window(0.15, 0.35)
    crash_at, restart_at = scale.window(0.4, 0.7)
    chaos_start, chaos_end = scale.window(0.1, 0.75)
    return (
        PartitionFault(groups=(("s*/r0",), ("*",)), start=part_start, end=part_end),
        CrashFault(node="s*/r1", at=crash_at, restart_at=restart_at),
        LinkFault(
            start=chaos_start, end=chaos_end,
            drop_rate=0.01, delay_jitter=100e-6,
            duplicate_rate=0.03, reorder_rate=0.05,
        ),
        ByzantineClientFault(behaviour="stall-early", count=1),
        ByzantineClientFault(behaviour="stall-late", count=1),
    )


# ---------------------------------------------------------------------------
# The matrix
# ---------------------------------------------------------------------------
#: Liveness for scenarios whose faults persist or whose clients
#: deliberately strand transactions no correct client depends on: the
#: undecided-residue bound is lifted, safety checks remain.
_RELAXED = LivenessConfig(max_undecided=None)
#: Harsh scenarios can additionally starve a recovery past its retry
#: budget; tolerate a handful of ProtocolErrors, never a safety gap.
_HARSH = LivenessConfig(max_undecided=None, max_protocol_errors=5)

SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="no-faults",
            description="empty schedule (anchors the determinism guard)",
            build=_no_faults,
        ),
        Scenario(
            name="partition-minority",
            description="f replicas per shard isolated, then healed",
            build=_partition_minority,
        ),
        Scenario(
            name="partition-permanent",
            description="f replicas per shard isolated forever",
            build=_partition_permanent,
            liveness=_RELAXED,
        ),
        Scenario(
            name="partition-majority-heal",
            description="3/3 shard split: no quorum until heal",
            build=_partition_majority_heal,
            systems=("basil",),
            liveness=_HARSH,
        ),
        Scenario(
            name="crash-restart",
            description="one replica crashes mid-run and restarts",
            build=_crash_restart,
            systems=("basil", "tapir"),
        ),
        Scenario(
            name="crash-permanent",
            description="one replica per shard crashes and stays down",
            build=_crash_permanent,
            systems=("basil", "tapir"),
            liveness=_RELAXED,
        ),
        Scenario(
            name="link-chaos",
            description="drop/delay/duplicate/reorder on every link",
            build=_link_chaos,
            systems=("basil", "tapir"),
            liveness=_HARSH,
        ),
        Scenario(
            name="byz-replica-silent",
            description="one unresponsive replica per shard",
            build=_byz_replica("silent"),
            systems=("basil",),
        ),
        Scenario(
            name="byz-replica-abstain",
            description="one replica ignores ST1 (kills the fast path)",
            build=_byz_replica("prepare-abstain"),
            systems=("basil",),
        ),
        Scenario(
            name="byz-replica-stale",
            description="one replica serves oldest committed versions",
            build=_byz_replica("stale-read"),
            systems=("basil",),
        ),
        Scenario(
            name="byz-replica-fabricate",
            description="one replica invents read values",
            build=_byz_replica("fabricate-read"),
            systems=("basil",),
        ),
        Scenario(
            name="byz-replica-equivocate",
            description="one replica alternates commit/abort votes",
            build=_byz_replica("equivocate-vote"),
            systems=("basil",),
        ),
        Scenario(
            name="byz-clients-stall-early",
            description="clients send ST1 and vanish (Fig 7)",
            build=_byz_clients("stall-early"),
            systems=("basil",),
            liveness=_RELAXED,
        ),
        Scenario(
            name="byz-clients-stall-late",
            description="clients finish Prepare, never write back (Fig 7)",
            build=_byz_clients("stall-late"),
            systems=("basil",),
            liveness=_RELAXED,
        ),
        Scenario(
            name="byz-clients-equiv-real",
            description="clients equivocate ST2 when justifiable (Fig 7)",
            build=_byz_clients("equiv-real"),
            systems=("basil",),
            liveness=_RELAXED,
        ),
        # Note: the fuzzer runs equiv-forced clients against *honest*
        # replicas (unlike Fig 7's artificial allow_unjustified_st2 mode,
        # which disables the ST2 justification check and is unsafe by
        # construction): replicas must reject the unjustified ST2s and
        # safety must hold despite the forced-equivocation attempts.
        Scenario(
            name="byz-clients-equiv-forced",
            description="forced ST2 equivocation vs validating replicas",
            build=_byz_clients("equiv-forced"),
            systems=("basil",),
            liveness=_RELAXED,
        ),
        Scenario(
            name="combined",
            description="partition + crash + chaos + Byzantine clients",
            build=_combined,
            systems=("basil",),
            liveness=_HARSH,
        ),
    )
}

#: The three-scenario subset `make fault-smoke` runs.
SMOKE_SCENARIOS = ("partition-minority", "crash-restart", "byz-clients-stall-early")


# ---------------------------------------------------------------------------
# Composition with the open-loop load subsystem
# ---------------------------------------------------------------------------
def overload_window_schedule(
    warmup: float, duration: float, drop_rate: float = 0.02
) -> FaultSchedule:
    """A link-chaos window sized for an open-loop run's measured portion.

    The load subsystem's generator takes any ``FaultSchedule`` via its
    ``injector`` argument; this helper builds the common composition —
    overload *plus* a degraded network — so capacity experiments can ask
    what admission control does when packet loss is also eating goodput.
    """
    start = warmup + 0.1 * duration
    end = warmup + 0.7 * duration
    return FaultSchedule(
        name="overload-chaos",
        faults=(
            LinkFault(
                start=start,
                end=end,
                drop_rate=drop_rate,
                delay_jitter=200e-6,
                reorder_rate=0.05,
                reorder_spread=500e-6,
            ),
        ),
    ).validate()
