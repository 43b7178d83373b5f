"""Declarative fault specifications.

A :class:`FaultSchedule` is plain, JSON-serializable data describing
*what goes wrong and when* in one simulated run: network partitions
(healing or permanent), per-link message drop/delay/duplicate/reorder,
replica crash/restart with state retention, and activation of the
Byzantine client/replica behaviours from :mod:`repro.byzantine`.

Schedules are interpreted by :class:`repro.faults.injector.FaultInjector`.
Everything here is deterministic given a seed: probabilistic faults draw
exclusively from the simulator's dedicated ``"faults"`` RNG stream, so a
(config, seed, schedule) triple identifies a run exactly — which is what
makes failure bundles replayable.

Node selectors are :mod:`fnmatch`-style patterns over node names
(``"s0/r1"``, ``"s*/r0"``, ``"client/*"``, ``"*"``), matched
case-sensitively.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from fnmatch import fnmatchcase
from typing import Union

from repro.byzantine.clients import BEHAVIOURS as CLIENT_BEHAVIOURS
from repro.byzantine.replicas import REPLICA_BEHAVIOURS


class FaultSpecError(ValueError):
    """A fault schedule that cannot be interpreted."""


def _check_window(kind: str, start: float, end: float | None) -> None:
    if start < 0:
        raise FaultSpecError(f"{kind}: start must be >= 0, got {start}")
    if end is not None and end <= start:
        raise FaultSpecError(f"{kind}: end {end} must be > start {start}")


def _check_rate(kind: str, name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise FaultSpecError(f"{kind}: {name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class LinkFault:
    """Degrade messages whose (src, dst) match the patterns.

    All effects apply only while the fault is active (``start <= now``
    and, unless permanent, ``now < end``).  ``reorder_rate`` delays a
    matching message by up to ``reorder_spread`` extra seconds — the
    simulator's way of reordering, since delivery order is delay order.
    Duplicates are delivered once more after an extra in-[0,
    ``reorder_spread``) offset.
    """

    kind: str = field(default="link", init=False)
    src: str = "*"
    dst: str = "*"
    start: float = 0.0
    end: float | None = None
    drop_rate: float = 0.0
    extra_delay: float = 0.0
    delay_jitter: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_spread: float = 0.002

    def validate(self) -> None:
        _check_window("link", self.start, self.end)
        for name in ("drop_rate", "duplicate_rate", "reorder_rate"):
            _check_rate("link", name, getattr(self, name))
        for name in ("extra_delay", "delay_jitter", "reorder_spread"):
            if getattr(self, name) < 0:
                raise FaultSpecError(f"link: {name} must be >= 0")

    def active(self, now: float) -> bool:
        return now >= self.start and (self.end is None or now < self.end)

    def matches(self, src: str, dst: str) -> bool:
        return fnmatchcase(src, self.src) and fnmatchcase(dst, self.dst)


@dataclass(frozen=True)
class PartitionFault:
    """Drop every message crossing between two (or more) groups.

    Each group is a tuple of node patterns.  A node matching no group is
    unrestricted (it talks to everyone) — so "isolate s0/r0" is simply
    ``groups=(("s0/r0",), ("*",))``.  A node matching several groups
    belongs to the first.  ``end=None`` makes the partition permanent.
    """

    kind: str = field(default="partition", init=False)
    groups: tuple[tuple[str, ...], ...] = ()
    start: float = 0.0
    end: float | None = None

    def validate(self) -> None:
        _check_window("partition", self.start, self.end)
        if len(self.groups) < 2:
            raise FaultSpecError("partition: needs at least two groups")

    def active(self, now: float) -> bool:
        return now >= self.start and (self.end is None or now < self.end)

    def _group_of(self, node: str) -> int | None:
        for index, patterns in enumerate(self.groups):
            if any(fnmatchcase(node, pattern) for pattern in patterns):
                return index
        return None

    def separates(self, src: str, dst: str) -> bool:
        src_group = self._group_of(src)
        if src_group is None:
            return False
        dst_group = self._group_of(dst)
        return dst_group is not None and src_group != dst_group


@dataclass(frozen=True)
class CrashFault:
    """Fail-stop a replica at ``at``; optionally restart it later.

    ``node`` is a pattern resolved against the system's replicas when the
    injector attaches (so ``"s*/r1"`` crashes replica 1 of every shard).
    Restarted replicas retain durable state (store, decided transactions,
    cast votes) but lose volatile state — see ``BasilReplica.on_restart``.
    """

    kind: str = field(default="crash", init=False)
    node: str = ""
    at: float = 0.0
    restart_at: float | None = None

    def validate(self) -> None:
        if not self.node:
            raise FaultSpecError("crash: node pattern is required")
        _check_window("crash", self.at, self.restart_at)


@dataclass(frozen=True)
class ByzantineReplicaFault:
    """Swap matching replicas for a Byzantine variant before traffic.

    ``behaviour`` keys :data:`repro.byzantine.replicas.REPLICA_BEHAVIOURS`.
    """

    kind: str = field(default="byz-replica", init=False)
    node: str = ""
    behaviour: str = "silent"

    def validate(self) -> None:
        if not self.node:
            raise FaultSpecError("byz-replica: node pattern is required")
        if self.behaviour not in REPLICA_BEHAVIOURS:
            raise FaultSpecError(
                f"byz-replica: unknown behaviour {self.behaviour!r} "
                f"(known: {sorted(REPLICA_BEHAVIOURS)})"
            )


@dataclass(frozen=True)
class ByzantineClientFault:
    """Include ``count`` Byzantine clients of the given behaviour.

    Interpreted by the run pipeline when it builds the client mix
    (``ModelSpec.client_factories``), so every consumer of a schedule
    gets them, not only the campaign; Basil systems only.  ``behaviour``
    keys the paper's Sec 6.4 client strategies in
    :data:`repro.byzantine.clients.BEHAVIOURS`.
    """

    kind: str = field(default="byz-client", init=False)
    behaviour: str = "stall-late"
    count: int = 1
    faulty_fraction: float = 1.0

    def validate(self) -> None:
        if self.behaviour not in CLIENT_BEHAVIOURS:
            raise FaultSpecError(
                f"byz-client: unknown behaviour {self.behaviour!r} "
                f"(known: {sorted(CLIENT_BEHAVIOURS)})"
            )
        if self.count < 1:
            raise FaultSpecError("byz-client: count must be >= 1")
        _check_rate("byz-client", "faulty_fraction", self.faulty_fraction)


Fault = Union[LinkFault, PartitionFault, CrashFault, ByzantineReplicaFault, ByzantineClientFault]

_FAULT_KINDS: dict[str, type] = {
    "link": LinkFault,
    "partition": PartitionFault,
    "crash": CrashFault,
    "byz-replica": ByzantineReplicaFault,
    "byz-client": ByzantineClientFault,
}


@dataclass(frozen=True)
class FaultSchedule:
    """A named, ordered collection of faults for one run."""

    name: str = ""
    faults: tuple[Fault, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.faults)

    def validate(self) -> "FaultSchedule":
        for fault in self.faults:
            fault.validate()
        return self

    # -- selectors used by the injector/campaign ------------------------
    def of_kind(self, kind: str) -> tuple[Fault, ...]:
        return tuple(f for f in self.faults if f.kind == kind)

    @property
    def links(self) -> tuple[LinkFault, ...]:
        return self.of_kind("link")  # type: ignore[return-value]

    @property
    def partitions(self) -> tuple[PartitionFault, ...]:
        return self.of_kind("partition")  # type: ignore[return-value]

    @property
    def crashes(self) -> tuple[CrashFault, ...]:
        return self.of_kind("crash")  # type: ignore[return-value]

    @property
    def byz_replicas(self) -> tuple[ByzantineReplicaFault, ...]:
        return self.of_kind("byz-replica")  # type: ignore[return-value]

    @property
    def byz_clients(self) -> tuple[ByzantineClientFault, ...]:
        return self.of_kind("byz-client")  # type: ignore[return-value]

    # -- serialization (repro bundles) ----------------------------------
    def to_dict(self) -> dict:
        return {"name": self.name, "faults": [asdict(f) for f in self.faults]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        if not isinstance(data, dict):
            raise FaultSpecError("schedule must be a JSON object")
        faults = []
        for entry in data.get("faults", ()):
            entry = dict(entry)
            kind = entry.pop("kind", None)
            fault_cls = _FAULT_KINDS.get(kind)
            if fault_cls is None:
                raise FaultSpecError(f"unknown fault kind {kind!r}")
            fields = dict(entry)
            # JSON arrays come back as lists; partition groups are tuples.
            if fault_cls is PartitionFault:
                fields["groups"] = tuple(tuple(g) for g in fields.get("groups", ()))
            try:
                fault = fault_cls(**fields)
            except TypeError as err:
                raise FaultSpecError(f"bad {kind} fault: {err}") from err
            faults.append(fault)
        return cls(name=data.get("name", ""), faults=tuple(faults)).validate()

    @classmethod
    def from_json(cls, payload: str) -> "FaultSchedule":
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as err:
            raise FaultSpecError(f"schedule is not valid JSON: {err}") from err
        return cls.from_dict(data)
