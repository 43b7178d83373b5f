"""The merged profile artifact: one JSON document per profiled run.

A :class:`ProfileReport` combines, for one bench target:

* the run's measured headline numbers (wall_s, events, events/s, digest,
  workers) straight from the :class:`~repro.parallel.runtime.ParallelResult`;
* the merged subsystem attribution table (per-partition tables plus
  worker-level exchange seams, summed);
* coverage — attributed wall over measured wall (x workers: each worker
  accrues wall in parallel), the acceptance number the prof CLI checks;
* optionally the merged collapsed stacks and top-N hot functions of a
  deep run.

Schema ``repro.prof.run/v1``; ``python -m repro run --prof`` writes one
as ``PROF_<run name>.json``, and ``load_profile(path).render()``
re-renders it without re-running anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.prof.deep import render_top, top_functions
from repro.prof.profiler import render_table, top_shares

SCHEMA = "repro.prof.run/v1"


@dataclass
class ProfileReport:
    """Everything a profiled run produced, in jsonable form."""

    name: str
    workers: int
    wall_s: float
    events: int
    events_per_s: float
    sim_seconds: float
    digest: str
    #: Merged attribution: subsystem -> {wall_s, calls}.
    subsystems: dict[str, dict[str, float]]
    #: Attributed wall / (measured wall x workers) in [0, ~1].
    coverage: float
    #: Per-partition attribution tables (partition id, stringified for
    #: JSON round-tripping) — the unmerged inputs, kept for drill-down.
    per_partition: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Merged collapsed stacks (deep mode only).
    collapsed: dict[str, float] | None = None
    schema: str = SCHEMA

    # -- derived ---------------------------------------------------------
    def top(self, n: int = 3) -> list[dict[str, float]]:
        return top_shares(self.subsystems, n)

    def hot_functions(self, n: int = 20) -> list[dict[str, float]]:
        if not self.collapsed:
            return []
        return top_functions(self.collapsed, n)

    def render(self, limit: int = 16, hot: int = 12) -> str:
        lines = [
            f"profile: {self.name}  (workers={self.workers})",
            f"wall {self.wall_s:.3f}s — {self.events:,} events — "
            f"{self.events_per_s:,.0f} events/s — digest {self.digest[:12]}",
            "",
            render_table(
                self.subsystems,
                wall_s=self.wall_s * max(1, self.workers),
                limit=limit,
            ),
        ]
        if self.collapsed:
            lines += ["", "hot functions (deep mode, self time):",
                      render_top(self.hot_functions(hot))]
        return "\n".join(lines)

    # -- (de)serialization ----------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "name": self.name,
            "workers": self.workers,
            "wall_s": self.wall_s,
            "events": self.events,
            "events_per_s": self.events_per_s,
            "sim_seconds": self.sim_seconds,
            "digest": self.digest,
            "coverage": self.coverage,
            "subsystems": self.subsystems,
            "top": self.top(3),
            "per_partition": self.per_partition,
            "collapsed": self.collapsed,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ProfileReport":
        if data.get("schema") != SCHEMA:
            raise ValueError(
                f"not a {SCHEMA} document (schema={data.get('schema')!r})"
            )
        return cls(
            name=data["name"],
            workers=int(data["workers"]),
            wall_s=float(data["wall_s"]),
            events=int(data["events"]),
            events_per_s=float(data["events_per_s"]),
            sim_seconds=float(data.get("sim_seconds", 0.0)),
            digest=data.get("digest", ""),
            subsystems=data["subsystems"],
            coverage=float(data["coverage"]),
            per_partition=data.get("per_partition", {}),
            collapsed=data.get("collapsed"),
        )


def write_profile(path: str, report: ProfileReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_profile(path: str) -> ProfileReport:
    with open(path, "r", encoding="utf-8") as fh:
        return ProfileReport.from_dict(json.load(fh))
