"""Wall-clock subsystem attribution: the core accounting engine.

A :class:`Profiler` attaches to one :class:`~repro.sim.loop.Simulator`
(``sim.attach_profiler(Profiler())``) and accumulates *exclusive*
wall-clock time per kernel subsystem.  Instrumented seams — event
dispatch, the task trampoline, ``Cpu.spend``, network send, crypto
charging/verification, ``VersionStore`` probes, the parallel envelope
path — bracket their work with :meth:`begin`/:meth:`end` (the kernel
directly, every other site through ``sim.instruments``); nested frames
subtract from their parent, so summing the table never double-counts
and the total is the wall time actually attributed.

Two properties:

* **Zero impact when absent.**  A simulator without a profiler has no
  frames to open: its sites find ``sim.instruments`` empty.  The
  profiler reads ``time.perf_counter`` and mutates plain Python floats
  — it never schedules events, draws RNG, or charges CPU, so attaching
  it cannot perturb a schedule either: profiled runs are byte-identical
  (run digest) to unprofiled runs, pinned by
  tests/prof/test_golden_digest.

* **Frames never span awaits.**  A frame opened inside a coroutine must
  close before the coroutine suspends, or the stack would interleave
  across tasks.  All shipped hooks bracket synchronous segments only.

:class:`Attribution` is what a profiled run keeps of it: the table, the
measured wall it is a share of, and (deep mode) the collapsed stacks —
the ``prof`` section of the run's ``RunReport``.

This module imports nothing from the rest of ``repro`` at import time,
so the sim kernel can depend on it without cycles.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Any, Callable, Iterable

#: Dispatch classification for callbacks the kernel schedules directly.
#: Anything else is attributed as ``dispatch.<qualname>`` so unexpected
#: hot callbacks surface by name instead of hiding in an "other" bucket.
_DISPATCH_CLASSES = {
    "Cpu._finish": "cpu.finish",
    "Network._deliver": "network.deliver",
    "Simulator._resolve_sleep": "timer.sleep",
}


def _classify_callback(fn: Callable[..., Any]) -> str:
    f = getattr(fn, "__func__", fn)
    qual = getattr(f, "__qualname__", None) or type(fn).__name__
    sub = _DISPATCH_CLASSES.get(qual)
    if sub is not None:
        return sub
    return "dispatch." + qual.replace(".<locals>", "")


class Profiler:
    """Exclusive wall-time accumulator over named subsystems.

    ``begin``/``end`` maintain a frame stack; a frame's *exclusive* time
    is its elapsed wall clock minus the elapsed time of frames nested
    inside it, so ``sum(table.wall_s)`` equals the wall time spanned by
    the outermost frames — the attribution table is a partition, not an
    inclusive-time soup.
    """

    __slots__ = ("_wall", "_calls", "_stack", "_classes")

    def __init__(self) -> None:
        self._wall: dict[str, float] = {}
        self._calls: dict[str, int] = {}
        #: Open frames: [subsystem, start, child_elapsed].
        self._stack: list[list] = []
        #: Callback function -> subsystem (classification cache).
        self._classes: dict[Any, str] = {}

    # -- frames ----------------------------------------------------------
    def begin(self, subsystem: str) -> None:
        self._stack.append([subsystem, perf_counter(), 0.0])

    def end(self) -> None:
        now = perf_counter()
        subsystem, start, child = self._stack.pop()
        elapsed = now - start
        self._wall[subsystem] = (
            self._wall.get(subsystem, 0.0) + elapsed - child
        )
        self._calls[subsystem] = self._calls.get(subsystem, 0) + 1
        if self._stack:
            self._stack[-1][2] += elapsed

    def add(self, subsystem: str, wall_s: float, calls: int = 1) -> None:
        """Direct accumulation (merging partial tables, external seams)."""
        self._wall[subsystem] = self._wall.get(subsystem, 0.0) + wall_s
        self._calls[subsystem] = self._calls.get(subsystem, 0) + calls

    # -- dispatch classification ----------------------------------------
    def classify(self, fn: Callable[..., Any]) -> str:
        """Subsystem label for a scheduled callback (cached per function)."""
        key = getattr(fn, "__func__", fn)
        try:
            return self._classes[key]
        except KeyError:
            sub = _classify_callback(fn)
            self._classes[key] = sub
            return sub
        except TypeError:  # unhashable callable: classify uncached
            return _classify_callback(fn)

    # -- output ----------------------------------------------------------
    def table(self) -> dict[str, dict[str, float]]:
        """subsystem -> {wall_s, calls}, sorted by descending wall time."""
        return {
            sub: {"wall_s": wall, "calls": self._calls.get(sub, 0)}
            for sub, wall in sorted(
                self._wall.items(), key=lambda kv: -kv[1]
            )
        }

    def total(self) -> float:
        return sum(self._wall.values())


# ---------------------------------------------------------------------------
# Table algebra (merging partitions/workers, summarizing)
# ---------------------------------------------------------------------------
def merge_tables(
    tables: Iterable[dict[str, dict[str, float]]],
) -> dict[str, dict[str, float]]:
    """Element-wise sum of attribution tables, re-sorted by wall time."""
    wall: dict[str, float] = {}
    calls: dict[str, int] = {}
    for table in tables:
        for sub, row in table.items():
            wall[sub] = wall.get(sub, 0.0) + float(row.get("wall_s", 0.0))
            calls[sub] = calls.get(sub, 0) + int(row.get("calls", 0))
    return {
        sub: {"wall_s": w, "calls": calls[sub]}
        for sub, w in sorted(wall.items(), key=lambda kv: -kv[1])
    }


def top_shares(
    table: dict[str, dict[str, float]], n: int = 3
) -> list[dict[str, float]]:
    """The ``n`` largest subsystems with their share of attributed time."""
    total = sum(row["wall_s"] for row in table.values()) or 1.0
    ranked = sorted(table.items(), key=lambda kv: -kv[1]["wall_s"])[:n]
    return [
        {
            "subsystem": sub,
            "wall_s": row["wall_s"],
            "share": row["wall_s"] / total,
            "calls": row["calls"],
        }
        for sub, row in ranked
    ]


def render_table(
    table: dict[str, dict[str, float]],
    wall_s: float | None = None,
    limit: int | None = None,
) -> str:
    """The ranked offender list as fixed-width text.

    ``wall_s`` (the run's measured wall clock) adds a share-of-run
    column and a coverage footer; without it shares are of the
    attributed total.
    """
    total = sum(row["wall_s"] for row in table.values())
    denom = wall_s if wall_s else total or 1.0
    lines = [f"{'subsystem':<34} {'wall':>10}  {'share':>6}  {'calls':>12}"]
    rows = list(table.items())
    if limit is not None:
        rows = rows[:limit]
    for sub, row in rows:
        lines.append(
            f"{sub:<34} {row['wall_s']:>9.3f}s  "
            f"{row['wall_s'] / denom:>6.1%}  {int(row['calls']):>12,}"
        )
    if limit is not None and len(table) > limit:
        rest = sum(row["wall_s"] for _, row in list(table.items())[limit:])
        lines.append(f"{'(+%d more)' % (len(table) - limit):<34} {rest:>9.3f}s")
    if wall_s:
        lines.append(
            f"{'attributed':<34} {total:>9.3f}s  {total / denom:>6.1%}"
            f"  of measured wall {wall_s:.3f}s"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# A profiled run's section of its RunReport
# ---------------------------------------------------------------------------
@dataclass
class Attribution:
    """Where one profiled run's wall clock went: the ``prof`` section of
    its :class:`~repro.obs.report.RunReport`.

    ``subsystems`` is the merged attribution table, ``wall_s`` the
    measured wall of the run's simulation and summary, ``workers`` the
    processes that accrued it at once, and ``collapsed`` the deep
    profiler's merged stacks (None unless deep mode ran).
    """

    subsystems: dict[str, dict[str, float]]
    wall_s: float
    events: int
    workers: int = 1
    collapsed: dict[str, float] | None = None

    @property
    def coverage(self) -> float:
        """Attributed wall over measured wall x workers: in [0, ~1]."""
        budget = self.wall_s * max(1, self.workers)
        attributed = sum(row["wall_s"] for row in self.subsystems.values())
        return attributed / budget if budget > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        # coverage is derived; it is written for readers of the JSON alone.
        return {**asdict(self), "coverage": self.coverage}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Attribution":
        return cls(
            subsystems=data["subsystems"],
            wall_s=float(data["wall_s"]),
            events=int(data["events"]),
            workers=int(data["workers"]),
            collapsed=data["collapsed"],
        )

    def render(self, limit: int = 16, hot: int = 12) -> str:
        """The attribution table, then (deep mode) the hottest functions."""
        text = render_table(
            self.subsystems, wall_s=self.wall_s * max(1, self.workers), limit=limit
        )
        if not self.collapsed:
            return text
        from repro.prof.deep import render_top, top_functions

        return (f"{text}\n\nhot functions (deep mode, self time):\n"
                f"{render_top(top_functions(self.collapsed, hot))}")
