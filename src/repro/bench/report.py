"""Rendering experiment results the way the paper reports them.

Every row carries the fast-path rate (DESIGN.md §6.1's ≈96% number) and
the network's dropped-message count, so loss/adversary runs are visible
in the same tables; rows with Byzantine clients add the correct clients'
throughput, Fig 7's y-axis.
"""

from __future__ import annotations

from repro.bench.runner import BenchResult


def render_table(title: str, results: dict[str, BenchResult]) -> str:
    """A throughput/latency table, one row per series label."""
    lines = [f"--- {title} ---"]
    for result in results.values():
        line = f"  {result.row()}"
        if "correct_throughput" in result.extra:
            line += f"  correct {result.extra['correct_throughput']:.1f} tx/s"
        lines.append(line)
    return "\n".join(lines)


def throughput_ratio(results: dict[str, BenchResult], a: str, b: str) -> float:
    den = results[b].throughput
    return results[a].throughput / den if den else float("inf")


def latency_ratio(results: dict[str, BenchResult], a: str, b: str) -> float:
    den = results[b].mean_latency
    return results[a].mean_latency / den if den else float("inf")
