"""Rendering experiment results the way the paper reports them.

Every row carries the fast-path rate (DESIGN.md §6.1's ≈96% number) and
the network's dropped-message count, so loss/adversary runs are visible
in the same tables.
"""

from __future__ import annotations

from repro.bench.runner import BenchResult


def render_table(title: str, results: dict[str, BenchResult]) -> str:
    """A throughput/latency table, one row per series label."""
    lines = [f"--- {title} ---"]
    for label, result in results.items():
        lines.append(f"  {result.row()}")
    return "\n".join(lines)


def render_ratio(
    title: str, results: dict[str, BenchResult], numerator: str, denominator: str
) -> str:
    num = results[numerator].throughput
    den = results[denominator].throughput
    ratio = num / den if den else float("inf")
    return f"  {title}: {numerator}/{denominator} = {ratio:.2f}x"


def throughput_ratio(results: dict[str, BenchResult], a: str, b: str) -> float:
    den = results[b].throughput
    return results[a].throughput / den if den else float("inf")


def latency_ratio(results: dict[str, BenchResult], a: str, b: str) -> float:
    den = results[b].mean_latency
    return results[a].mean_latency / den if den else float("inf")


def render_series(
    title: str, series: dict[float, BenchResult], metric: str = "correct_throughput"
) -> str:
    """A sweep series (Fig 7 style): x -> metric."""
    lines = [f"--- {title} ---"]
    for x, result in series.items():
        value = result.extra.get(metric, result.throughput)
        lines.append(f"  x={x:>6}: {value:10.1f}  ({result.row()})")
    return "\n".join(lines)
