#!/usr/bin/env python3
"""Retwis on Basil: the paper's social-network workload, end to end.

Runs the Retwis transaction mix (posts, follows, timelines) against a
Basil deployment through the benchmark harness and prints the same
metrics the paper's Figure 4 reports.

Run:  python examples/social_network.py
"""

from repro import BasilSystem, SystemConfig
from repro.bench.runner import ExperimentRunner
from repro.workloads.retwis import MIX, RetwisWorkload


def main() -> None:
    system = BasilSystem(SystemConfig(f=1, num_shards=1, batch_size=16))
    workload = RetwisWorkload(num_users=5_000)
    print("running the Retwis mix (5% add_user, 15% follow, 30% post, "
          "50% timeline) with 20 closed-loop clients...")

    runner = ExperimentRunner(
        system, workload, num_clients=20, duration=0.5, warmup=0.15,
        name="basil/retwis",
    )
    result = runner.run()

    print()
    print(result.row())
    print(f"  committed: {result.commits}, aborted attempts: {result.aborts}")
    print("  per transaction type:")
    for kind, _ in MIX:
        committed = runner.monitor.counter("commits", txn=f"retwis/{kind}").value
        print(f"    {kind:<24} {committed}")
    print(f"  fast-path rate: {result.fast_path_rate * 100:.1f}% "
          "(paper: ~99% for Retwis-class workloads)")


if __name__ == "__main__":
    main()
