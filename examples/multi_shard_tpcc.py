#!/usr/bin/env python3
"""TPC-C across multiple Basil shards.

Loads a scaled-down TPC-C (4 warehouses) over 2 shards and runs the
standard transaction mix, printing per-transaction-type commit counts
and the cross-shard fast-path rate — demonstrating Basil's single
round-trip distributed commit without any per-shard ordering.

Run:  python examples/multi_shard_tpcc.py
"""

from repro import BasilSystem, SystemConfig
from repro.bench.runner import ExperimentRunner
from repro.workloads.tpcc import TPCCWorkload
from repro.workloads.tpcc.loader import MIX


def main() -> None:
    system = BasilSystem(SystemConfig(f=1, num_shards=2, batch_size=4))
    workload = TPCCWorkload(
        num_warehouses=4, customers_per_district=20, num_items=200
    )
    print(f"TPC-C, {workload.num_warehouses} warehouses, "
          f"{system.config.num_shards} shards x {system.config.n} replicas")

    runner = ExperimentRunner(
        system, workload, num_clients=16, duration=0.5, warmup=0.15,
        name="basil/tpcc-2shard",
    )
    result = runner.run()

    print()
    print(result.row())
    print("  per transaction type:")
    for kind, _ in MIX:
        committed = runner.monitor.counter("commits", txn=f"tpcc/{kind}").value
        print(f"    {kind:<24} {committed}")
    print(f"  new-order data is atomic across shards; fast-path rate "
          f"{result.fast_path_rate * 100:.1f}%")


if __name__ == "__main__":
    main()
