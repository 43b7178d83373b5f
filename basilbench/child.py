"""One run of one workload in this (fresh) process; prints one JSON record.

Invoked by the parent as ``python -m basilbench.child '<json request>'``
with the checkout as working directory.  The record carries everything
the parent pools into metrics: host seconds of set-up and of the
simulation phase, the exact event count, the simulated outcome
(commits, window, latency grid), the facts the per-layer table is built
from, and ``problems`` — the correctness gates this run failed.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from time import perf_counter
from typing import Any

from basilbench import ROOT, workloads
from repro.parallel.models import SequentialRun
from repro.parallel.runtime import ParallelRunner
from repro.sim.monitor import Histogram
from repro.verify.history import HistoryChecker

#: Fault-free simulated seconds run after the measured phase so in-flight
#: writebacks and recoveries settle before the serializability oracle.
DRAIN_S = 0.2


def runner_facts(runner: Any) -> dict[str, Any]:
    """Simulated outcome of a closed-loop ExperimentRunner, as plain data.

    ``attempted`` counts the correct clients' transactions that reached
    an outcome inside the window; ``failed`` are those that gave up after
    the retry limit or died with a protocol error.  Latencies (first
    invocation to commit, spanning retries) come from the runner's own
    ``commit_latency`` histogram.
    """
    monitor = runner.monitor
    commits = monitor.counter("commits", tag="correct").value
    failed = (
        monitor.counter("gave_up").value + monitor.counter("protocol_errors").value
    )
    clients = runner.system.clients
    return {
        "commits": commits,
        "attempted": commits + failed,
        "failed": failed,
        "window_s": runner.duration,
        "latencies_ms": workloads.latency_grid(monitor.histogram("commit_latency")),
        "recoveries_started": sum(c.recoveries_started for c in clients),
        "recoveries_finished": sum(c.recoveries_finished for c in clients),
        "fallbacks_invoked": sum(c.fallbacks_invoked for c in clients),
        "faulty_txns": sum(getattr(c, "faulty_txns", 0) for c in clients),
    }


def geo_facts(runner: Any, bench: dict[str, Any]) -> dict[str, Any]:
    """Simulated outcome of a GeoRunner: end-user session operations."""
    geo = bench["extra"]["geo"]
    regions = geo["regions"].values()
    latencies = Histogram("geo-ops")
    for stats in runner.stats.values():
        for sample in stats.reads:
            latencies.record(sample)
        for sample in stats.writes:
            latencies.record(sample)
    read_failures = sum(row["read_failures"] for row in regions)
    failed = geo["failures"] + read_failures
    hits = sum(row["lease_hits"] for row in regions)
    looked = hits + sum(row["lease_misses"] for row in regions)
    return {
        "commits": latencies.count,
        "attempted": latencies.count + failed,
        "failed": failed,
        "window_s": runner.duration,
        "latencies_ms": workloads.latency_grid(latencies),
        "geo_lease_hit_ratio": hits / looked if looked else 0.0,
        "geo_read_p50_ms": geo["read_p50"] * 1e3,
        "geo_write_p50_ms": geo["write_p50"] * 1e3,
        "geo_writebacks": sum(row["writebacks"] for row in regions),
        "geo_read_failures": read_failures,
    }


def system_facts(system: Any) -> dict[str, Any]:
    """End-of-run state summed over the whole (sequential) deployment."""
    stores = [replica.store.stats() for replica in system.replicas.values()]
    engines = [node.crypto for node in (*system.replicas.values(), *system.clients)]
    return {
        "committed_versions": sum(s["committed_versions"] for s in stores),
        "read_index_entries": sum(s["read_index_entries"] for s in stores),
        "signatures_verified": sum(e.signatures_verified for e in engines),
        "verify_memo_hits": sum(e.verify_memo_hits for e in engines),
    }


def bench_facts(bench: dict[str, Any]) -> dict[str, Any]:
    """The runner's bench row, reduced to what the per-layer table uses."""
    extra = bench.get("extra") or {}
    return {
        "all_commits": bench["commits"],
        "aborts": bench["aborts"],
        "commit_rate": bench["commit_rate"],
        "fast_path_rate": bench["fast_path_rate"],
        "abort_taxonomy": extra.get("abort_taxonomy") or {},
        "correct_tps_per_client": extra.get("correct_tps_per_client", 0.0),
    }


def run_sequential(spec: Any) -> dict[str, Any]:
    t0 = perf_counter()
    seq = SequentialRun(spec)
    seq.start()
    t1 = perf_counter()
    seq.sim.run(until=spec.end_time())
    t2 = perf_counter()
    result = seq.run_prepared()  # time is already at the end: finalize only

    runner, system = seq.runner, seq.system
    problems: list[str] = []
    if spec.geo is not None:
        facts = geo_facts(runner, result.bench)
        if facts["geo_read_failures"]:
            problems.append(f"geo: {facts['geo_read_failures']} read failures")
    else:
        facts = runner_facts(runner)
        seq.sim.run(until=spec.end_time() + DRAIN_S)
        violations = HistoryChecker(system).check()
        if violations:
            problems.append(f"history: {len(violations)} violations, first "
                            f"{violations[0]}")
    facts.update(bench_facts(result.bench))
    facts.update(system_facts(system))
    facts["messages_delivered"] = result.messages_delivered
    facts["messages_dropped"] = result.messages_dropped
    return {
        "setup_s": t1 - t0,
        "wall_s": t2 - t1,
        "events": result.events,
        "digest": result.digest,
        "problems": problems,
        "prof": (result.extra or {}).get("prof", {}),
        "facts": facts,
    }


def run_partitioned(spec: Any, workers: int) -> dict[str, Any]:
    """``workers >= 2`` through ParallelRunner (fork, windows, merge).

    The coordinator never sees the client partition's runner, so its
    ``finalize`` is wrapped (before the fork) to carry the outcome home
    in the bench row's ``extra``.
    """
    from repro.bench.runner import ExperimentRunner
    from repro.prof.runners import merge_result

    finalize = ExperimentRunner.finalize

    def finalize_with_facts(self: Any) -> Any:
        bench = finalize(self)
        bench.extra["basilbench"] = runner_facts(self)
        return bench

    ExperimentRunner.finalize = finalize_with_facts
    t0 = perf_counter()
    result = ParallelRunner(spec, workers=workers).run()
    total = perf_counter() - t0

    facts = result.bench["extra"].pop("basilbench")
    facts.update(bench_facts(result.bench))
    parts = result.per_partition.values()
    facts["messages_delivered"] = sum(p["messages_delivered"] for p in parts)
    facts["messages_dropped"] = sum(p["messages_dropped"] for p in parts)
    facts["workers"] = result.workers
    facts["windows"] = result.windows
    facts["cross_messages"] = result.cross_messages
    return {
        # Fork, build and genesis load up to the WorkerReady barrier (and
        # the join after the last result) are set-up, not simulation.
        "setup_s": total - result.wall_s,
        "wall_s": result.wall_s,
        "events": result.events,
        "digest": result.digest,
        "problems": [],
        "prof": merge_result(spec.label, result).subsystems if spec.prof else {},
        "facts": facts,
    }


def run(request: dict[str, Any]) -> dict[str, Any]:
    # Set-up as a user pays it: interpreter start and imports included.
    boot_s = time.time() - request["spawned_at"]
    name, seed, scale = request["workload"], request["seed"], request["scale"]
    traced = request["traced"]
    if name == workloads.KERNEL_MIX:
        record = workloads.run_kernel_mix(seed, scale, traced)
    else:
        if traced:
            from basilbench import spans

            spans.install()
        spec, workers = workloads.protocol_spec(
            name, seed, scale, traced, workers=request.get("workers")
        )
        if workers == 1:
            record = run_sequential(spec)
        else:
            record = run_partitioned(spec, workers)
        if traced:
            with open(ROOT / request["spans_path"], "w", encoding="utf-8") as fh:
                json.dump({"workload": name, "seed": seed,
                           "columns": ["name", "start", "end", "parent"],
                           "spans": spans.SPANS}, fh)
    record["setup_s"] += boot_s
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Partitioned runs: plus the largest (already joined) worker.
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record["peak_rss_mb"] = usage / 1024.0
    return record


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
