"""Parent side: spawn fresh child runs, pool them into metrics, gate them.

One *run* is one child process executing one workload once
(``basilbench.child``).  In-process carry-over between runs was measured
at 25-40% of wall time, so nothing is ever measured twice in one process.
A *timed set* is ``REPEATS`` runs with consecutive sub-seeds; wall-clock
metrics are medians over the set, simulated metrics pool the set's
samples (one run holds too few commits for a tail percentile).  The
*traced pass* re-runs sub-seed 0 with the attribution profiler, tracer
and benchmark-side spans on, next to an untraced twin of the same
sub-seed: equal outcomes show that instrumentation moves nothing, and
the wall ratio of the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any

from basilbench import ROOT

#: Runs per timed set.
REPEATS = 5
#: A run that takes longer than this is killed (with its workers).
CHILD_TIMEOUT_S = 150
#: The partitioned workload, whose traced pass also runs a w1 twin.
W2 = "basil-ycsb-sig-w2"

OUT_DIR = "basilbench/out"


def load_benchmark() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def sub_seed(seed: int, repeat: int) -> int:
    return seed * 100 + repeat


def run_child(workload: str, seed: int, scale: float, traced: bool = False,
              **extra: Any) -> dict[str, Any]:
    """Run one workload once in a fresh process and return its record."""
    request = {"workload": workload, "seed": seed, "scale": scale,
               "traced": traced, "spawned_at": time.time(), **extra}
    # Own session: a timeout must also reach the workers a partitioned
    # run forks, which would otherwise outlive their killed parent.
    proc = subprocess.Popen(
        [sys.executable, "-m", "basilbench.child", json.dumps(request)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload}: run exceeded {CHILD_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with {proc.returncode}")
    record = json.loads(stdout.splitlines()[-1])
    record["seed"] = seed
    return record


# ---------------------------------------------------------------------------
# End-to-end metrics of a timed set
# ---------------------------------------------------------------------------
def end_to_end(records: list[dict[str, Any]]) -> dict[str, float]:
    """The eight end-to-end metrics of one timed set."""
    facts = [r["facts"] for r in records]
    latencies = [x for f in facts for x in f["latencies_ms"]]
    if len(latencies) < 2:
        raise RuntimeError("fewer than two operations completed inside the "
                           "measured window")
    # 19 cut points, linearly interpolated: [9] is the median, [18] p95.
    ventiles = statistics.quantiles(latencies, n=20, method="inclusive")
    attempted = sum(f["attempted"] for f in facts)
    return {
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "events_per_s": statistics.median(r["events"] / r["wall_s"] for r in records),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "sim_tput_tps": sum(f["commits"] for f in facts)
        / sum(f["window_s"] for f in facts),
        "sim_lat_p50_ms": ventiles[9],
        "sim_lat_p95_ms": ventiles[18],
        "ok_share": 1.0 - sum(f["failed"] for f in facts) / attempted,
    }


def outcome(record: dict[str, Any]) -> dict[str, Any]:
    """What a run simulated, exact for its seed: the determinism currency."""
    facts = record["facts"]
    return {
        "events": record["events"],
        "commits": facts["commits"],
        "attempted": facts["attempted"],
        "failed": facts["failed"],
        "latencies_ms": facts["latencies_ms"],
    }


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced pass
# ---------------------------------------------------------------------------
def per_layer(plain: dict[str, Any], traced: dict[str, Any],
              w1_twin: dict[str, Any] | None = None) -> dict[str, float]:
    """The per-layer table from a traced run and its untraced twin.

    Times are exclusive self-times from the traced run's attribution
    table; counts are exact for the seed.  What a workload does not
    exercise reads 0.
    """
    table, facts = traced["prof"], traced["facts"]

    def wall(*rows: str) -> float:
        return sum(table.get(row, {}).get("wall_s", 0.0) for row in rows)

    def calls(*rows: str) -> int:
        return sum(int(table.get(row, {}).get("calls", 0)) for row in rows)

    def fact(name: str) -> float:
        return facts.get(name, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    commits = fact("all_commits")
    phases = plain["facts"].get("phases", {})
    taxonomy = fact("abort_taxonomy") or {}
    workers = fact("workers") or 1
    # Frames opened during set-up or after the simulation phase.
    outside = ("workloads.genesis", "runner.finalize", "report.digest")
    attributed = sum(row["wall_s"] for name, row in table.items()
                     if name not in outside)
    metrics = {
        "sim.events": traced["events"],
        "sim.loop_s": wall("kernel.loop"),
        "sim.heap_push_s": wall("kernel.heap_push"),
        "sim.heap_push_calls": calls("kernel.heap_push"),
        "sim.task_step_s": wall("task.step"),
        "sim.task_step_calls": calls("task.step"),
        "sim.cpu_s": wall("cpu.spend", "cpu.finish"),
        "sim.cpu_calls": calls("cpu.spend"),
        "sim.net_send_s": wall("network.send"),
        "sim.net_deliver_s": wall("network.deliver",
                                  "dispatch.Network.deliver_remote"),
        "sim.messages_delivered": fact("messages_delivered"),
        "sim.messages_dropped": fact("messages_dropped"),
        "crypto.sign_s": wall("crypto.sign"),
        "crypto.sign_calls": calls("crypto.sign"),
        "crypto.verify_s": wall("crypto.verify"),
        "crypto.verify_calls": calls("crypto.verify"),
        "crypto.charge_s": wall("crypto.charge", "crypto.hash"),
        "crypto.charge_calls": calls("crypto.charge", "crypto.hash"),
        "crypto.digest_s": wall("crypto.digest"),
        "crypto.digest_calls": calls("crypto.digest"),
        "crypto.verify_memo_hit_ratio": ratio(
            fact("verify_memo_hits"), fact("signatures_verified")),
        "storage.probe_s": wall("store.probe"),
        "storage.probe_calls": calls("store.probe"),
        "storage.committed_versions": fact("committed_versions"),
        "storage.read_index_entries": fact("read_index_entries"),
        "core.mvtso_check_s": wall("core.mvtso_check"),
        "core.mvtso_check_calls": calls("core.mvtso_check"),
        "core.cert_validate_calls": calls("core.cert_validate"),
        "core.attestation_verify_calls": calls("core.attestation_verify"),
        "core.commits": commits,
        "core.aborts": fact("aborts"),
        "core.commit_rate": fact("commit_rate"),
        "core.fast_path_rate": fact("fast_path_rate"),
        "core.abort_stale_read": taxonomy.get("stale-read", 0),
        "core.abort_prepare_conflict": taxonomy.get("prepare-conflict", 0),
        "core.abort_dep": taxonomy.get("dep-abort", 0),
        "core.recoveries_started": fact("recoveries_started"),
        "core.recoveries_finished": fact("recoveries_finished"),
        "core.fallbacks_invoked": fact("fallbacks_invoked"),
        "core.msgs_per_commit": ratio(fact("messages_delivered"), commits),
        "core.events_per_commit": ratio(traced["events"], commits),
        "core.wall_us_per_commit": ratio(plain["wall_s"] * 1e6, commits),
        "core.failed_share": ratio(fact("failed"), fact("attempted")),
        "byzantine.faulty_txns": fact("faulty_txns"),
        "byzantine.correct_tps_per_client": fact("correct_tps_per_client"),
        "workloads.genesis_s": wall("workloads.genesis"),
        "workloads.next_txn_s": wall("workloads.next_txn"),
        "workloads.next_txn_calls": calls("workloads.next_txn"),
        "bench.finalize_s": wall("runner.finalize"),
        "parallel.windows": fact("windows"),
        "parallel.cross_messages": fact("cross_messages"),
        "parallel.events_per_window": ratio(traced["events"], fact("windows")),
        "parallel.exchange_wait_s": wall("exchange.wait"),
        "parallel.exchange_pipe_s": wall("exchange.pipe"),
        "parallel.exchange_envelope_s": wall("exchange.envelope"),
        "parallel.wait_share": ratio(wall("exchange.wait"),
                                     traced["wall_s"] * workers),
        "parallel.speedup_vs_w1": ratio(w1_twin["wall_s"], plain["wall_s"])
        if w1_twin else 0.0,
        "geo.lease_hit_ratio": fact("geo_lease_hit_ratio"),
        "geo.read_p50_ms": fact("geo_read_p50_ms"),
        "geo.write_p50_ms": fact("geo_write_p50_ms"),
        "geo.writebacks": fact("geo_writebacks"),
        "geo.read_failures": fact("geo_read_failures"),
        "prof.coverage": ratio(attributed, traced["wall_s"] * workers),
        "prof.overhead_ratio": ratio(traced["wall_s"], plain["wall_s"]),
    }
    for phase in ("timers", "tasks", "queue"):
        row = phases.get(phase)
        metrics[f"sim.{phase}_events_per_s"] = (
            ratio(row["events"], row["wall_s"]) if row else 0.0)
    return metrics


def traced_pass(workload: str, seed: int, scale: float,
                plain: dict[str, Any] | None = None) -> dict[str, Any]:
    """Run the traced pass of ``workload`` (and the twins it needs).

    ``plain`` is an untraced run of sub-seed 0 if the caller already has
    one.  Returns the per-layer metrics, the trace digest, the gate
    problems (a traced outcome that differs from the untraced one) and
    the untraced run.
    """
    first = sub_seed(seed, 0)
    if plain is None:
        plain = run_child(workload, first, scale)
    os.makedirs(ROOT / OUT_DIR, exist_ok=True)
    traced = run_child(workload, first, scale, traced=True,
                       spans_path=f"{OUT_DIR}/trace-{workload}.json")
    w1_twin = run_child(workload, first, scale, workers=1) if workload == W2 else None
    problems = list(plain["problems"]) + list(traced["problems"])
    if outcome(traced) != outcome(plain):
        problems.append("instrumentation moved the simulated outcome")
    return {
        "per_layer": per_layer(plain, traced, w1_twin),
        "digest": traced["digest"],
        "problems": problems,
        "plain": plain,
    }


def with_units(values: dict[str, float], declared: list[dict[str, Any]],
               ) -> dict[str, dict[str, Any]]:
    """``{name: {value, unit}}`` for exactly the declared metrics."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in declared})
    if missing or extra:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: "
                           f"missing {missing}, undeclared {extra}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def driver_main(argv: list[str]) -> int:
    """The contract CLI: one workload, one seed, timed set or traced pass."""
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(prog="basilbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    scale = args.seconds / benchmark["run_seconds"]

    if args.trace:
        result = traced_pass(args.workload, args.seed, scale)
        records, problems = [result["plain"]], result["problems"]
        metrics = with_units(result["per_layer"], benchmark["per_layer"])
        print(f"trace digest {result['digest'] or '-'}")
    else:
        records = [run_child(args.workload, sub_seed(args.seed, r), scale)
                   for r in range(REPEATS)]
        problems = [p for r in records for p in r["problems"]]
        metrics = with_units(end_to_end(records), benchmark["end_to_end"])
    for problem in problems:
        print(f"GATE FAILED {args.workload}: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["facts"]["attempted"] for r in records),
        "failed": sum(r["facts"]["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


# ---------------------------------------------------------------------------
# The all-workloads run behind ``python -m basilbench run``
# ---------------------------------------------------------------------------
def host_fingerprint() -> dict[str, Any]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "load_average_at_start": list(os.getloadavg()),
    }


def commit_id() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # e.g. a checkout that is not a git repository


def run_summary(record: dict[str, Any]) -> dict[str, Any]:
    """One run's raw samples, without the bulky latency grid and table."""
    facts = record["facts"]
    return {
        "seed": record["seed"],
        "wall_s": record["wall_s"],
        "events": record["events"],
        "events_per_s": record["events"] / record["wall_s"],
        "setup_s": record["setup_s"],
        "peak_rss_mb": record["peak_rss_mb"],
        "commits": facts["commits"],
        "attempted": facts["attempted"],
        "failed": facts["failed"],
    }


def run_all(seed: int, seconds: float, repeats: int) -> dict[str, Any]:
    """Timed sets of every workload, round-robin, then the traced passes.

    Round-robin (all workloads once, then again) spreads host drift over
    all rows alike.  Returns the result document ``latest.json`` holds.
    """
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    scale = seconds / benchmark["run_seconds"]
    document: dict[str, Any] = {
        "host": host_fingerprint(),
        "commit": commit_id(),
        "seed": seed,
        "seconds": seconds,
        "repeats": repeats,
        "workloads": {},
    }
    sets: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    for repeat in range(repeats):
        for name in names:
            sets[name].append(run_child(name, sub_seed(seed, repeat), scale))
    for name in names:
        records = sets[name]
        traced = traced_pass(name, seed, scale, plain=records[0])
        problems = [p for r in records[1:] for p in r["problems"]]
        document["workloads"][name] = {
            "end_to_end": end_to_end(records),
            "per_layer": traced["per_layer"],
            "runs": [run_summary(r) for r in records],
            "events": sum(r["events"] for r in records),
            "digest": traced["digest"],
            "problems": traced["problems"] + problems,
        }
    return document
