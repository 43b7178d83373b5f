"""The one command line: ``python -m repro {run,sweep,compare,replay,list}``.

* ``run`` builds one :class:`~repro.run.ModelSpec` from flags named
  after its fields (and :class:`~repro.config.SystemConfig`'s), runs it
  under :class:`~repro.parallel.runtime.ParallelRunner` and prints the
  digest, events, set-up cost and bench row.  ``--prof`` profiles the
  same spec (:func:`repro.prof.runners.profile_run`) instead.
* ``sweep figures|faults|load|geo|ladder`` runs one grid of specs: every
  paper figure with its claims judged, the fault campaign, the open-loop
  capacity planner, edge vs direct serving per topology, and the kernel
  scale ladder.  The first four hand their specs to
  :func:`~repro.run.run_specs` (one forked child per point, on the
  usable cores) and print in spec order.
* ``compare A B`` diffs two RunReports (exit 1 on a regression);
  ``replay BUNDLE`` re-executes a fault-campaign failure bundle.
* ``list`` prints what the names on the other sub-commands may be.

Examples::

    python -m repro run --kind basil --num-shards 2 --workers 2
    python -m repro run --kind microbench --prof --deep
    python -m repro sweep figures --scale quick
    python -m repro sweep figures fig4 --app smallbank --obs obs
    python -m repro sweep faults --seeds 25
    python -m repro compare a.obs.json b.obs.json --html diff.html

Each flag is defined once (:data:`FLAGS`); a sub-command takes the ones
it honours and sets its own defaults.  Building the parser imports no
subsystem: each sub-command imports what it runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import json
import os
import subprocess
import sys

from repro.config import SystemConfig
from repro.run import SEQUENTIAL_KINDS, SYSTEM_KINDS, ModelSpec, in_children, run_specs

FIGURES = ("fig4", "fig5a", "fig5b", "fig5c", "fig6a", "fig6b", "fig7", "ablations")
PROCESSES = ("poisson", "uniform", "bursty")


class _Lazy:
    """Choices read from a subsystem on first use, not at parser build."""

    def __init__(self, module: str, name: str) -> None:
        self.module, self.name = module, name

    def _values(self):
        return getattr(importlib.import_module(self.module), self.name)

    def __contains__(self, value) -> bool:
        return value in self._values()

    def __iter__(self):
        return iter(sorted(self._values()))


#: Every flag two sub-commands share, defined once.
FLAGS: dict[str, dict] = {
    "kind": dict(choices=SEQUENTIAL_KINDS, help="system, or the kernel microbench"),
    "workload": dict(metavar="NAME", help="ycsb-t | ycsb-u | ycsb-z | retwis | smallbank | tpcc"),
    "workload-keys": dict(type=int, metavar="N", help="workload population"),
    "num-clients": dict(type=int, metavar="N", help="closed-loop clients"),
    "num-shards": dict(type=int, metavar="N", help="shards"),
    "seed": dict(type=int, metavar="N", help="simulation seed"),
    "duration": dict(type=float, metavar="S", help="measured simulated seconds"),
    "warmup": dict(type=float, metavar="S", help="simulated seconds before and after"),
    "timers": dict(type=int, metavar="N", help="microbench: timers per partition"),
    "faults": dict(metavar="SCHEDULE.json", help="apply a repro.faults FaultSchedule"),
    "obs": dict(metavar="DIR", help="sample telemetry; write a RunReport per run into DIR"),
    "trace": dict(metavar="DIR", help="write each run's Chrome trace_event JSON into DIR"),
    "no-trace": dict(action="store_true", help="skip tracing (bundles lose their digest)"),
    "scale": dict(choices=("quick", "default", "paper"),
                  help="run size; paper (the paper's populations) for figures only"),
    "out": dict(metavar="PATH", help="figures: rows + verdicts JSON; faults: bundle "
                "directory; load: sweep report JSON"),
}


def _add(parser: argparse.ArgumentParser, names: str, **defaults) -> None:
    for name in names.split():
        parser.add_argument(f"--{name}", **FLAGS[name])
    parser.set_defaults(**defaults)


def _error(message: str) -> int:
    print(f"python -m repro: error: {message}", file=sys.stderr)
    return 2


def _schedule(path: str | None):
    if not path:
        return None
    from repro.faults.spec import FaultSchedule

    with open(path) as fh:
        return FaultSchedule.from_json(fh.read())


def _instrument(spec: ModelSpec, args) -> ModelSpec:
    """The one place ``--trace DIR``, ``--obs DIR`` and ``--no-trace``
    reach a spec: every spec a sub-command runs passes through here."""
    trace_dir, obs_dir = getattr(args, "trace", None), getattr(args, "obs", None)
    return dataclasses.replace(
        spec,
        trace=(spec.trace or trace_dir is not None) and not getattr(args, "no_trace", False),
        trace_dir=trace_dir, obs=obs_dir is not None, obs_dir=obs_dir,
    )


# -- run --------------------------------------------------------------------
def cmd_run(args) -> int:
    spec = ModelSpec(
        kind=args.kind,
        config=SystemConfig(num_shards=args.num_shards, seed=args.seed),
        workload=args.workload,
        workload_keys=args.workload_keys,
        num_clients=args.num_clients,
        duration=args.duration,
        warmup=args.warmup,
        timers=args.timers,
        fault_schedule=_schedule(args.faults),
    )
    spec = _instrument(spec, args)
    if args.prof or args.deep:
        return _profile(spec, args)
    import resource
    import time

    from repro.parallel.runtime import ParallelRunner

    started = time.perf_counter()
    result = ParallelRunner(spec, workers=args.workers).run()
    # Everything but the event loop: workload and system construction,
    # genesis, forks, and the summary.
    setup_s = time.perf_counter() - started - result.wall_s
    peak_kb = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    print(
        f"{args.kind}: workers={result.workers} partitions={result.partitions} "
        f"windows={result.windows}"
    )
    print(
        f"  digest {result.digest[:16]}…  events {result.events:,}  "
        f"wall {result.wall_s:.3f}s  ({result.events_per_s:,.0f} events/s)"
    )
    print(f"  setup {setup_s:.2f}s  peak rss {peak_kb / 1024:.0f} MB (largest process)")
    if result.cross_messages:
        print(
            f"  cross-partition messages {result.cross_messages:,} "
            f"(undeliverable after end: {result.undeliverable})"
        )
    if result.fault_stats is not None:
        applied = {k: v for k, v in result.fault_stats.items() if v}
        print(f"  fault stats: {applied or 'none applied'}")
    if result.bench:
        bench = result.bench
        print(
            f"  bench: {bench.get('throughput', 0.0):,.1f} tx/s  "
            f"commit {bench.get('commit_rate', 0.0) * 100:.1f}%  "
            f"p99 {bench.get('p99_latency', 0.0) * 1000:.2f} ms"
        )
    if result.report is not None:
        print(f"  health {result.report['health']}")
        for verdict in result.report["verdicts"]:
            if verdict["status"] != "ok":
                print(f"  {verdict['status']:>9}: {verdict['rule']} ({verdict['detail']})")
        print(f"  wrote obs report to {spec.artifact_path('obs')}")
    return 0


def _profile(spec: ModelSpec, args) -> int:
    from repro.prof.flame import write_collapsed, write_flame_html
    from repro.prof.report import write_profile
    from repro.prof.runners import profile_run

    report = profile_run(spec, workers=args.workers, deep=args.deep)
    print(report.render())
    stem = "PROF_" + spec.run_name().replace("/", "-")
    write_profile(f"{stem}.json", report)
    print(f"\nprofile -> {stem}.json")
    if report.collapsed:
        write_collapsed(f"{stem}.collapsed.txt", report.collapsed)
        write_flame_html(f"{stem}.flame.html", report.collapsed, title=report.name)
        print(f"collapsed stacks -> {stem}.collapsed.txt\nflamegraph -> {stem}.flame.html")
    if report.coverage < args.min_coverage:
        print(f"run: attribution coverage {report.coverage:.1%} below "
              f"--min-coverage {args.min_coverage:.1%}", file=sys.stderr)
        return 1
    return 0


# -- sweep figures ------------------------------------------------------------
def _figure_groups(args, scale) -> list[list[tuple]]:
    """The points ``args.figure`` (every figure when None) runs, grouped by
    figure: each entry is ``(rows key, title, {row name: ModelSpec})``."""
    from repro.bench import experiments as exp

    schedule = None
    if args.crashes:
        schedule = exp.fig7_crash_schedule(
            exp.SystemConfig(f=1, batch_size=4), scale, num_crashes=args.crashes
        )
    apps = [args.app] if args.app else list(exp.APP_BATCHES)
    dists = [args.dist] if args.dist else ["uniform", "zipfian"]
    table = {
        "fig4": [(f"fig4/{app}", f"Fig 4 — {app}", functools.partial(exp.fig4_systems, app))
                 for app in apps],
        "fig5a": [("fig5a", "Fig 5a — crypto cost", exp.fig5a_crypto_cost)],
        "fig5b": [("fig5b", "Fig 5b — read quorum", exp.fig5b_read_quorum)],
        "fig5c": [("fig5c", "Fig 5c — shard scaling", exp.fig5c_shard_scaling)],
        "fig6a": [("fig6a", "Fig 6a — fast path", exp.fig6a_fast_path)],
        "fig6b": [("fig6b", "Fig 6b — batching", exp.fig6b_batching)],
        "fig7": [(f"fig7/{dist}", f"Fig 7 — {dist}",
                  functools.partial(exp.fig7_failures, dist, fault_schedule=schedule))
                 for dist in dists],
        "ablations": [
            ("ablation/aggregation", "Ablation — signature aggregation (RW-U)",
             exp.ablation_aggregation),
            ("ablation/dependency-timeout",
             "Ablation — dependency timeout under 30% stall-early clients (RW-Z)",
             exp.ablation_dependency_timeout),
        ],
    }
    chosen = [table[args.figure]] if args.figure else list(table.values())
    return [[(key, title, make(scale=scale)) for key, title, make in group] for group in chosen]


def _commit() -> str:
    """The checkout's HEAD: the parent of a commit that adds the file."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=os.path.dirname(__file__),
            capture_output=True, text=True,
        ).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def sweep_figures(args) -> int:
    """Run, print and judge the figures; write FIGURES.json with ``--out``."""
    from repro.bench import claims
    from repro.bench import experiments as exp
    from repro.bench.report import render_table

    scale = {"quick": exp.Scale.quick(), "default": exp.DEFAULT_SCALE,
             "paper": exp.Scale.paper()}[args.scale]
    groups = _figure_groups(args, scale)
    rows = exp.run_figures({
        key: {name: _instrument(spec, args) for name, spec in points.items()}
        for group in groups for key, _, points in group
    })
    verdicts = []
    for group in groups:
        for key, title, _ in group:
            for row in rows[key].values():
                if key.startswith("fig7/"):
                    exp.fig7_metrics(row, scale.clients)
                if "trace_path" in row.extra:
                    print(f"  trace: {row.extra['trace_path']} "
                          f"(digest {row.extra['trace_digest'][:12]})")
                if "obs_path" in row.extra:
                    print(f"  obs: {row.extra['obs_path']} (health {row.extra['health']})")
            print(render_table(title, rows[key]))
        judged = claims.judge_all({key: rows[key] for key, _, _ in group})
        for table in claims.render_tables(judged).values():
            print(f"\n{table}\n")
        verdicts += judged
    if args.out:
        doc = {
            "commit": _commit(),
            "seed": exp.SystemConfig().seed,
            "scale": dataclasses.asdict(scale),
            "rows": {
                key: {label: dataclasses.asdict(row) for label, row in runs.items()}
                for key, runs in rows.items()
            },
            "verdicts": [dataclasses.asdict(v) for v in verdicts],
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.out}")
    # The claims are about crash-free runs: a fault overlay is not judged.
    gate = scale == exp.DEFAULT_SCALE and not args.crashes
    found = claims.problems(rows, verdicts, gate=gate)
    for problem in found:
        print(f"FAILED {problem}")
    return 1 if found else 0


# -- sweep faults / load ------------------------------------------------------
def sweep_faults(args) -> int:
    from repro.faults.campaign import summarize, sweep, sweep_specs
    from repro.faults.scenarios import Scale

    scale = Scale.quick() if args.scale == "quick" else Scale()
    specs = sweep_specs(
        seeds=args.seeds,
        seed_base=args.seed_base,
        scenario_names=tuple(args.scenarios) if args.scenarios else None,
        systems=tuple(args.systems) if args.systems else None,
        scale=scale,
    )
    if not specs:
        return _error("no selected scenario runs on the selected systems")
    results = sweep([_instrument(spec, args) for spec in specs], scale, out_dir=args.out)
    print(summarize(results))
    return 1 if any(not r.ok for r in results) else 0


def sweep_load(args) -> int:
    from repro.load.planner import sweep, write_report

    if args.kind not in SYSTEM_KINDS:
        return _error(f"sweep load runs a system, not {args.kind!r}")
    duration, warmup, keys = args.duration, args.warmup, args.workload_keys
    if args.scale == "quick":
        duration, warmup, keys = min(duration, 0.08), min(warmup, 0.02), min(keys, 500)
    if args.no_closed_loop and args.anchor is None and args.loads is None:
        return _error("--no-closed-loop needs --anchor or --loads")
    report = sweep(
        args.kind,
        args.workload,
        seed=args.seed,
        process=args.process,
        loads=args.loads,
        anchor=args.anchor,
        clients=args.num_clients,
        duration=duration,
        warmup=warmup,
        keys=keys,
        proxies=args.proxies,
        num_shards=args.num_shards,
        with_closed_loop=not args.no_closed_loop,
        with_overload=not args.no_overload,
        overload_policy=args.policy,
        run=lambda specs: run_specs([_instrument(spec, args) for spec in specs]),
    )
    if args.out:
        write_report(args.out, report)
        print(f"report -> {args.out}")
    return 1 if report.cross_check_ok is False else 0


# -- sweep geo ----------------------------------------------------------------
def _print_regions(geo_extra: dict) -> None:
    print(f"    {'region':<12} {'reads':>6} {'writes':>7} "
          f"{'read p50':>9} {'read p99':>9} {'write p50':>10} {'hit rate':>9}")
    for region, row in geo_extra["regions"].items():
        hit = row.get("lease_hit_rate")
        print(
            f"    {region:<12} {row['reads']:>6} {row['writes']:>7} "
            f"{row['read_p50'] * 1000:>7.2f}ms {row['read_p99'] * 1000:>7.2f}ms "
            f"{row['write_p50'] * 1000:>8.2f}ms "
            f"{(f'{hit * 100:7.1f}%' if hit is not None else '      —'):>9}"
        )


def _geo_spec(args, topology, mode: str) -> ModelSpec:
    from repro.geo.plan import GeoSpec

    return ModelSpec(
        kind="basil",
        config=SystemConfig(num_shards=args.num_shards, seed=args.seed),
        geo=GeoSpec(
            topology=topology,
            mode=mode,
            users_per_region=args.users,
            keys=args.workload_keys,
            read_fraction=args.read_fraction,
            lease_ttl=args.lease_ttl,
        ),
        duration=args.duration,
        warmup=args.warmup,
        label=f"geo-{topology.name}-{mode}",
        fault_schedule=_schedule(args.faults),
    )


def sweep_geo(args) -> int:
    """One spec per topology x mode; per topology, each mode's row and
    region table, then edge against direct."""
    from repro.geo.topology import get_topology

    topologies = [get_topology(name) for name in args.topologies]
    specs = [_instrument(_geo_spec(args, topology, mode), args)
             for topology in topologies for mode in args.modes]
    benches = iter(zip(specs, run_specs(specs)))
    for topology in topologies:
        _print_topology(topology, matrix=False)
        per_mode = {}
        for mode in args.modes:
            spec, result = next(benches)
            bench = result.bench
            g = per_mode[mode] = bench["extra"]["geo"]
            print(
                f"  {bench['name']:<22} ops {g['ops']:>5}  "
                f"read p50 {g['read_p50'] * 1000:7.2f} ms  "
                f"write p50 {g['write_p50'] * 1000:7.2f} ms  "
                f"commits {bench['commits']:>4}  "
                f"(min cross RTT {g['cross_region_rtt'] * 1000:.0f} ms)"
            )
            _print_regions(g)
            if spec.obs_dir:  # the pipeline wrote it
                print(f"    wrote obs report to {spec.artifact_path('obs')}")
        if "edge" in per_mode and "direct" in per_mode:
            edge, direct = per_mode["edge"], per_mode["direct"]
            speedup = (
                direct["read_p50"] / edge["read_p50"]
                if edge["read_p50"] else float("inf")
            )
            print(
                f"  => edge read p50 {edge['read_p50'] * 1000:.2f} ms vs "
                f"direct {direct['read_p50'] * 1000:.2f} ms "
                f"({speedup:,.0f}x; one cross-region RTT = "
                f"{edge['cross_region_rtt'] * 1000:.0f} ms)"
            )
    return 0


# -- sweep ladder -------------------------------------------------------------
def ladder_spec(quick: bool, timers: int | None = None, duration: float | None = None) -> ModelSpec:
    """The scale-ladder microbench configuration.

    The standing timer population (``partitions * timers``) is what the
    ladder scales over: the sequential kernel pays one global heap (and
    its cache misses) over all of it, partitioned workers pay many small
    partition-local heaps.  128 partitions of ~8k timers is the measured
    sweet spot on this class of machine — local heaps are small enough
    to stay cache-resident while the sequential heap holds the full
    million entries.  The 0.5 ms window width keeps the per-window
    barrier (128 partition reports each) from dominating at this
    partition count.
    """
    return ModelSpec(
        kind="microbench",
        partitions=128,
        timers=timers if timers is not None else (1_250 if quick else 7_812),
        duration=duration if duration is not None else (0.0015 if quick else 0.002),
        cross_every=64,
        lookahead=5e-4,
    )


def _ladder_row(spec: ModelSpec, workers: int) -> dict:
    """One ladder point; :func:`sweep_ladder` runs each in a fresh child
    (clean heap and allocator, so earlier measurements cannot pollute
    later ones)."""
    from repro.parallel.runtime import ParallelRunner

    result = ParallelRunner(spec, workers=workers).run()
    return {
        "workers": workers,
        "events": result.events,
        "wall_s": result.wall_s,
        "events_per_s": result.events_per_s,
        "digest": result.digest,
    }


def sweep_ladder(args) -> int:
    """Events/s per worker count; exit 1 unless every row — the
    sequential one included — reports the same digest and event count."""
    quick = args.scale == "quick"
    tag = "parallel-ladder-quick" if quick else "parallel-ladder"
    spec = ladder_spec(quick, timers=args.timers, duration=args.duration)
    print(
        f"scale ladder: {spec.partitions} partitions x {spec.timers:,} timers, "
        f"{spec.duration * 1000:.1f} ms simulated"
    )
    rows = []
    for workers in args.workers:
        [row] = in_children([(f"{tag}-w{workers}", functools.partial(_ladder_row, spec, workers))])
        rows.append(row)
        print(
            f"{f'{tag}-w{workers}':<26} wall {row['wall_s']:7.3f}s  "
            f"{row['events_per_s']:>12,.0f} events/s  ({row['events']:,} events)"
        )
    base = rows[0]
    for row in rows[1:]:
        speedup = row["events_per_s"] / base["events_per_s"] if base["events_per_s"] else 0.0
        print(f"  speedup w{row['workers']} vs w{base['workers']}: {speedup:.2f}x")
    # The microbench digest is defined equal at every worker count, the
    # one-heap w1 execution included.
    differing = [
        row["workers"] for row in rows[1:]
        if (row["digest"], row["events"]) != (base["digest"], base["events"])
    ]
    if differing:
        print(
            f"ERROR: digest/event count at workers={differing} differs "
            f"from workers={base['workers']}"
        )
        return 1
    return 0


# -- compare / replay / list --------------------------------------------------
def cmd_compare(args) -> int:
    from repro.obs.compare import DEFAULT_TOLERANCE, compare_reports, render_compare
    from repro.obs.report import load_report

    a, b = load_report(args.a), load_report(args.b)
    tolerance = DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
    result = compare_reports(a, b, tolerance=tolerance)
    print(render_compare(a, b, result))
    if args.html:
        from repro.obs.html import render_html, write_html

        write_html(args.html, render_html(a, b, result))
        print(f"html -> {args.html}")
    return 0 if result.ok else 1


def cmd_replay(args) -> int:
    from repro.faults.campaign import replay_bundle

    case = replay_bundle(args.bundle, with_trace=not args.no_trace)
    print(case.row())
    for violation in case.safety_violations:
        print(f"  {violation}")
    return 0 if case.ok else 1


def _print_topology(topology, matrix: bool = True) -> None:
    print(f"{topology.name}: {len(topology.regions)} regions, "
          f"min cross RTT {2 * topology.min_cross_region().base * 1000:.0f} ms")
    if not matrix:
        return
    width = max(len(r) for r in topology.regions) + 2
    print(" " * width + "".join(f"{r:>{width}}" for r in topology.regions))
    for a in topology.regions:
        cells = []
        for b in topology.regions:
            base, jitter = topology.latency(a, b)
            cells.append(f"{base * 1000:.1f}+{jitter * 1000:.0f}ms".rjust(width))
        print(f"{a:>{width}}" + "".join(cells))


def cmd_list(args) -> int:
    from repro.geo.topology import TOPOLOGIES, get_topology

    if args.topology:
        print(get_topology(args.topology).to_json())
        return 0
    from repro.faults.scenarios import SCENARIOS
    from repro.load.admission import POLICIES
    from repro.obs.health import default_basil_rules
    from repro.workloads import WORKLOADS

    print("systems:    " + " ".join(SEQUENTIAL_KINDS))
    print("workloads:  " + " ".join(sorted(WORKLOADS)))
    print("processes:  " + " ".join(PROCESSES))
    print("policies:   " + " ".join(sorted(POLICIES)))
    print("\nfault scenarios:")
    for name, scenario in SCENARIOS.items():
        print(f"  {name:<26} [{','.join(scenario.systems)}] {scenario.description}")
    print("\nhealth rules:")
    for rule in default_basil_rules():
        win = f" for {rule.for_seconds}s" if rule.for_seconds else ""
        print(f"  {rule.name:<20} {rule.severity:<9} "
              f"{rule.aggregate}({rule.metric}) {rule.op} {rule.threshold}{win}")
        if rule.description:
            print(f"  {'':<20} {rule.description}")
    print("\ntopologies (`list NAME` prints one as an editable JSON template):")
    for name in TOPOLOGIES:
        _print_topology(get_topology(name))
    return 0


# -- the parser ---------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    kw = dict(allow_abbrev=False, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    parser = argparse.ArgumentParser(
        prog="python -m repro", description="Run, sweep and compare simulated runs.", **kw
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one ModelSpec, flags named after its fields", **kw)
    # Each default is its field's, except the seed: 2024, as in the geo grid.
    fields = {f.name: f.default for cls in (ModelSpec, SystemConfig)
              for f in dataclasses.fields(cls)}
    spec_fields = ("kind", "workload", "workload_keys", "num_clients", "num_shards",
                   "duration", "warmup", "timers")
    _add(run, " ".join(name.replace("_", "-") for name in spec_fields)
         + " seed faults obs trace", seed=2024, **{name: fields[name] for name in spec_fields})
    run.add_argument("--workers", type=int, default=1, metavar="N",
                     help="processes (basil and microbench only)")
    run.add_argument("--prof", action="store_true",
                     help="attribute wall time to subsystems; write PROF_<name>.json")
    run.add_argument("--deep", action="store_true",
                     help="with --prof: sample Python stacks too (flamegraph)")
    run.add_argument("--min-coverage", type=float, default=0.0, metavar="F",
                     help="with --prof: exit 1 if the attributed share of wall is below F")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="run one grid of specs", **kw)
    grids = sweep.add_subparsers(dest="grid", required=True)

    figures = grids.add_parser("figures", help="every paper figure, claims judged", **kw)
    figures.add_argument("figure", nargs="?", choices=FIGURES,
                         help="one figure (default: all of them and both ablations)")
    _add(figures, "scale out trace obs", scale="default")
    figures.add_argument("--app", choices=_Lazy("repro.bench.experiments", "APP_BATCHES"),
                         metavar="APP", help="fig4: one application")
    figures.add_argument("--dist", choices=("uniform", "zipfian"),
                         help="fig7: one distribution")
    figures.add_argument("--crashes", type=int, default=0, metavar="N",
                         help="fig7: overlay N replica crash/restart faults")
    figures.set_defaults(func=sweep_figures)

    faults = grids.add_parser("faults", help="N seeds x the fault scenario matrix", **kw)
    faults.add_argument("--seeds", type=int, default=10, metavar="N",
                        help="seeds per (scenario, system) pair")
    faults.add_argument("--seed-base", type=int, default=1, help="first seed value")
    faults.add_argument("--scenarios", nargs="+", metavar="NAME",
                        choices=_Lazy("repro.faults.scenarios", "SCENARIOS"),
                        help="subset of scenarios (default: all)")
    faults.add_argument("--systems", nargs="+", choices=SYSTEM_KINDS,
                        help="subset of systems (default: each scenario's own)")
    _add(faults, "scale no-trace out obs", scale="quick", out="fault-failures")
    faults.set_defaults(func=sweep_faults)

    load = grids.add_parser("load", help="walk offered load, find the knee", **kw)
    _add(load, "kind workload workload-keys num-clients num-shards seed duration warmup "
         "scale out obs", kind="basil", workload="ycsb-t", workload_keys=2_000,
         num_clients=40, num_shards=1, seed=1, duration=0.3, warmup=0.1, scale="default")
    load.add_argument("--process", default="poisson", choices=PROCESSES,
                      help="arrival process shape")
    load.add_argument("--loads", type=float, nargs="+", metavar="TPS",
                      help="explicit offered-load ladder (default: multiples of the "
                      "closed-loop peak)")
    load.add_argument("--anchor", type=float, metavar="TPS",
                      help="build the default ladder around this throughput instead "
                      "of measuring the closed-loop peak")
    load.add_argument("--proxies", type=int, metavar="N",
                      help="protocol clients in the proxy pool (default: --num-clients)")
    load.add_argument("--policy", default="aimd", metavar="NAME",
                      choices=_Lazy("repro.load.admission", "POLICIES"),
                      help="admission policy for the overload probe")
    load.add_argument("--no-overload", action="store_true",
                      help="skip the 2x-knee overload probes")
    load.add_argument("--no-closed-loop", action="store_true",
                      help="skip the closed-loop cross-check (needs --anchor or --loads)")
    load.set_defaults(func=sweep_load)

    geo = grids.add_parser("geo", help="edge vs direct serving per topology", **kw)
    geo.add_argument("--topologies", nargs="+", default=["wan3"], metavar="TOPOLOGY",
                     help="presets (see list) or paths to topology JSON files")
    geo.add_argument("--modes", nargs="+", default=["edge", "direct"],
                     choices=_Lazy("repro.geo.plan", "MODES"), metavar="MODE",
                     help="edge | direct")
    geo.add_argument("--users", type=int, default=4, help="end users per region")
    geo.add_argument("--read-fraction", type=float, default=0.9, metavar="F",
                     help="share of user operations that read")
    geo.add_argument("--lease-ttl", type=float, default=2.0, metavar="S",
                     help="edge read-lease lifetime")
    _add(geo, "workload-keys num-shards seed duration warmup faults obs", workload_keys=24,
         num_shards=1, seed=2024, duration=0.6, warmup=0.15)
    geo.set_defaults(func=sweep_geo)

    ladder = grids.add_parser("ladder", help="kernel events/s vs worker count", **kw)
    ladder.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4], metavar="N",
                        help="worker counts, one fresh process each")
    _add(ladder, "scale timers duration", scale="default", timers=None, duration=None)
    ladder.set_defaults(func=sweep_ladder)

    compare = sub.add_parser("compare", help="diff two RunReports (exit 1 on regression)",
                             **kw)
    compare.add_argument("a", help="baseline RunReport JSON")
    compare.add_argument("b", help="candidate RunReport JSON")
    compare.add_argument("--tolerance", type=float, metavar="X",
                         help="relative delta before flagging (None: the library's "
                         "DEFAULT_TOLERANCE, 0.2)")
    compare.add_argument("--html", metavar="FILE", help="write a side-by-side HTML report")
    compare.set_defaults(func=cmd_compare)

    replay = sub.add_parser("replay", help="re-execute a fault-campaign failure bundle", **kw)
    replay.add_argument("bundle", help="path to a repro bundle JSON")
    _add(replay, "no-trace")
    replay.set_defaults(func=cmd_replay)

    lst = sub.add_parser("list", help="systems, workloads, scenarios, topologies, rules, "
                         "policies and arrival processes", **kw)
    lst.add_argument("topology", nargs="?",
                     help="print this topology (preset or JSON file) as editable JSON")
    lst.set_defaults(func=cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "scale", None) == "paper" and args.grid != "figures":
        return _error("--scale paper applies to sweep figures only")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `... list | head`
        sys.exit(0)
