"""Glue: attach a registry + ticker + probes to a system, emit a RunReport.

An :class:`ObsRecorder` is the one-call way to instrument a run; the
run pipeline (:mod:`repro.run`) does this for ``ModelSpec(obs=True)``:

    recorder = ObsRecorder(interval=0.005)
    runner = ExperimentRunner(system, workload, ..., recorder=recorder)
    bench = runner.run()
    report = recorder.finish("fig4a/basil", config=system.config, bench=bench)

``attach`` installs the metrics registry on the system's simulator
(turning on the guarded instrumentation sites in ``core``/``sim``),
registers node probes that sample ``Node.load_signal()``, Basil
``prepares_waiting``, and version-store sizes each tick, and starts the
simulated-time ticker.  ``finish`` evaluates the health rules over the
sampled series and assembles the :class:`~repro.obs.report.RunReport`.

Everything here is duck-typed over the three systems (Basil, TAPIR,
TxSMR): anything with ``sim`` and a ``replicas`` dict works; Basil-only
signals are probed when present.
"""

from __future__ import annotations

from typing import Any

from repro.obs.health import (
    HealthRule,
    default_basil_rules,
    evaluate_rules,
    overall_health,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.report import RunReport, _jsonable
from repro.obs.ticker import MetricsTicker


def system_probe(system: Any):
    """A ticker probe over one system's nodes (pure observation)."""

    def _sample():
        out = []
        replicas = getattr(system, "replicas", {})
        items = replicas.items() if isinstance(replicas, dict) else enumerate(replicas)
        for name, replica in items:
            node = str(name)
            signal = replica.load_signal()
            out.append(("cpu_queue_depth", {"node": node}, float(signal.queue_depth)))
            out.append(("cpu_busy_cores", {"node": node}, float(signal.busy_cores)))
            waiting = getattr(replica, "prepares_waiting", None)
            if waiting is not None:
                out.append(("basil_dependency_wait_depth", {"node": node}, float(waiting)))
            store = getattr(replica, "store", None)
            if store is not None and hasattr(store, "stats"):
                stats = store.stats()
                out.append(
                    ("store_prepared_versions", {"node": node},
                     float(stats["prepared_versions"]))
                )
                out.append(
                    ("store_committed_versions", {"node": node},
                     float(stats["committed_versions"]))
                )
        network = getattr(system, "network", None)
        if network is not None:
            out.append(("net_messages_delivered", {}, float(network.messages_delivered)))
            out.append(("net_messages_dropped", {}, float(network.messages_dropped)))
        return out

    return _sample


class ObsRecorder:
    """One run's telemetry pipeline: registry -> ticker -> health -> report."""

    def __init__(
        self,
        interval: float = 0.005,
        rules: list[HealthRule] | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.registry = registry or MetricsRegistry()
        self.ticker = MetricsTicker(self.registry, interval=interval)
        self.rules = default_basil_rules() if rules is None else rules
        self.system: Any = None

    def attach(self, system: Any, until: float | None = None) -> "ObsRecorder":
        """Instrument ``system``; sample until ``until`` (sim seconds)."""
        self.system = system
        system.sim.attach_metrics(self.registry)
        self.ticker.add_probe(system_probe(system))
        self.ticker.attach(system.sim, until=until)
        return self

    def finish(
        self,
        name: str,
        config: Any = None,
        bench: Any = None,
        digest: str | None = None,
        meta: dict[str, Any] | None = None,
    ) -> RunReport:
        """Stop sampling and assemble the RunReport for this run."""
        self.ticker.stop()
        series = self.ticker.series()
        verdicts = evaluate_rules(self.rules, series)
        sim = getattr(self.system, "sim", None)
        config = config if config is not None else getattr(self.system, "config", None)
        return RunReport.of(
            name,
            config,
            seed=getattr(sim, "seed", 0),
            sim_seconds=getattr(sim, "now", 0.0),
            health=overall_health(verdicts),
            verdicts=[v.to_dict() for v in verdicts],
            bench=None if bench is None else _jsonable(bench),
            series=[s.to_dict() for s in series],
            histograms=self.registry.histogram_summaries(),
            digest=digest,
            meta=dict(meta or {}),
        )
