"""Named profiling targets: bench/figure/geo entry points by name.

``python -m repro.prof run --bench <name>`` resolves the name here to a
:class:`~repro.run.ModelSpec`; everything the parallel
front-end can run (protocol figures, the kernel microbench ladder, geo
WAN points) is therefore profilable through one door.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.run import ModelSpec

TargetFactory = Callable[[], ModelSpec]


def _fig4_basil(quick: bool) -> ModelSpec:
    from repro.bench.experiments import Scale
    from repro.config import SystemConfig

    scale = Scale.quick() if quick else Scale()
    return ModelSpec(
        kind="basil",
        config=SystemConfig(f=1, batch_size=4, num_shards=2),
        workload="ycsb-u",
        workload_keys=scale.ycsb_keys,
        num_clients=scale.clients,
        duration=scale.duration,
        warmup=scale.warmup,
        label="fig4-basil-quick" if quick else "fig4-basil",
    )


def _fig5a_nosig_quick() -> ModelSpec:
    from repro.bench.experiments import Scale
    from repro.config import CryptoConfig, SystemConfig

    scale = Scale.quick()
    return ModelSpec(
        kind="basil",
        config=SystemConfig(
            f=1, batch_size=4, num_shards=2, crypto=CryptoConfig(enabled=False)
        ),
        workload="ycsb-u",
        workload_keys=scale.ycsb_keys,
        num_clients=scale.clients,
        duration=scale.duration,
        warmup=scale.warmup,
        label="fig5a-basil-nosig-quick",
    )


def _microbench_quick() -> ModelSpec:
    return ModelSpec(
        kind="microbench",
        partitions=8,
        timers=500,
        duration=0.05,
        cross_every=64,
        lookahead=1e-4,
        trace=False,
    )


def _geo_wan3_edge_quick() -> ModelSpec:
    from repro.config import SystemConfig
    from repro.geo.plan import GeoSpec
    from repro.geo.topology import wan3

    return ModelSpec(
        kind="basil",
        config=SystemConfig(num_shards=1, seed=2024),
        geo=GeoSpec(topology=wan3(), mode="edge", users_per_region=4, keys=16),
        duration=0.5,
        warmup=0.15,
        label="geo-wan3-edge-quick",
    )


#: name -> (description, factory).
TARGETS: dict[str, tuple[str, TargetFactory]] = {
    "fig4-basil-quick": (
        "quick Fig 4 Basil point (YCSB-U uniform, 2 shards)",
        lambda: _fig4_basil(quick=True),
    ),
    "fig4-basil": (
        "full-scale Fig 4 Basil point (longer run, more clients/keys)",
        lambda: _fig4_basil(quick=False),
    ),
    "fig5a-basil-nosig-quick": (
        "quick Fig 5a 'without signatures' Basil point (crypto disabled: "
        "kernel/store share dominates)",
        _fig5a_nosig_quick,
    ),
    "microbench-quick": (
        "kernel microbench (standing timer population, quick ladder scale)",
        _microbench_quick,
    ),
    "geo-wan3-edge-quick": (
        "quick 3-region WAN edge-serving point",
        _geo_wan3_edge_quick,
    ),
}


def resolve_target(name: str) -> ModelSpec:
    try:
        return TARGETS[name][1]()
    except KeyError:
        known = ", ".join(sorted(TARGETS))
        raise SystemExit(f"unknown bench {name!r}; known targets: {known}")


def describe_targets() -> str:
    width = max(len(name) for name in TARGETS)
    return "\n".join(
        f"{name:<{width}}  {desc}" for name, (desc, _) in sorted(TARGETS.items())
    )


def spec_summary(spec: ModelSpec) -> dict[str, Any]:
    return {
        "kind": spec.kind,
        "label": spec.label,
        "workload": spec.workload if spec.kind != "microbench" else None,
        "duration": spec.duration,
        "warmup": spec.warmup,
        "clients": spec.num_clients if spec.kind != "microbench" else None,
    }
