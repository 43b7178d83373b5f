"""Per-region telemetry: rule expansion, edge probes, one RunReport per
run carrying every region's series and verdicts."""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.geo.obs import edge_probe, geo_base_rules, geo_health_rules
from repro.geo.plan import GeoSpec
from repro.geo.topology import wan3
from repro.obs.health import HealthRule, expand_rule_per_label
from repro.run import ModelSpec, SequentialRun

pytestmark = pytest.mark.geo_smoke

REGIONS = ("us-east", "eu-west", "ap-south")


def test_expand_rule_per_label_clones_and_restricts():
    rule = HealthRule(
        name="churn", metric="m", threshold=1.0, labels={"shard": "s0"}
    )
    clones = expand_rule_per_label(rule, "region", ("a", "b"))
    assert [c.name for c in clones] == ["churn[a]", "churn[b]"]
    assert clones[0].labels == {"shard": "s0", "region": "a"}
    assert clones[1].labels == {"shard": "s0", "region": "b"}
    # everything else is untouched
    assert clones[0].metric == "m" and clones[0].threshold == 1.0


def test_geo_health_rules_cover_every_region():
    rules = geo_health_rules(REGIONS)
    assert len(rules) == len(geo_base_rules()) * len(REGIONS)
    names = {r.name for r in rules}
    assert "geo-read-stall[ap-south]" in names
    assert all(r.labels.get("region") in REGIONS for r in rules)


def test_edge_probe_samples_every_proxy():
    class FakeProxy:
        def lease_entries(self):
            return 3

        def writeback_queue_depth(self):
            return 1

    probe = edge_probe({"b": FakeProxy(), "a": FakeProxy()})
    samples = probe()
    assert samples == [
        ("geo_lease_entries", {"region": "a"}, 3.0),
        ("geo_writeback_queue_depth", {"region": "a"}, 1.0),
        ("geo_lease_entries", {"region": "b"}, 3.0),
        ("geo_writeback_queue_depth", {"region": "b"}, 1.0),
    ]


def test_merged_report_carries_per_region_series_and_verdicts():
    spec = ModelSpec(
        kind="basil",
        config=SystemConfig(num_shards=1, seed=11),
        geo=GeoSpec(topology=wan3(), mode="edge", users_per_region=2, keys=16),
        duration=0.3,
        warmup=0.1,
        label="geo-obs",
        obs=True,
    )
    result = SequentialRun(spec).run()
    report = result.report
    assert report is not None

    by_rule = {v["rule"]: v["status"] for v in report["verdicts"]}
    for rule in geo_base_rules():
        for region in REGIONS:
            assert f"{rule.name}[{region}]" in by_rule
    assert by_rule["geo-read-stall[eu-west]"] == "ok"

    series_names = {s["name"] for s in report["series"]}
    for name in (
        "geo_reads_total",
        "geo_lease_entries",
        "geo_writeback_queue_depth",
        "geo_user_latency_seconds_count",
    ):
        assert name in series_names, name
    # every region's serving tier reported, under its own label
    read_regions = {
        s["labels"].get("region")
        for s in report["series"]
        if s["name"] == "geo_reads_total"
    }
    assert read_regions == set(REGIONS)
