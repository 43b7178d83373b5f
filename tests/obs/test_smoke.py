"""End-to-end obs smoke: CLI run -> report -> compare (``make obs-smoke``).

Also pins the acceptance story: an injected regression (mid-run
partition or doubled signature-verification cost) shows up as flagged
deltas — the partition additionally as a degraded health verdict —
while re-running the same config + seed reports no differences.
"""

import json

import pytest

from repro.__main__ import main
from repro.faults.spec import FaultSchedule, PartitionFault
from repro.obs.compare import compare_reports
from repro.obs.report import load_report, run_instrumented

pytestmark = pytest.mark.obs_smoke

QUICK = dict(duration=0.06, warmup=0.02, clients=6, keys=300)


@pytest.fixture(scope="module")
def baseline_report():
    return run_instrumented(seed=11, **QUICK)


def test_same_config_and_seed_reports_no_diff(baseline_report):
    again = run_instrumented(seed=11, **QUICK)
    result = compare_reports(baseline_report, again)
    assert result.identical
    assert result.ok


def test_partition_regression_is_flagged_and_degraded(baseline_report):
    stormy = run_instrumented(seed=11, partition=(0.03, 0.06), **QUICK)
    assert stormy.health in ("degraded", "critical")
    result = compare_reports(baseline_report, stormy)
    assert not result.ok
    flagged = {d.metric for d in result.flagged}
    assert "bench.throughput" in flagged
    assert result.regressions, "expected a health-rule regression"


def test_verify_cost_regression_is_flagged(baseline_report):
    slow = run_instrumented(seed=11, verify_cost_scale=2.0, **QUICK)
    result = compare_reports(baseline_report, slow)
    assert not result.ok
    flagged = {d.metric for d in result.flagged}
    assert "bench.throughput" in flagged or "bench.mean_latency" in flagged


def test_cli_run_compare_and_html(tmp_path, capsys):
    a = str(tmp_path / "a" / "basil.obs.json")
    b = str(tmp_path / "b" / "basil.obs.json")
    html = str(tmp_path / "diff.html")
    # The 3/3 split of each shard from 0.03 s for 0.06 s: no commit quorum.
    split = FaultSchedule(name="split", faults=(PartitionFault(
        groups=(("s*/r0", "s*/r1", "s*/r2"), ("*",)), start=0.03, end=0.09,
    ),)).validate()
    schedule = tmp_path / "split.json"
    schedule.write_text(split.to_json())
    args = ["--seed", "11", "--duration", "0.06", "--warmup", "0.02",
            "--num-clients", "6", "--workload-keys", "300"]
    assert main(["run", *args, "--obs", str(tmp_path / "a")]) == 0
    assert main(["run", *args, "--faults", str(schedule), "--obs", str(tmp_path / "b")]) == 0
    report = load_report(a)
    assert report.series and report.verdicts
    with open(a) as fh:
        assert json.load(fh)["schema"] == "repro.obs.run/v1"

    assert main(["compare", a, a]) == 0
    out = capsys.readouterr().out
    assert "no differences" in out

    assert main(["compare", a, b, "--html", html]) == 1
    doc = open(html).read()
    assert doc.lstrip().startswith("<!doctype html>") and "<svg" in doc

