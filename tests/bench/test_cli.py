"""Every figure of ``python -m repro sweep figures`` parses and dispatches.

The simulation is stubbed out: ``run_specs``, the one seam every figure
point goes through, returns a canned run per spec, its row named after
the point.  Each figure then builds its real specs, prints rows and
claim tables and sets its exit status in milliseconds.
"""

import dataclasses
import json
import re

import pytest

import repro.bench.experiments as exp
from repro.__main__ import main
from repro.bench.runner import BenchResult
from repro.run import PartitionResult


def canned(empty: str = ""):
    """A ``run_specs`` stand-in; the row called ``empty`` commits nothing."""

    def run_specs(specs, then=None):
        return [canned_run(spec, empty) for spec in specs]

    return run_specs


def canned_run(spec, empty: str) -> PartitionResult:
    name, clients, byz_count = spec.label, spec.num_clients, spec.byz_client_count
    extra = {}
    if byz_count:
        extra["correct_throughput"] = 50.0
        extra["correct_tps_per_client"] = 50.0 / (clients - byz_count)
    row = BenchResult(
        name=name, throughput=100.0 + len(name), mean_latency=0.005,
        p99_latency=0.01, commit_rate=0.9,
        fast_path_rate=0.0 if name.endswith("-nofp") else 0.99,
        commits=0 if name == empty else 100, aborts=1,
        duration=spec.duration, extra=extra,
    )
    return PartitionResult(
        partition_id=-1, digest="", events=1000, now=spec.end_time(), rng_streams={},
        cross_sent=0, cross_received=0, bench=dataclasses.asdict(row),
    )


def figures(*args: str) -> int:
    return main(["sweep", "figures", *args])


def subcommands(capsys) -> list[str]:
    """The figure choices ``--help`` lists, plus "" for all of them."""
    with pytest.raises(SystemExit):
        figures("--help")
    usage = capsys.readouterr().out
    return [*re.search(r"\{(fig4[\w,-]*)\}", usage).group(1).split(","), ""]


def test_every_subcommand_dispatches(monkeypatch, capsys):
    monkeypatch.setattr(exp, "run_specs", canned())
    outputs = {}
    for command in subcommands(capsys):
        assert figures(*filter(None, [command]), "--scale", "quick") == 0, command
        outputs[command] = capsys.readouterr().out
    assert "" in outputs
    for command, out in outputs.items():
        assert "tx/s" in out, command
        assert "| Result | Paper | Measured | Verdict |" in out, command
    assert figures("fig4", "--scale", "quick", "--app", "smallbank") == 0
    out = capsys.readouterr().out
    assert "(Smallbank)" in out and "(TPC-C)" not in out
    assert figures("fig7", "--scale", "quick", "--dist", "uniform", "--crashes", "1") == 0
    out = capsys.readouterr().out
    assert "Fig 7a claims" in out and "Fig 7b claims" not in out


def test_report_writes_rows_and_verdicts(monkeypatch, tmp_path, capsys):
    from repro.bench.claims import CLAIMS

    monkeypatch.setattr(exp, "run_specs", canned())
    path = tmp_path / "F.json"
    assert figures("--scale", "quick", "--out", str(path)) == 0
    doc = json.loads(path.read_text())
    assert list(doc) == ["commit", "seed", "scale", "rows", "verdicts"]
    assert doc["scale"]["clients"] == exp.Scale.quick().clients
    assert list(doc["rows"]) == [
        "fig4/tpcc", "fig4/smallbank", "fig4/retwis", "fig5a", "fig5b",
        "fig5c", "fig6a", "fig6b", "fig7/uniform", "fig7/zipfian",
        "ablation/aggregation", "ablation/dependency-timeout",
    ]
    assert len(doc["rows"]["fig7/zipfian"]) == 16
    assert all(
        row["extra"]["events"] == 1000
        for runs in doc["rows"].values() for row in runs.values()
    )
    assert len(doc["verdicts"]) == len(CLAIMS)


def test_a_row_that_committed_nothing_exits_1_at_quick_scale(monkeypatch, capsys):
    monkeypatch.setattr(exp, "run_specs", canned(empty="rw-u-b8"))
    assert figures("fig6b", "--scale", "quick") == 1
    assert "FAILED fig6b: rw-u-b8 committed nothing" in capsys.readouterr().out


def test_failing_claims_exit_1_at_the_default_scale_only(monkeypatch, capsys):
    # canned throughput grows with the label's length: q=1 < q=f+1 < q=2f+1
    monkeypatch.setattr(exp, "run_specs", canned())
    assert figures("fig5b", "--scale", "quick") == 0
    assert figures("fig5b") == 1
    out = capsys.readouterr().out
    assert "FAILED Fig 5b: larger read quorums cost throughput: fail" in out


def test_a_crash_overlay_is_not_judged_against_the_claims(monkeypatch, capsys):
    from repro.bench import claims

    monkeypatch.setattr(exp, "run_specs", canned())
    monkeypatch.setattr(claims, "CLAIMS", [
        claims.Claim("Fig 7a", "never holds", "fig7/uniform", lambda rows: 1.0, 10.0),
    ])
    # a failing claim exits 1 at the default scale ...
    assert figures("fig7", "--dist", "uniform") == 1
    # ... which are about crash-free runs, so an overlay only checks progress
    assert figures("fig7", "--dist", "uniform", "--crashes", "1") == 0
