"""End-to-end load-subsystem smoke (`make load-smoke`, marker load_smoke).

Small enough to ride in tier-1: a 3-point mini-sweep with an explicit
ladder (no closed-loop anchor, no overload probes) plus the CLI surface.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.load.planner import sweep

pytestmark = pytest.mark.load_smoke


def test_mini_sweep_end_to_end(tmp_path):
    report = sweep(
        "basil",
        "ycsb-t",
        seed=3,
        loads=[600, 1200, 1800],
        duration=0.05,
        warmup=0.02,
        keys=400,
        proxies=6,
        with_closed_loop=False,
        with_overload=False,
        verbose=False,
    )
    assert len(report.points) == 3
    assert [p.offered for p in report.points] == [600, 1200, 1800]
    assert all(p.goodput_tps > 0 for p in report.points)
    assert report.knee_offered in {600, 1200, 1800}
    assert report.closed_loop_peak is None
    data = report.to_dict()
    assert data["schema"] == "repro.load.sweep/v1"
    json.dumps(data)  # must be serializable as-is


def test_cli_list_and_point(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "basil" in out and "aimd" in out and "ycsb-t" in out

    # One offered-load point is a one-element sweep.
    rc = main([
        "sweep", "load", "--loads", "800", "--no-closed-loop", "--no-overload",
        "--duration", "0.04", "--warmup", "0.01",
        "--workload-keys", "300", "--proxies", "4",
    ])
    assert rc == 0
    assert "goodput" in capsys.readouterr().out


def test_cli_sweep_writes_reports(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    rc = main([
        "sweep", "load", "--scale", "quick", "--loads", "600", "1200",
        "--no-closed-loop", "--no-overload",
        "--duration", "0.04", "--warmup", "0.01", "--workload-keys", "300",
        "--proxies", "4", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert len(report["points"]) == 2


def test_cli_rejects_abbreviated_flags(capsys):
    """``--no-over`` is not ``--no-overload``: only listed flags parse."""
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "load", "--no-over", "--loads", "600"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-over" in capsys.readouterr().err
