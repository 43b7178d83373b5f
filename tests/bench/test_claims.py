"""The paper's claims as named checks, and the docs rendered from them.

Everything here is pure: claims are judged on synthetic rows or on the
committed ``FIGURES.json``; no simulation runs.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.bench import claims
from repro.bench.claims import CLAIMS, Claim, judge, judge_all, problems, render_tables
from repro.bench.experiments import DEFAULT_SCALE
from repro.bench.report import throughput_ratio
from repro.bench.runner import BenchResult

ROOT = Path(__file__).resolve().parents[2]


def row(name, tput, commits=100):
    return BenchResult(
        name=name, throughput=tput, mean_latency=0.005, p99_latency=0.01,
        commit_rate=0.9, fast_path_rate=0.99, commits=commits, aborts=10,
        duration=1.0,
    )


RUNS = {"r": {"a": row("a", 300.0), "b": row("b", 100.0)}}


def ratio(rows):
    return throughput_ratio(rows, "a", "b")  # 3.0


def order(rows):
    return {"a": rows["a"].throughput, "b": rows["b"].throughput}


@pytest.mark.parametrize("paper, holds", [
    (3.0, True), (1.5, True), (6.0, True), (1.49, False), (6.1, False),
])
def test_factor_band_is_half_to_double_the_paper(paper, holds):
    # measured 3.0 passes for any paper value in [1.5, 6]
    verdict = judge(Claim("F", "a over b", "r", ratio, paper), RUNS["r"])
    assert verdict.verdict == ("pass" if holds else "fail")
    assert verdict.measured == "3.00x"


def test_ordering_passes_on_direction():
    ok = judge(Claim("F", "a beats b", "r", order, unit=" tx/s"), RUNS["r"])
    assert (ok.verdict, ok.paper, ok.measured) == (
        "pass", "a > b", "a 300 tx/s > b 100 tx/s"
    )
    flipped = Claim("F", "b beats a", "r", lambda rows: dict(reversed(order(rows).items())))
    assert judge(flipped, RUNS["r"]).verdict == "fail"
    tie = {"r": {"a": row("a", 100.0), "b": row("b", 100.0)}}
    assert judge(Claim("F", "tie", "r", order), tie["r"]).verdict == "fail"


def test_four_verdicts_and_which_fail_the_run():
    records = [
        Claim("F", "pass", "r", ratio, 3.0),
        Claim("F", "fail", "r", ratio, 10.0),
        Claim("F", "expected-fail", "r", ratio, 10.0, expected_fail="known"),
        Claim("F", "unexpected pass", "r", ratio, 3.0, expected_fail="known"),
    ]
    verdicts = judge_all(RUNS, records)
    assert [v.verdict for v in verdicts] == [c.name for c in records]
    assert [v.reason for v in verdicts] == [None, None, "known", "known"]
    # at the default scale a fail and an unexpected pass exit 1 ...
    assert problems(RUNS, verdicts, gate=True) == [
        "F: fail: fail", "F: unexpected pass: unexpected pass",
    ]
    # ... at any other scale only an empty row does
    assert problems(RUNS, verdicts, gate=False) == []
    table = render_tables(verdicts)["F"]
    assert claims.BAND in table
    assert "| Result | Paper | Measured | Verdict |" in table
    assert "| expected-fail | 10x | 3.00x | expected-fail: known |" in table


def test_a_row_that_committed_nothing_fails_at_any_scale():
    runs = {"r": {"a": row("a", 300.0), "b": row("b", 0.0, commits=0)}}
    assert problems(runs, [], gate=False) == ["r: b committed nothing"]
    # a Byzantine row counts only its correct clients' commits
    byz = row("x@30%", 300.0)
    byz.extra["correct_throughput"] = 0.0
    assert problems({"r": {"x@30%": byz}}, [], gate=False) == ["r: x@30% committed nothing"]


def test_a_fast_path_off_row_that_took_it_fails_at_any_scale():
    off = row("rw-u-nofp", 300.0)  # fast_path_rate 0.99
    assert problems({"fig6a": {"rw-u-nofp": off}}, [], gate=False) == [
        "fig6a: rw-u-nofp took the fast path with it disabled",
    ]
    off = dataclasses.replace(off, fast_path_rate=0.0)
    assert problems({"fig6a": {"rw-u-nofp": off}}, [], gate=False) == []


def test_claims_whose_run_is_absent_are_not_judged():
    assert judge_all({}) == []
    assert judge_all({"elsewhere": RUNS["r"]}, [Claim("F", "x", "r", ratio, 3.0)]) == []


def test_claim_records_are_named_once_and_cover_every_figure():
    keys = [(c.figure, c.name) for c in CLAIMS]
    assert len(keys) == len(set(keys))
    assert {c.figure for c in CLAIMS} == {
        "Fig 4a", "Fig 4b", "Fig 5a", "Fig 5b", "Fig 5c", "Fig 6a", "Fig 6b",
        "Fig 7a", "Fig 7b", "Ablations",
    }
    assert all(c.expected_fail for c in CLAIMS if c.expected_fail is not None)


def test_experiments_md_tables_are_the_rendering_of_figures_json():
    doc = json.loads((ROOT / "FIGURES.json").read_text())
    assert doc["scale"] == dataclasses.asdict(DEFAULT_SCALE)
    rows = {
        key: {label: BenchResult(**r) for label, r in runs.items()}
        for key, runs in doc["rows"].items()
    }
    verdicts = judge_all(rows)
    assert len(verdicts) == len(CLAIMS), "FIGURES.json lacks a claim's run"
    assert [dataclasses.asdict(v) for v in verdicts] == doc["verdicts"], (
        "claim records changed: regenerate FIGURES.json with `make bench`"
    )
    assert problems(rows, verdicts, gate=True) == []
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for figure, table in render_tables(verdicts).items():
        assert table in text, f"EXPERIMENTS.md's {figure} table is stale"
    figures = text[text.index("## Figure 4a"):text.index("## Open-loop")]
    assert "Holds?" not in figures  # no hand-judged figure cell is left
