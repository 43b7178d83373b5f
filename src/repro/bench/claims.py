"""The paper's claims about its figures, each a named check.

A :class:`Claim` reads one value from the rows of one run (``run`` names
it, e.g. ``"fig4/tpcc"``; rows are keyed by series label) and judges it
against what the paper reports:

* a **factor** claim (``paper`` is a number) passes inside
  ``[paper / 2, 2 × paper]`` — one band for every factor, no per-claim
  tolerance;
* an **ordering** claim (``paper`` is None) reads ``{label: value}`` in
  the order the paper ranks them and passes when the values strictly
  decrease along it.

``expected_fail`` is the reason a claim is known to fail at the default
scale.  Such a claim judges ``expected-fail`` while it fails and
``unexpected pass`` once it holds, so a fixed deviation asks for its
record to change.  ``python -m repro sweep figures`` judges every claim;
EXPERIMENTS.md's tables are :func:`render_tables` of the committed
``FIGURES.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable

from repro.bench.experiments import FAILURE_BEHAVIOURS
from repro.bench.report import latency_ratio, throughput_ratio
from repro.bench.runner import BenchResult

Rows = dict[str, BenchResult]
_tput = attrgetter("throughput")

BAND = "a factor passes inside [paper / 2, 2 × paper]; an ordering passes on direction"

#: Display precision per unit.
_DIGITS = {"x": 2, "%": 1, " tx/s": 0, " ms": 2, "": 0}


@dataclass(frozen=True)
class Claim:
    figure: str
    name: str
    run: str
    read: Callable[[Rows], Any]
    paper: float | None = None
    unit: str = "x"
    expected_fail: str | None = None


@dataclass(frozen=True)
class Verdict:
    figure: str
    name: str
    paper: str
    measured: str
    verdict: str  #: pass, fail, expected-fail or unexpected pass
    reason: str | None = None


def _fmt(value: float, unit: str) -> str:
    return f"{value:,.{_DIGITS[unit]}f}{unit}"


def judge(claim: Claim, rows: Rows) -> Verdict:
    value = claim.read(rows)
    if claim.paper is None:
        values = list(value.values())
        holds = all(a > b for a, b in zip(values, values[1:]))
        paper = " > ".join(value)
        ranked = sorted(value.items(), key=lambda item: -item[1])
        measured = f"{ranked[0][0]} {_fmt(ranked[0][1], claim.unit)}"
        for (_, above), (label, v) in zip(ranked, ranked[1:]):
            measured += f" {'>' if above > v else '='} {label} {_fmt(v, claim.unit)}"
    else:
        holds = claim.paper / 2 <= value <= claim.paper * 2
        paper = f"{claim.paper:g}{claim.unit}"
        measured = _fmt(value, claim.unit)
    if claim.expected_fail is None:
        verdict = "pass" if holds else "fail"
    else:
        verdict = "unexpected pass" if holds else "expected-fail"
    return Verdict(claim.figure, claim.name, paper, measured, verdict, claim.expected_fail)


def judge_all(rows: dict[str, Rows], claims: list[Claim] | None = None) -> list[Verdict]:
    """Every claim (default :data:`CLAIMS`) whose run is in ``rows``."""
    return [
        judge(claim, rows[claim.run])
        for claim in (CLAIMS if claims is None else claims)
        if claim.run in rows
    ]


def problems(rows: dict[str, Rows], verdicts: list[Verdict], gate: bool) -> list[str]:
    """Why a run exits 1.  At any scale: a row that committed nothing, or
    whose correct clients committed nothing, and a fast-path-off row
    (``*-nofp``) that took the fast path.  When ``gate`` (the default
    scale, no fault overlay): a claim that failed or passed unexpectedly."""
    found = []
    for key, runs in rows.items():
        for label, row in runs.items():
            if not row.commits or row.extra.get("correct_throughput") == 0:
                found.append(f"{key}: {label} committed nothing")
            if label.endswith("-nofp") and row.fast_path_rate:
                found.append(f"{key}: {label} took the fast path with it disabled")
    if gate:
        found += [
            f"{v.figure}: {v.name}: {v.verdict}"
            for v in verdicts if v.verdict in ("fail", "unexpected pass")
        ]
    return found


def render_tables(verdicts: list[Verdict]) -> dict[str, str]:
    """One markdown table per figure: ``Result | Paper | Measured | Verdict``."""
    tables: dict[str, list[str]] = {}
    for v in verdicts:
        lines = tables.setdefault(v.figure, [
            f"{v.figure} claims — {BAND}:", "",
            "| Result | Paper | Measured | Verdict |", "|---|---|---|---|",
        ])
        cell = {
            "fail": "**fail**",
            "expected-fail": f"expected-fail: {v.reason}",
            "unexpected pass": f"**unexpected pass** (expected-fail: {v.reason})",
        }.get(v.verdict, v.verdict)
        lines.append(f"| {v.name} | {v.paper} | {v.measured} | {cell} |")
    return {figure: "\n".join(lines) for figure, lines in tables.items()}


# ---------------------------------------------------------------------------
# The records
# ---------------------------------------------------------------------------
UNEXPLAINED = "unexplained — ROADMAP item 7"
TPCC_CEILING = (
    "TPC-C is contention-capped for every system at this scale: the "
    "per-district ceiling binds first"
)
CLIENT_CRYPTO = (
    "3 shards saturate the 2-core simulated clients on ~18 vote "
    "verifications per transaction; the paper's clients had headroom"
)
RWZ_CONTENTION = (
    "RW-Z is far more contended than the paper's point: retry storms drown "
    "the saved ST2 round (still −14 % at 10 M keys)"
)
SIGNING_SHARE = (
    "our unbatched baseline pays a smaller signing share than the paper's "
    "(request auth, hashing and per-message overheads dilute it)"
)

APPS = {"smallbank": "Smallbank", "retwis": "Retwis", "tpcc": "TPC-C"}
FIG4A_PAIRS = (
    ("Basil vs TxBFT-SMaRt", "basil", "txbftsmart"),
    ("Basil vs TxHotStuff", "basil", "txhotstuff"),
    ("TAPIR vs Basil", "tapir", "basil"),
)
#: Fig 4a's factor per app for each of FIG4A_PAIRS, with its expected-fail.
FIG4A = {
    "smallbank": ((2.7, None), (3.7, UNEXPLAINED), (1.8, None)),
    "retwis": ((2.7, None), (4.8, UNEXPLAINED), (2.6, UNEXPLAINED)),
    "tpcc": ((3.8, TPCC_CEILING), (5.2, UNEXPLAINED), (4.1, UNEXPLAINED)),
}


def _by(metric: Callable[[BenchResult], float], *shown_label: tuple[str, str]):
    return lambda rows: {shown: metric(rows[label]) for shown, label in shown_label}


def _lat_ms(row: BenchResult) -> float:
    return row.mean_latency * 1000


def _correct(row: BenchResult) -> float:
    return row.extra.get("correct_throughput", row.throughput)


def _tput_ratio(a: str, b: str):
    return lambda rows: throughput_ratio(rows, a, b)


def _gain_pct(a: str, b: str):
    return lambda rows: 100 * (throughput_ratio(rows, a, b) - 1)


def _drop_pct(before: str, after: str):
    return lambda rows: 100 * (1 - throughput_ratio(rows, after, before))


def _fig4() -> list[Claim]:
    tput, lat = [], []
    for app, factors in FIG4A.items():
        run, name = f"fig4/{app}", APPS[app]
        if app == "tpcc":
            # Basil ~ TxBFT-SMaRt under the TPC-C ceiling: that pair is
            # judged by its (expected-fail) factor row, not the ordering.
            order = _by(_tput, ("TAPIR", "tapir"), ("Basil", "basil"),
                        ("TxHotStuff", "txhotstuff"))
        else:
            order = lambda rows: {  # noqa: E731
                "TAPIR": rows["tapir"].throughput, "Basil": rows["basil"].throughput,
                "best Tx*": max(rows["txbftsmart"].throughput, rows["txhotstuff"].throughput),
            }
        tput += [
            Claim("Fig 4a", f"Ordering ({name})", run, order, unit=" tx/s"),
            *(Claim("Fig 4a", f"{shown} ({name})", run, _tput_ratio(a, b), paper,
                    expected_fail=reason)
              for (shown, a, b), (paper, reason) in zip(FIG4A_PAIRS, factors)),
            Claim("Fig 4a", f"Basil fast-path rate ({name})", run,
                  lambda rows: rows["basil"].fast_path_rate * 100, 96, unit="%"),
        ]
        if app == "tpcc":
            lat += [
                Claim("Fig 4b", "Latency ordering (TPC-C)", run, _by(
                    _lat_ms, ("TxHotStuff", "txhotstuff"), ("TxBFT-SMaRt", "txbftsmart"),
                    ("Basil", "basil"), ("TAPIR", "tapir"),
                ), unit=" ms"),
                *(Claim("Fig 4b", f"{shown} latency vs {base} (TPC-C)", run,
                        lambda rows, a=a, b=b: latency_ratio(rows, a, b), paper,
                        expected_fail=reason)
                  for shown, a, base, b, paper, reason in (
                      ("Basil", "basil", "TAPIR", "tapir", 4.2, UNEXPLAINED),
                      ("TxHotStuff", "txhotstuff", "Basil", "basil", 2.4, None),
                      ("TxBFT-SMaRt", "txbftsmart", "Basil", "basil", 1.2, UNEXPLAINED),
                  )),
            ]
        else:
            lat.append(Claim("Fig 4b", f"Latency ordering ({name})", run, lambda rows: {
                "best Tx*": min(_lat_ms(rows["txbftsmart"]), _lat_ms(rows["txhotstuff"])),
                "Basil": _lat_ms(rows["basil"]), "TAPIR": _lat_ms(rows["tapir"]),
            }, unit=" ms"))
    return tput + lat


def _batches(rows: Rows, tag: str) -> dict[int, float]:
    """Fig 6b's throughput per reply-batch size on ``tag`` (rw-u / rw-z)."""
    return {
        int(label.rsplit("-b", 1)[1]): row.throughput
        for label, row in rows.items() if label.startswith(f"{tag}-b")
    }


def _peak(rows: Rows, tag: str) -> int:
    series = _batches(rows, tag)
    return max(series, key=series.get)


def _peak_gain(rows: Rows, tag: str) -> float:
    series = _batches(rows, tag)
    return max(series.values()) / series[1] if series[1] else float("inf")


def _fig56() -> list[Claim]:
    rw_u = _tput_ratio("basil-rw-u-nosig", "basil-rw-u-sig")
    rw_z = _tput_ratio("basil-rw-z-nosig", "basil-rw-z-sig")
    nosig = _tput_ratio("nosig-3shard", "nosig-1shard")
    sig = _tput_ratio("sig-3shard", "sig-1shard")
    return [
        Claim("Fig 5a", "no-crypto speedup, RW-U", "fig5a", rw_u, 3.7),
        Claim("Fig 5a", "no-crypto speedup, RW-Z", "fig5a", rw_z, 4.6),
        Claim("Fig 5a", "RW-Z speedup > RW-U speedup", "fig5a",
              lambda rows: {"RW-Z": rw_z(rows), "RW-U": rw_u(rows)}),
        Claim("Fig 5b", "larger read quorums cost throughput", "fig5b", _by(
            _tput, ("q=1", "q=1"), ("q=f+1", "q=f+1"), ("q=2f+1", "q=2f+1")
        ), unit=" tx/s"),
        Claim("Fig 5b", "q=1 -> q=f+1 throughput drop", "fig5b",
              _drop_pct("q=1", "q=f+1"), 20, unit="%"),
        Claim("Fig 5b", "q=f+1 -> q=2f+1 further drop", "fig5b",
              _drop_pct("q=f+1", "q=2f+1"), 16, unit="%"),
        Claim("Fig 5c", "sharding adds capacity without crypto", "fig5c", _by(
            _tput, ("3 shards", "nosig-3shard"), ("1 shard", "nosig-1shard"),
        ), unit=" tx/s"),
        Claim("Fig 5c", "no-crypto scaling", "fig5c", nosig, 1.9),
        Claim("Fig 5c", "with-crypto scaling", "fig5c", sig, 1.3, expected_fail=CLIENT_CRYPTO),
        Claim("Fig 5c", "crypto blunts scaling", "fig5c",
              lambda rows: {"no-crypto": nosig(rows), "crypto": sig(rows)}),
        Claim("Fig 6a", "gain on RW-U", "fig6a", _gain_pct("rw-u-fp", "rw-u-nofp"), 19,
              unit="%", expected_fail=UNEXPLAINED),
        Claim("Fig 6a", "gain on RW-Z", "fig6a", _gain_pct("rw-z-fp", "rw-z-nofp"), 49,
              unit="%", expected_fail=RWZ_CONTENTION),
        Claim("Fig 6a", "the fast path helps RW-U", "fig6a",
              _by(_tput, ("FP on", "rw-u-fp"), ("FP off", "rw-u-nofp")), unit=" tx/s"),
        Claim("Fig 6a", "fast-path rate with FP on > 90 % (RW-U)", "fig6a", lambda rows: {
            "rate": rows["rw-u-fp"].fast_path_rate * 100, "bound": 90.0,
        }, unit="%"),
        Claim("Fig 6a", "fast-path rate with FP on (RW-Z)", "fig6a",
              lambda rows: rows["rw-z-fp"].fast_path_rate * 100, 96, unit="%"),
        Claim("Fig 6b", "RW-U gain at its peak over b=1", "fig6b",
              lambda rows: _peak_gain(rows, "rw-u"), 4, expected_fail=SIGNING_SHARE),
        Claim("Fig 6b", "RW-U peak batch size", "fig6b",
              lambda rows: _peak(rows, "rw-u"), 16, unit=""),
        Claim("Fig 6b", "batching helps RW-U", "fig6b", lambda rows: {
            "peak": max(_batches(rows, "rw-u").values()), "b=1": rows["rw-u-b1"].throughput,
        }, unit=" tx/s"),
        Claim("Fig 6b", "RW-Z gain at its peak over b=1", "fig6b",
              lambda rows: _peak_gain(rows, "rw-z"), 1.4),
        Claim("Fig 6b", "RW-Z peak batch size", "fig6b",
              lambda rows: _peak(rows, "rw-z"), 4, unit=""),
        Claim("Fig 6b", "large batches hurt RW-Z", "fig6b", lambda rows: {
            "peak": max(_batches(rows, "rw-z").values()), "b=32": rows["rw-z-b32"].throughput,
        }, unit=" tx/s"),
        Claim("Fig 6b", "batching helps RW-U more", "fig6b", lambda rows: {
            "RW-U gain": _peak_gain(rows, "rw-u"), "RW-Z gain": _peak_gain(rows, "rw-z"),
        }),
    ]


def _drop(rows: Rows, behaviour: str) -> float:
    """Fig 7's per-correct-client throughput drop from 0 % to 30 % Byzantine."""
    base = rows[f"{behaviour}@0%"].extra["correct_tps_per_client"]
    worst = rows[f"{behaviour}@30%"].extra["correct_tps_per_client"]
    return 100 * (1 - worst / base) if base else 100.0


def _fig7() -> list[Claim]:
    claims = []
    for figure, dist in (("Fig 7a", "uniform"), ("Fig 7b", "zipfian")):
        run = f"fig7/{dist}"
        claims += [
            Claim(figure, "correct clients keep committing at 30 % Byzantine", run,
                  lambda rows: {
                      "slowest behaviour":
                          min(_correct(rows[f"{b}@30%"]) for b in FAILURE_BEHAVIOURS),
                      "zero": 0.0,
                  }, unit=" tx/s"),
            Claim(figure, "stall attacks degrade gracefully: drop per correct "
                  "client at 30 % < 25 %", run, lambda rows: {
                      "bound": 25.0,
                      "worst stall drop":
                          max(_drop(rows, "stall-early"), _drop(rows, "stall-late")),
                  }, unit="%", expected_fail=UNEXPLAINED),
            Claim(figure, "equiv-forced costs the most", run, lambda rows: {
                "equiv-forced drop": _drop(rows, "equiv-forced"),
                "worst other drop": max(_drop(rows, b) for b in FAILURE_BEHAVIOURS[:3]),
            }, unit="%"),
        ]
        if dist == "uniform":
            claims.append(Claim(figure, "equiv-real rarely succeeds without contention "
                                "(< 1 % of attempts)", run, lambda rows: {
                "bound": 1.0,
                "success rate": 100 * rows["equiv-real@30%"].extra.get("equiv_success_rate", 0),
            }, unit="%"))
    return claims


def _ablations() -> list[Claim]:
    return [
        Claim("Ablations", "signature aggregation relieves verification (RW-U)",
              "ablation/aggregation",
              _by(_tput, ("aggregated", "aggregated"), ("per-signature", "per-signature")),
              unit=" tx/s"),
        Claim("Ablations", "aggressive dependency recovery beats lazy "
              "(correct tx/s, 30 % stall-early, RW-Z)", "ablation/dependency-timeout",
              lambda rows: {
                  "2-5 ms (best)": max(_correct(rows["dep-timeout=2ms"]),
                                       _correct(rows["dep-timeout=5ms"])),
                  "50 ms": _correct(rows["dep-timeout=50ms"]),
              }, unit=" tx/s"),
    ]


CLAIMS: list[Claim] = _fig4() + _fig56() + _fig7() + _ablations()
