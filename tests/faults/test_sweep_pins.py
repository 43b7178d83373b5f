"""The fault sweep at two seeds, one pinned case per row.

``python -m repro sweep faults --seeds 2`` runs 52 cases (every scenario
x each system it applies to x seeds 1 and 2) at quick scale.  Each case
here is one of those rows, run through the same campaign code
(``matrix`` enumerates the cases, ``run_case`` runs one), and pins the
row's status, commits, aborts, faults applied and full trace digest
(ledger entries ``faults/<scenario>/<system>/seed<N>`` in
``tests/pins.json``).  Every case must report zero safety violations.

A change that must not move a schedule leaves every row untouched.
"""

from __future__ import annotations

import pytest

from repro.faults.campaign import matrix, run_case
from repro.faults.scenarios import SCENARIOS, Scale
from tests.conftest import pinned_names

CASES = [(scenario.name, kind, seed) for scenario, kind, seed in matrix(seeds=2)]


@pytest.mark.parametrize("scenario,kind,seed", CASES)
def test_sweep_row_is_pinned(scenario, kind, seed, pin):
    case, _ = run_case(SCENARIOS[scenario], kind, seed, Scale.quick())
    assert case.safety_violations == []
    pin(f"faults/{scenario}/{kind}/seed{seed}", {
        "status": "ok" if case.ok else "FAIL",
        "commits": case.commits,
        "aborts": case.aborts,
        "faults": case.faults_applied,
        "digest": case.digest,
    })


def test_every_sweep_row_is_pinned():
    assert pinned_names("faults/") == sorted(f"faults/{s}/{k}/seed{n}" for s, k, n in CASES)
