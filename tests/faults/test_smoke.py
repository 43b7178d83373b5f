"""The `make fault-smoke` campaign: 3 scenarios x 3 seeds, under a minute.

Marked ``fault_smoke`` so it can be selected on its own::

    PYTHONPATH=src python -m pytest -q -m fault_smoke
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.faults.campaign import sweep, sweep_specs
from repro.faults.scenarios import SMOKE_SCENARIOS, Scale


@pytest.mark.fault_smoke
@pytest.mark.parametrize("scenario", SMOKE_SCENARIOS)
def test_fault_smoke(scenario, tmp_path):
    specs = sweep_specs(
        seeds=3,
        scenario_names=(scenario,),
        systems=("basil",),
        scale=Scale.quick(),
    )
    results = sweep(
        [dataclasses.replace(spec, trace=False) for spec in specs],
        Scale.quick(),
        out_dir=str(tmp_path),
        verbose=False,
    )
    assert len(results) == 3
    failures = [case for case in results if not case.ok]
    assert not failures, [
        (case.seed, case.safety_violations, case.liveness_violations)
        for case in failures
    ]
