"""Satellite guard: telemetry-off runs are byte-identical to pre-obs runs.

Two layers of the zero-overhead contract:

* With no registry attached (the default), the guarded instrumentation
  sites never run and the golden closed-loop digests of all three
  systems match the ledger's ``load/<kind>`` entries exactly.
* With a registry attached but *no ticker*, metrics are plain int
  mutations: no events are scheduled, no RNG streams are drawn, so the
  run digest and event count still match the golden values.
"""

import pytest

from repro.obs.registry import MetricsRegistry
from tests.load.test_determinism import KINDS, capture, pinned


@pytest.mark.parametrize("kind", KINDS)
def test_unconfigured_runs_keep_golden_digests(kind, pin):
    digest, result, system = capture(kind)
    assert system.sim.instruments is None  # nothing attached
    pin(f"load/{kind}", pinned(digest, result, system))


@pytest.mark.parametrize("kind", KINDS)
def test_registry_without_ticker_keeps_golden_digests(kind, monkeypatch, pin):
    """Counting alone must not perturb a single event or RNG draw."""
    import repro.core.system as core_system
    import repro.baselines.tapir.system as tapir_system
    import repro.baselines.txsmr.system as txsmr_system

    registries = []

    def hook(cls, module, attr):
        orig = getattr(module, attr)

        class Hooked(orig):  # pragma: no cover - trivial subclass
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                registries.append(self.sim.attach_metrics(MetricsRegistry()))

        monkeypatch.setattr(module, attr, Hooked)

    if kind == "basil":
        hook(None, core_system, "BasilSystem")
    elif kind == "tapir":
        hook(None, tapir_system, "TapirSystem")
    else:
        hook(None, txsmr_system, "TxSMRSystem")

    # capture() imports the classes at module import time, so patch the
    # names it actually calls through
    import tests.load.test_determinism as det

    monkeypatch.setattr(
        det, "BasilSystem", core_system.BasilSystem, raising=False
    )
    monkeypatch.setattr(
        det, "TapirSystem", tapir_system.TapirSystem, raising=False
    )
    monkeypatch.setattr(
        det, "TxSMRSystem", txsmr_system.TxSMRSystem, raising=False
    )

    digest, result, system = capture(kind)
    assert registries and system.sim.instruments.metrics is registries[-1]
    # metrics actually accumulated during the run...
    assert len(registries[-1]) > 0
    # ...yet the schedule is untouched
    pin(f"load/{kind}", pinned(digest, result, system))
