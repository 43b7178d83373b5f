"""The load subsystem's determinism guard (golden digests).

The contract (mirrors the fault injector's): with the load subsystem
unconfigured, closed-loop benchmark schedules are byte-identical to the
tree before ``repro.load`` existed.  The event counts, commits and
aborts (ledger entries ``load/<system>`` in ``tests/pins.json``) were
captured on main immediately before the load changes landed, and the
digest is the run's delivery fingerprint — the client timestamp guard,
LoadSignal plumbing, and monitor counters must not perturb a single
event.  If an intentional protocol change shifts them, re-pin with
``pytest --repin``.  The obs and prof golden-digest tests read the
same entries.
"""

from __future__ import annotations

import pytest

from repro.baselines.tapir.system import TapirSystem
from repro.baselines.txsmr.system import TxSMRSystem
from repro.bench.runner import ExperimentRunner
from repro.config import SystemConfig
from repro.core.system import BasilSystem
from repro.workloads.smallbank import SmallbankWorkload
from repro.workloads.ycsb import YCSBWorkload

#: The pinned systems; each one's values are ledger entry ``load/<kind>``.
KINDS = ("basil", "tapir", "txsmr")


def capture(kind: str):
    config = SystemConfig(f=1, num_shards=1, batch_size=4, seed=7)
    if kind == "basil":
        system = BasilSystem(config)
        workload = YCSBWorkload(num_keys=300, reads=2, writes=2, distribution="zipfian")
    elif kind == "tapir":
        system = TapirSystem(config)
        workload = YCSBWorkload(num_keys=300, reads=2, writes=2)
    else:
        system = TxSMRSystem(config, protocol="pbft")
        workload = SmallbankWorkload(num_accounts=500, hot_accounts=50)
    runner = ExperimentRunner(
        system, workload, num_clients=4, duration=0.05, warmup=0.02
    )
    result = runner.run()
    return system.network.digest(), result, system


def pinned(digest, result, system) -> dict[str, int | str]:
    """What ``load/<kind>`` pins of a :func:`capture`-shaped run."""
    return {"digest": digest, "commits": result.commits, "aborts": result.aborts,
            "events": system.sim.events_processed}


@pytest.mark.parametrize("kind", KINDS)
def test_closed_loop_digests_unchanged_by_load_subsystem(kind, pin):
    pin(f"load/{kind}", pinned(*capture(kind)))


def test_open_loop_runs_are_seed_deterministic():
    """Same seed -> byte-identical open-loop schedules (the other direction)."""
    from repro.config import AdmissionConfig, ArrivalConfig
    from repro.load.generator import OpenLoopGenerator

    def run():
        system = BasilSystem(SystemConfig(f=1, num_shards=1, batch_size=4, seed=7))
        workload = YCSBWorkload(num_keys=300, reads=2, writes=2)
        gen = OpenLoopGenerator(
            system,
            workload,
            ArrivalConfig(process="bursty", rate=1_200.0),
            admission=AdmissionConfig(policy="aimd"),
            duration=0.05,
            warmup=0.02,
            proxies=4,
        )
        result = gen.run()
        return system.network.digest(), result

    digest_a, result_a = run()
    digest_b, result_b = run()
    assert digest_a == digest_b
    assert result_a.commits == result_b.commits
    assert result_a.shed_count == result_b.shed_count
