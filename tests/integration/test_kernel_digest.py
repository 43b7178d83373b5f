"""Kernel-rewrite determinism oracle (PR 3).

The PR 3 kernel overhaul (iterative trampoline, tombstoned timers,
combinator fixes, coroutine ``Queue.get``) must not perturb a single
event of a seeded protocol run.  The golden event count, commits and
aborts (ledger entry ``kernel/golden`` in ``tests/pins.json``) were
captured on the *pre-rewrite* kernel (commit 05331af) with the exact
configuration in ``_golden_run``, next to the run digest (the network's
delivery fingerprint); the verification memo of the same PR is switched off
for this run (``verify_memo=False``) because it intentionally changes
simulated schedules.

If this test fails after a kernel change, the change reordered or
dropped events — that is a correctness bug, not an acceptable drift.
If it fails after an *intentional* semantic change to the protocol or
cost model, re-pin (``pytest --repin``) and say so in the commit message.
"""

from repro.bench.runner import ExperimentRunner
from repro.config import CryptoConfig, SystemConfig
from repro.core.system import BasilSystem
from repro.workloads.ycsb import YCSBWorkload

def _golden_run():
    config = SystemConfig(
        f=1,
        num_shards=2,
        batch_size=4,
        seed=2024,
        crypto=CryptoConfig(verify_memo=False),
    )
    system = BasilSystem(config)
    workload = YCSBWorkload(num_keys=500, reads=2, writes=2)
    runner = ExperimentRunner(
        system, workload, num_clients=6, duration=0.05, warmup=0.02
    )
    result = runner.run()
    return system, result


def test_kernel_rewrite_preserves_golden_digest(pin):
    system, result = _golden_run()
    pin("kernel/golden", {
        "digest": system.network.digest(), "commits": result.commits,
        "aborts": result.aborts, "events": system.sim.events_processed,
    })


def test_golden_run_is_internally_deterministic():
    """Independent of the recorded digest: two fresh runs agree byte-for-byte
    (guards the digest constant itself against environment drift)."""
    s1, r1 = _golden_run()
    s2, r2 = _golden_run()
    assert (r1.commits, r1.aborts) == (r2.commits, r2.aborts)
    assert s1.network.digest() == s2.network.digest()
