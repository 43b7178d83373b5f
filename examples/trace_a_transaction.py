#!/usr/bin/env python3
"""Trace one Basil transaction end-to-end.

Attaches the deterministic flight recorder (:mod:`repro.trace`) to a
single-shard Basil cluster, runs one read-modify-write transaction, and
prints where its latency went: the client-side lifecycle phases
(execute -> ST1 -> ST2 -> writeback) tile the end-to-end latency, so
their durations sum to it exactly.

Also exports the Chrome ``trace_event`` JSON — open it in
``chrome://tracing`` or https://ui.perfetto.dev to see every message,
signature, and MVTSO check on a per-node timeline.

Run:  python examples/trace_a_transaction.py
"""

from repro import BasilSystem, SystemConfig
from repro.core.api import TransactionSession
from repro.trace import Tracer
from repro.trace.analysis import phase_durations, render_phase_breakdown, transaction_phases
from repro.trace.export import write_chrome_trace


def main() -> None:
    system = BasilSystem(SystemConfig(f=1, num_shards=1))
    tracer = system.sim.attach_tracer(Tracer())  # recording from here on
    system.load({"balance": 100})

    async def pay(session: TransactionSession):
        balance = await session.read("balance")
        session.write("balance", balance - 5)
        return balance

    result = system.run_transaction(pay)
    system.run()  # drain the asynchronous writeback
    txid = result.txid.hex()
    print(f"txn {txid[:12]}: committed={result.committed} "
          f"fast_path={result.fast_path}\n")

    # -- where did the latency go? --------------------------------------
    phases = transaction_phases(tracer, txid)
    for event in phases:
        print(f"  {event.name:<10} {event.ts * 1e6:9.1f}µs  "
              f"+{event.dur * 1e6:8.2f}µs")
    total = sum(phase_durations(tracer, txid).values())
    end_to_end = phases[-1].ts + phases[-1].dur - phases[0].ts
    print(f"  {'total':<10} {'':>9}   {total * 1e6:9.2f}µs "
          f"(end-to-end {end_to_end * 1e6:.2f}µs)")
    assert abs(total - end_to_end) < 1e-12, "phases must tile the latency"

    print()
    print(render_phase_breakdown(tracer, title="phase breakdown"))
    print(f"\nrecorded {len(tracer)} events "
          f"({tracer.dropped_events} evicted)")

    digest = write_chrome_trace(tracer, "transaction.trace.json")
    print(f"wrote transaction.trace.json (digest {digest[:12]}) — "
          f"open in chrome://tracing")


if __name__ == "__main__":
    main()
