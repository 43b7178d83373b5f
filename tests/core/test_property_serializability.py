"""Property-based check of Lemma 1: MVTSO-Check admits only
serializable histories.

We drive a single replica's check with randomly generated transactions
whose reads observe the store the way a correct client would, commit or
abort them randomly, and then *replay* the committed set in timestamp
order: every committed read must have observed exactly the version the
serial replay produces.  Any missed-write or lost-update admitted by the
check would fail the replay.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mvtso import (
    CheckStatus,
    TxPhase,
    apply_commit,
    mvtso_check,
    undo_prepare,
)
from repro.core.timestamps import GENESIS, Timestamp
from repro.core.transaction import Dep, TxBuilder
from repro.storage.versionstore import VersionStore

KEYS = ["a", "b", "c"]
DELTA = 1e9  # no timestamp-bound rejections in this harness
NOW = 0.0


@st.composite
def tx_plans(draw):
    """A schedule: per txn (timestamp, read keys, write keys, commit?)."""
    count = draw(st.integers(min_value=1, max_value=12))
    stamps = draw(
        st.lists(
            st.integers(min_value=1, max_value=10_000),
            min_size=count, max_size=count, unique=True,
        )
    )
    plans = []
    for ts in stamps:
        reads = draw(st.lists(st.sampled_from(KEYS), max_size=2, unique=True))
        writes = draw(st.lists(st.sampled_from(KEYS), max_size=2, unique=True))
        commit = draw(st.booleans())
        plans.append((ts, tuple(reads), tuple(writes), commit))
    return plans


@settings(max_examples=120, deadline=None)
@given(tx_plans())
def test_committed_history_replays_serially(plans):
    store = VersionStore()
    states: dict = {}
    committed = []  # (tx, observed: {key: version_ts})
    seq = 0

    for ts_raw, reads, writes, want_commit in plans:
        ts = Timestamp(ts_raw, 1)
        builder = TxBuilder(timestamp=ts)
        observed = {}
        dep_ids = []
        for key in reads:
            # read like a correct client: the highest visible version
            committed_v = store.latest_committed(key, ts)
            prepared_v = store.latest_prepared(key, ts)
            best = None
            for v in (committed_v, prepared_v):
                if v is not None and (best is None or v.timestamp > best.timestamp):
                    best = v
            version = best.timestamp if best else GENESIS
            builder.record_read(key, version)
            observed[key] = version
            if best is not None and best is prepared_v:
                builder.record_dep(Dep(txid=best.writer, key=key, version=version))
                dep_ids.append(best.writer)
        for key in writes:
            seq += 1
            builder.record_write(key, ("val", ts_raw, seq))
        tx = builder.freeze()
        result = mvtso_check(store, states, tx, local_time=NOW, delta=DELTA)
        if result.status is not CheckStatus.PREPARED:
            continue
        # commit only if desired AND all deps committed (step 7 semantics)
        deps_ok = all(
            states[d].phase is TxPhase.COMMITTED for d in tx.dep_ids()
        )
        if want_commit and deps_ok:
            apply_commit(store, tx)
            states[tx.txid].phase = TxPhase.COMMITTED
            committed.append((tx, observed))
        else:
            undo_prepare(store, tx)
            states[tx.txid].phase = TxPhase.ABORTED

    store.check_invariants()

    # serial replay in timestamp order
    last_write: dict = {key: GENESIS for key in KEYS}
    for tx, observed in sorted(committed, key=lambda e: e[0].timestamp):
        for key, version in observed.items():
            assert version == last_write[key], (
                f"txn {tx.timestamp} read {key}@{version}, serial replay "
                f"says {last_write[key]}"
            )
        for key, _value in tx.write_set:
            last_write[key] = tx.timestamp


@settings(max_examples=60, deadline=None)
@given(tx_plans())
def test_store_invariants_survive_any_schedule(plans):
    store = VersionStore()
    states: dict = {}
    for ts_raw, reads, writes, want_commit in plans:
        ts = Timestamp(ts_raw, 1)
        builder = TxBuilder(timestamp=ts)
        for key in reads:
            v = store.latest_committed(key, ts)
            builder.record_read(key, v.timestamp if v else GENESIS)
        for key in writes:
            builder.record_write(key, ts_raw)
        tx = builder.freeze()
        result = mvtso_check(store, states, tx, local_time=NOW, delta=DELTA)
        if result.status is CheckStatus.PREPARED:
            if want_commit:
                apply_commit(store, tx)
                states[tx.txid].phase = TxPhase.COMMITTED
            else:
                undo_prepare(store, tx)
                states[tx.txid].phase = TxPhase.ABORTED
        store.check_invariants()
