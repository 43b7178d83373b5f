"""Unit tests for the attribution engine: frames, classify, table algebra."""

import pytest

from repro.prof.profiler import (
    Profiler,
    merge_tables,
    render_table,
    top_shares,
)
from repro.sim.loop import Simulator


def test_attach_profiler_installs_it():
    sim = Simulator(seed=1)
    profiler = Profiler()
    assert sim.attach_profiler(profiler) is profiler
    assert sim.instruments.profiler is profiler
    assert sim.instruments.tracer is None and sim.instruments.metrics is None


def test_exclusive_time_partitions_wall():
    """Nested frames: child elapsed subtracts from the parent's row, so
    the table total equals the outer frame's span (no double counting)."""
    p = Profiler()
    p.begin("outer")
    p.begin("inner")
    x = 0
    for _ in range(20_000):
        x += 1
    p.end()
    p.end()
    table = p.table()
    assert set(table) == {"outer", "inner"}
    assert table["inner"]["wall_s"] > 0.0
    assert table["outer"]["wall_s"] >= 0.0
    assert table["outer"]["calls"] == 1
    assert table["inner"]["calls"] == 1
    # outer exclusive + inner elapsed == outer elapsed: total is a
    # partition of the outer span, so it cannot exceed a fresh wall
    # measurement around the same region by more than timer noise.
    assert p.total() == pytest.approx(
        table["outer"]["wall_s"] + table["inner"]["wall_s"]
    )


def test_repeated_frames_accumulate():
    p = Profiler()
    for _ in range(5):
        p.begin("loop")
        p.end()
    assert p.table()["loop"]["calls"] == 5


def test_add_direct_accumulation():
    p = Profiler()
    p.add("merged", 0.5, calls=3)
    p.add("merged", 0.25)
    row = p.table()["merged"]
    assert row["wall_s"] == pytest.approx(0.75)
    assert row["calls"] == 4


def test_classify_known_kernel_callbacks():
    from repro.sim.network import Network
    from repro.sim.node import Cpu

    p = Profiler()
    sim = Simulator(seed=1)
    net = Network(sim)
    cpu = Cpu(sim, cores=1)
    assert p.classify(net._deliver) == "network.deliver"
    assert p.classify(cpu._finish) == "cpu.finish"
    assert p.classify(sim._resolve_sleep) == "timer.sleep"


def test_classify_unknown_callback_by_qualname():
    p = Profiler()

    def on_timeout():
        pass

    label = p.classify(on_timeout)
    assert label.startswith("dispatch.")
    assert "on_timeout" in label
    assert "<locals>" not in label
    # Cached second lookup returns the same label.
    assert p.classify(on_timeout) == label


def test_merge_tables_sums_and_sorts():
    a = {"x": {"wall_s": 1.0, "calls": 2}, "y": {"wall_s": 0.1, "calls": 1}}
    b = {"y": {"wall_s": 3.0, "calls": 4}}
    merged = merge_tables([a, b])
    assert list(merged) == ["y", "x"]  # descending wall
    assert merged["y"]["wall_s"] == pytest.approx(3.1)
    assert merged["y"]["calls"] == 5
    assert merge_tables([]) == {}


def test_top_shares_sum_to_one_over_full_table():
    table = {
        "a": {"wall_s": 3.0, "calls": 1},
        "b": {"wall_s": 1.0, "calls": 1},
    }
    top = top_shares(table, 2)
    assert [row["subsystem"] for row in top] == ["a", "b"]
    assert sum(row["share"] for row in top) == pytest.approx(1.0)
    assert top[0]["share"] == pytest.approx(0.75)


def test_render_table_coverage_footer_and_limit():
    table = {
        "big": {"wall_s": 0.8, "calls": 10},
        "mid": {"wall_s": 0.15, "calls": 5},
        "tiny": {"wall_s": 0.01, "calls": 1},
    }
    text = render_table(table, wall_s=1.0, limit=2)
    assert "big" in text and "mid" in text
    assert "tiny" not in text
    assert "(+1 more)" in text
    assert "attributed" in text
    assert "96.0%" in text  # 0.96 of measured wall


def test_profiled_simulator_attributes_dispatch():
    """A real (tiny) sim run populates kernel subsystems."""
    sim = Simulator(seed=9)
    profiler = sim.attach_profiler(Profiler())
    fired = []
    sim.call_later(0.01, lambda: fired.append(1))

    async def napper():
        await sim.sleep(0.02)

    sim.create_task(napper())
    sim.run()
    table = profiler.table()
    assert fired == [1]
    assert "kernel.loop" in table
    assert "kernel.heap_push" in table
    assert "task.step" in table
    assert "timer.sleep" in table
    assert profiler.total() > 0.0
