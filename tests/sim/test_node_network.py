"""Tests for the node CPU model and the network transport."""

import pytest

from repro.config import NetworkConfig, NodeConfig
from repro.sim.loop import Simulator
from repro.sim.network import Network
from repro.sim.node import Cpu, Node


class Echo(Node):
    """Replies 'ack' to every message and records what it saw."""

    def __init__(self, sim, name, network, **kw):
        super().__init__(sim, name, **kw)
        self.network = network
        self.seen = []

    async def handle_message(self, sender, message):
        self.seen.append((sender, message))
        if message != "ack":
            self.network.send(self, sender, "ack")


def make_pair(sim, **net_kw):
    net = Network(sim, NetworkConfig(jitter=0.0, **net_kw))
    a = Echo(sim, "a", net, config=NodeConfig(message_overhead=0.0))
    b = Echo(sim, "b", net, config=NodeConfig(message_overhead=0.0))
    net.register(a)
    net.register(b)
    return net, a, b


def test_message_roundtrip_latency():
    sim = Simulator(seed=1)
    net, a, b = make_pair(sim)
    net.send(a, "b", "hello")
    sim.run()
    assert b.seen == [("a", "hello")]
    assert a.seen == [("b", "ack")]
    # two one-way hops at 75us each
    assert sim.now == pytest.approx(150e-6)


def test_sender_identity_is_authentic():
    sim = Simulator(seed=1)
    net, a, b = make_pair(sim)
    net.send(a, "b", "m")
    sim.run()
    assert b.seen[0][0] == "a"


def test_broadcast_reaches_all():
    sim = Simulator(seed=1)
    net = Network(sim, NetworkConfig(jitter=0.0))
    nodes = [Echo(sim, f"n{i}", net, config=NodeConfig(message_overhead=0.0)) for i in range(4)]
    for n in nodes:
        net.register(n)
    net.broadcast(nodes[0], [n.name for n in nodes[1:]], "ping")
    sim.run(until=0.001)
    assert all(("n0", "ping") in n.seen for n in nodes[1:])


def test_drop_rate_drops_messages():
    sim = Simulator(seed=7)
    net, a, b = make_pair(sim, drop_rate=1.0)
    net.send(a, "b", "x")
    sim.run()
    assert b.seen == []
    assert net.messages_dropped == 1


def test_adversary_can_delay_and_drop():
    class Adversary:
        def intercept(self, src, dst, message, base_delay):
            if message == "drop-me":
                return None
            return base_delay + 0.5

    sim = Simulator(seed=1)
    net = Network(sim, NetworkConfig(jitter=0.0), adversary=Adversary())
    a = Echo(sim, "a", net, config=NodeConfig(message_overhead=0.0))
    b = Echo(sim, "b", net, config=NodeConfig(message_overhead=0.0))
    net.register(a)
    net.register(b)
    net.send(a, "b", "drop-me")
    net.send(a, "b", "keep")
    sim.run(until=1.0)
    assert [m for _, m in b.seen] == ["keep"]
    assert sim.now >= 0.5


def test_duplicate_node_registration_rejected():
    sim = Simulator()
    net = Network(sim)
    n = Echo(sim, "dup", net)
    net.register(n)
    with pytest.raises(Exception):
        net.register(Echo(sim, "dup", net))


def test_cpu_serializes_work_beyond_core_count():
    sim = Simulator()
    cpu = Cpu(sim, cores=2)

    async def work():
        await cpu.spend(1.0)

    async def main():
        await sim.gather([work() for _ in range(4)])

    sim.run_until_complete(main())
    # 4 jobs of 1s on 2 cores -> 2s makespan
    assert sim.now == pytest.approx(2.0)
    assert cpu.busy_time == pytest.approx(4.0)


def test_cpu_zero_cost_is_free():
    sim = Simulator()
    cpu = Cpu(sim, cores=1)

    async def main():
        await cpu.spend(0.0)
        await cpu.spend(-1.0)
        return sim.now

    assert sim.run_until_complete(main()) == 0.0
    assert sim.events_processed == 0 and sim._seq == 0  # never suspended


def test_cpu_utilization():
    sim = Simulator()
    cpu = Cpu(sim, cores=4)

    async def main():
        await cpu.spend(2.0)

    sim.run_until_complete(main())
    assert cpu.utilization(elapsed=2.0) == pytest.approx(2.0 / 8.0)


def test_node_message_overhead_charges_cpu():
    sim = Simulator(seed=1)
    net = Network(sim, NetworkConfig(jitter=0.0))
    a = Echo(sim, "a", net, config=NodeConfig(message_overhead=0.0))
    b = Echo(sim, "b", net, config=NodeConfig(cores=1, message_overhead=10e-6))
    net.register(a)
    net.register(b)
    for _ in range(5):
        net.send(a, "b", "work")
    sim.run()
    assert b.cpu.busy_time == pytest.approx(50e-6)


def test_local_clock_respects_offset():
    sim = Simulator()
    net = Network(sim)
    n = Echo(sim, "n", net)
    n.clock_offset = 0.010
    sim.run(until=1.0)
    assert n.local_time == pytest.approx(1.010)
