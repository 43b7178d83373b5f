"""Adversary-path coverage for the network transport.

Exercises every drop/delay path in :mod:`repro.sim.network` — random
loss, adversarial drops, adversarial delays, and delivery to a
deregistered node — and checks both the ``messages_dropped`` accounting
and the drop *reason* recorded by the tracer.
"""

import pytest

from repro.config import NetworkConfig, NodeConfig
from repro.sim.loop import Simulator
from repro.sim.network import Network, PassiveAdversary
from repro.sim.node import Node
from repro.trace import Tracer


class Sink(Node):
    def __init__(self, sim, name, **kw):
        super().__init__(sim, name, **kw)
        self.seen = []

    async def handle_message(self, sender, message):
        self.seen.append((sender, message))


class SelectiveAdversary:
    """Drops messages whose payload says so; delays the rest by extra."""

    def __init__(self, extra: float = 0.0):
        self.extra = extra
        self.intercepted = 0

    def intercept(self, src, dst, message, base_delay):
        self.intercepted += 1
        if isinstance(message, str) and message.startswith("drop"):
            return None
        return base_delay + self.extra


def make_net(sim, adversary=None, **net_kw):
    net = Network(sim, NetworkConfig(jitter=0.0, **net_kw), adversary=adversary)
    a = Sink(sim, "a", config=NodeConfig(message_overhead=0.0))
    b = Sink(sim, "b", config=NodeConfig(message_overhead=0.0))
    net.register(a)
    net.register(b)
    return net, a, b


def test_adversary_drop_is_counted_and_traced():
    sim = Simulator(seed=3)
    tracer = sim.attach_tracer(Tracer())
    net, a, b = make_net(sim, adversary=SelectiveAdversary())
    net.send(a, "b", "drop-this")
    net.send(a, "b", "keep-this")
    sim.run()
    assert b.seen == [("a", "keep-this")]
    assert net.messages_dropped == 1
    assert net.messages_delivered == 1
    drops = [e for e in tracer if e.category == "net" and e.name == "drop"]
    assert len(drops) == 1
    assert drops[0].fields["reason"] == "adversary"
    assert drops[0].fields["dst"] == "b"
    assert drops[0].node == "a"  # attributed to the sender


def test_adversary_delay_shifts_delivery_time():
    sim = Simulator(seed=3)
    tracer = sim.attach_tracer(Tracer())
    adversary = SelectiveAdversary(extra=0.25)
    net, a, b = make_net(sim, adversary=adversary)
    net.send(a, "b", "slow")
    sim.run()
    assert b.seen == [("a", "slow")]
    assert adversary.intercepted == 1
    assert sim.now == pytest.approx(0.25 + net.config.one_way_latency)
    (send,) = [e for e in tracer if e.name == "send"]
    assert send.fields["delay"] == pytest.approx(0.25 + net.config.one_way_latency)


def test_drop_rate_loss_is_counted_and_traced():
    sim = Simulator(seed=7)
    tracer = sim.attach_tracer(Tracer())
    net, a, b = make_net(sim, drop_rate=1.0)
    net.send(a, "b", "x")
    sim.run()
    assert b.seen == []
    assert net.messages_dropped == 1
    (drop,) = [e for e in tracer if e.name == "drop"]
    assert drop.fields["reason"] == "drop_rate"
    assert drop.fields["msg"] == "str"


def test_unregistered_destination_drop_is_traced():
    sim = Simulator(seed=1)
    tracer = sim.attach_tracer(Tracer())
    net, a, b = make_net(sim)
    net.send(a, "b", "mid-flight")
    net._nodes.pop("b")  # node torn down while the message is in flight
    sim.run()
    assert net.messages_dropped == 1
    (drop,) = [e for e in tracer if e.name == "drop"]
    assert drop.fields["reason"] == "unregistered"


def test_passive_adversary_drops_nothing():
    sim = Simulator(seed=1)
    net, a, b = make_net(sim, adversary=PassiveAdversary())
    for i in range(10):
        net.send(a, "b", i)
    sim.run()
    assert len(b.seen) == 10
    assert net.messages_dropped == 0


def test_mixed_loss_accounting_matches_trace():
    """messages_dropped == number of traced drop events, under both causes."""
    sim = Simulator(seed=11)
    tracer = sim.attach_tracer(Tracer())
    net, a, b = make_net(sim, adversary=SelectiveAdversary(), drop_rate=0.3)
    for i in range(50):
        net.send(a, "b", f"drop-{i}" if i % 5 == 0 else f"keep-{i}")
    sim.run()
    drops = [e for e in tracer if e.category == "net" and e.name == "drop"]
    assert net.messages_dropped == len(drops)
    reasons = {e.fields["reason"] for e in drops}
    assert "adversary" in reasons and "drop_rate" in reasons
    delivers = [e for e in tracer if e.name == "deliver"]
    assert len(delivers) == len(b.seen)
    assert net.messages_dropped + net.messages_delivered == 50
