"""Unit tests for the simulated network (S13)."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics
from repro.sim import Network, RngStream, Simulator


@dataclass(frozen=True)
class Ping:
    sender: str
    recipient: str
    payload: int = 0


class _SizedPing:
    def __init__(self, sender, recipient, payload=0):
        self.sender = sender
        self.recipient = recipient
        self.payload = payload

    def wire_size(self):
        return 100


class TestDelivery:
    def test_basic_delivery_after_latency(self):
        sim = Simulator()
        net = Network(sim, latency=0.1)
        inbox = []
        net.register("b", inbox.append)
        net.send(Ping("a", "b", 1))
        sim.run()
        assert [m.payload for m in inbox] == [1]
        assert sim.now == pytest.approx(0.1)

    def test_delivery_order_without_jitter_is_fifo(self):
        sim = Simulator()
        net = Network(sim, latency=0.1)
        inbox = []
        net.register("b", inbox.append)
        for i in range(5):
            net.send(Ping("a", "b", i))
        sim.run()
        assert [m.payload for m in inbox] == [0, 1, 2, 3, 4]

    def test_jitter_can_reorder(self):
        # With jitter much larger than spacing, some pair must reorder.
        sim = Simulator()
        net = Network(sim, rng=RngStream(7), latency=0.01, jitter=5.0)
        inbox = []
        net.register("b", inbox.append)
        for i in range(20):
            net.send(Ping("a", "b", i))
        sim.run()
        payloads = [m.payload for m in inbox]
        assert sorted(payloads) == list(range(20))
        assert payloads != list(range(20))

    def test_unknown_recipient_dropped(self):
        sim = Simulator()
        net = Network(sim)
        net.send(Ping("a", "nowhere"))
        sim.run()
        assert net.stats.dropped_no_recipient == 1
        assert net.stats.delivered == 0


class TestLoss:
    def test_loss_rate_respected_statistically(self):
        sim = Simulator()
        net = Network(sim, rng=RngStream(42), loss=0.3)
        inbox = []
        net.register("b", inbox.append)
        for i in range(1000):
            net.send(Ping("a", "b", i))
        sim.run()
        assert net.stats.dropped_loss + net.stats.delivered == 1000
        assert 0.2 < net.stats.dropped_loss / 1000 < 0.4

    def test_zero_loss_delivers_everything(self):
        sim = Simulator()
        net = Network(sim, loss=0.0)
        inbox = []
        net.register("b", inbox.append)
        for i in range(100):
            net.send(Ping("a", "b", i))
        sim.run()
        assert len(inbox) == 100

    def test_invalid_loss_rejected(self):
        with pytest.raises(ValueError):
            Network(Simulator(), loss=1.0)
        with pytest.raises(ValueError):
            Network(Simulator(), loss=-0.1)

    def test_determinism_across_runs(self):
        def run():
            sim = Simulator()
            net = Network(sim, rng=RngStream(9), loss=0.5)
            inbox = []
            net.register("b", inbox.append)
            for i in range(50):
                net.send(Ping("a", "b", i))
            sim.run()
            return [m.payload for m in inbox]

        assert run() == run()


class TestCrashes:
    def test_messages_to_down_node_lost(self):
        sim = Simulator()
        net = Network(sim, latency=0.1)
        inbox = []
        net.register("b", inbox.append)
        net.set_down("b")
        net.send(Ping("a", "b"))
        sim.run()
        assert inbox == []
        assert net.stats.dropped_down == 1

    def test_revived_node_receives_again(self):
        sim = Simulator()
        net = Network(sim, latency=0.1)
        inbox = []
        net.register("b", inbox.append)
        net.set_down("b")
        net.send(Ping("a", "b", 1))
        sim.run()
        net.set_down("b", down=False)
        net.send(Ping("a", "b", 2))
        sim.run()
        assert [m.payload for m in inbox] == [2]

    def test_crash_mid_flight_loses_message(self):
        sim = Simulator()
        net = Network(sim, latency=1.0)
        inbox = []
        net.register("b", inbox.append)
        net.send(Ping("a", "b", 1))  # in flight until t=1
        sim.schedule(0.5, lambda: net.set_down("b"))
        sim.run()
        assert inbox == []

    def test_register_revives(self):
        sim = Simulator()
        net = Network(sim)
        net.set_down("b")
        net.register("b", lambda m: None)
        assert not net.is_down("b")


class TestStatsDropAccounting:
    def test_every_drop_path_has_its_own_counter(self):
        sim = Simulator()
        net = Network(sim, rng=RngStream(3), latency=0.01)
        net.register("b", lambda m: None)
        net.set_down("b")
        net.send(Ping("a", "b"))       # recipient down
        net.send(Ping("a", "ghost"))   # no such recipient
        sim.run()
        assert net.stats.dropped_down == 1
        assert net.stats.dropped_no_recipient == 1
        assert net.stats.dropped_loss == 0
        assert net.stats.delivered == 0

    def test_sender_down_counts_as_down_drop(self):
        sim = Simulator()
        net = Network(sim, latency=0.01)
        inbox = []
        net.register("b", inbox.append)
        net.set_down("a")
        net.send(Ping("a", "b"))
        sim.run()
        assert inbox == []
        assert net.stats.dropped_down == 1


class TestChaosFabric:
    def make(self, plan):
        from repro.sim.chaos import ChaosController

        sim = Simulator()
        net = Network(sim, rng=RngStream(8), latency=0.01)
        inbox = []
        net.register("b", inbox.append)
        ChaosController(plan).arm(sim, net)
        return sim, net, inbox

    def test_partition_drops_and_counts(self):
        from repro.sim.chaos import ChaosPlan, PartitionWindow

        sim, net, inbox = self.make(
            ChaosPlan(partitions=(PartitionWindow(0, 100, "a", "b"),))
        )
        for _ in range(5):
            net.send(Ping("a", "b"))
        net.send(Ping("c", "b"))  # unmatched sender flows
        sim.run()
        assert net.stats.dropped_partition == 5
        assert len(inbox) == 1

    def test_duplication_delivers_extra_copies(self):
        from repro.sim.chaos import ChaosPlan, DuplicationWindow

        sim, net, inbox = self.make(
            ChaosPlan(duplications=(DuplicationWindow(0, 100, 1.0, copies=2),))
        )
        net.send(Ping("a", "b", 7))
        sim.run()
        assert net.stats.duplicated == 2
        assert [m.payload for m in inbox] == [7, 7, 7]

    def test_chaos_loss_counts_in_dropped_loss(self):
        from repro.sim.chaos import ChaosPlan, LossWindow

        sim, net, inbox = self.make(
            ChaosPlan(seed=4, losses=(LossWindow(0, 100, 0.5),))
        )
        for i in range(200):
            net.send(Ping("a", "b", i))
        sim.run()
        assert net.stats.dropped_loss + net.stats.delivered == 200
        assert 60 < net.stats.dropped_loss < 140


class TestSendPath:
    @given(
        latency=st.sampled_from([0.0, 0.01, 0.05, 0.3]),
        offsets=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=30
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_clean_send_draws_nothing_and_arrives_after_latency(
        self, latency, offsets
    ):
        # Lossy and chaos seeds depend on draw order: a send on a clean
        # network (no loss, no jitter, no chaos) must not touch the
        # network's stream, and arrives exactly ``latency`` later.
        sim = Simulator()
        net = Network(sim, rng=RngStream(11), latency=latency)
        arrivals = []
        net.register("b", lambda m: arrivals.append((m.payload, sim.now)))
        expected = []
        for i, offset in enumerate(offsets):
            sim.schedule(offset, net.send, Ping("a", "b", i))
            expected.append((i, offset + latency))
        sim.run()
        assert sorted(arrivals) == expected
        assert net.stats.sent == net.stats.delivered == len(offsets)
        # The stream's next draw is still a fresh stream's first one.
        assert net.rng.random() == RngStream(11).fork("network").random()

    def test_lossy_send_draws_once_per_send(self):
        sim = Simulator()
        net = Network(sim, rng=RngStream(11), latency=0.05, loss=0.5)
        net.register("b", lambda m: None)
        net.send(Ping("a", "b"))
        reference = RngStream(11).fork("network")
        reference.random()  # the loss draw
        assert net.rng.random() == reference.random()

    def test_revive_is_schedulable_without_closure(self):
        sim = Simulator()
        net = Network(sim, latency=0.1)
        inbox = []
        net.register("b", inbox.append)
        net.set_down("b")
        sim.schedule(1.0, net.revive, "b")
        sim.schedule(2.0, net.send, _SizedPing("a", "b", 7))
        sim.run()
        assert [m.payload for m in inbox] == [7]

    def test_bytes_sent_counts_only_while_metrics_enabled(self):
        sim = Simulator()
        net = Network(sim, latency=0.1)
        net.register("b", lambda m: None)
        net.send(_SizedPing("a", "b"))  # metrics off: not sized
        assert net.stats.bytes_sent == 0
        metrics.enable()
        try:
            net.send(_SizedPing("a", "b"))
            assert net.stats.bytes_sent == 100

            class Unsized:
                sender = "a"
                recipient = "b"

            net.send(Unsized())  # no wire_size method → contributes 0
        finally:
            metrics.disable()
            metrics.reset()
        assert net.stats.bytes_sent == 100
