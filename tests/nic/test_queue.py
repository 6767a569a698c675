"""NIC queue rings, driven through the NIC that owns their push rules."""

import pytest

from repro.nic.nic import MultiQueueNic
from repro.nic.packet import Packet
from repro.nic.queue import NicQueue
from repro.units import MS


def pkt(flow=0):
    return Packet(flow_id=flow, size_bytes=100, created_ns=0)


def make_nic(sim, **kwargs):
    nic = MultiQueueNic(sim, n_queues=1, **kwargs)
    nic.bind(0, lambda q: None)
    return nic


def test_rx_fifo_order(sim):
    nic = make_nic(sim)
    a, b = pkt(), pkt()
    nic.enqueue_rx(a, 0)
    nic.enqueue_rx(b, 0)
    rx = nic.queues[0].rx
    assert rx.popleft() is a
    assert rx.popleft() is b
    assert not rx


def test_rx_tail_drop_when_full(sim):
    nic = make_nic(sim, rx_capacity=2)
    assert nic.enqueue_rx(pkt(), 0)
    assert nic.enqueue_rx(pkt(), 0)
    assert not nic.enqueue_rx(pkt(), 0)
    queue = nic.queues[0]
    assert queue.rx_dropped == 1
    assert queue.rx_enqueued == 2
    assert nic.rx_packets == 2


def test_txc_ring(sim):
    nic = make_nic(sim)
    a, b = pkt(), pkt()
    nic.transmit(a, 0, lambda packet: None)
    nic.transmit(b, 0, lambda packet: None, segments=3)
    queue = nic.queues[0]
    assert [c.packet_id for c in queue.txc] == [a.packet_id] + [b.packet_id] * 3
    assert queue.txc_enqueued == 4
    assert nic.tx_packets == 2


def test_has_work_reflects_both_rings(sim):
    # Unmasking re-arms the interrupt exactly when either ring holds work.
    fired = []
    nic = MultiQueueNic(sim, n_queues=1)
    nic.bind(0, lambda q: fired.append(sim.now))
    nic.disable_irq(0)
    nic.enable_irq(0)
    sim.run_until(1 * MS)
    assert fired == []
    nic.disable_irq(0)
    nic.enqueue_rx(pkt(), 0)
    nic.enable_irq(0)
    sim.run_until(2 * MS)
    assert len(fired) == 1
    nic.disable_irq(0)
    nic.queues[0].rx.popleft()
    nic.transmit(pkt(), 0, lambda packet: None)
    nic.enable_irq(0)
    sim.run_until(3 * MS)
    assert len(fired) == 2


def test_rx_depth(sim):
    nic = make_nic(sim)
    nic.enqueue_rx(pkt(), 0)
    nic.enqueue_rx(pkt(), 0)
    assert len(nic.queues[0].rx) == 2


def test_invalid_capacity():
    with pytest.raises(ValueError):
        NicQueue(0, rx_capacity=0)
