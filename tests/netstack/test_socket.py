"""Socket queues."""

import pytest

from repro.netstack.socket import SocketQueue
from repro.nic.packet import Packet


class FakeThread:
    def __init__(self):
        self.wakes = 0

    def wake(self):
        self.wakes += 1


def pkt():
    return Packet(flow_id=0, size_bytes=64, created_ns=0)


def test_deliver_and_pop_fifo():
    sock = SocketQueue(0)
    a, b = pkt(), pkt()
    sock.deliver(a)
    sock.deliver(b)
    assert sock.packets.popleft() is a
    assert sock.packets.popleft() is b
    assert not sock.packets


def test_deliver_wakes_consumer():
    sock = SocketQueue(0)
    consumer = FakeThread()
    sock.consumer = consumer
    sock.deliver(pkt())
    assert consumer.wakes == 1


def test_capacity_drop():
    sock = SocketQueue(0, capacity=1)
    assert sock.deliver(pkt())
    assert not sock.deliver(pkt())
    assert sock.dropped == 1
    assert sock.delivered == 1


def test_max_depth_tracked():
    sock = SocketQueue(0)
    for _ in range(5):
        sock.deliver(pkt())
    sock.packets.popleft()
    sock.deliver(pkt())
    assert sock.max_depth == 5


def test_invalid_capacity():
    with pytest.raises(ValueError):
        SocketQueue(0, capacity=0)
