"""Per-queue Rx ring and Tx-completion ring."""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.nic.packet import Packet, TxCompletion


class NicQueue:
    """One hardware queue: a bounded Rx ring plus a Tx-completion ring.

    The rings are plain deques. :class:`~repro.nic.nic.MultiQueueNic`
    owns the push rules: the Rx ring drops packets when full (tail drop),
    as real NICs do under sustained overload, and drops are counted for
    diagnostics; the Tx-completion ring is unbounded. Pollers pop the
    deques directly.
    """

    def __init__(self, queue_id: int, rx_capacity: int = 1024):
        if rx_capacity <= 0:
            raise ValueError("rx capacity must be positive")
        self.queue_id = queue_id
        self.rx_capacity = rx_capacity
        self.rx: Deque[Packet] = deque()
        self.txc: Deque[TxCompletion] = deque()
        self.rx_enqueued = 0
        self.rx_dropped = 0
        self.txc_enqueued = 0
