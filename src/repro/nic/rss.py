"""Receive Side Scaling: distribute flows across queues.

The paper's testbed uses RSS on an Intel 82599 and observes an even spread
("each core handles almost the same amount of network loads", Sec. 6.1).
The default hash mixes the flow id so sequential flow ids spread evenly.
"""

from __future__ import annotations


def _mix(value: int) -> int:
    """A small 64-bit integer hash (splitmix64 finalizer)."""
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


class RssDistributor:
    """Maps flow ids to queue indices.

    ``mode='hash'`` uses a mixing hash (realistic); ``mode='round-robin'``
    maps flow id modulo queue count (perfectly even, useful in tests).
    """

    MODES = ("hash", "round-robin")

    def __init__(self, n_queues: int, mode: str = "hash"):
        if n_queues < 1:
            raise ValueError("need at least one queue")
        if mode not in self.MODES:
            raise ValueError(f"unknown RSS mode {mode!r}")
        self.n_queues = n_queues
        self.mode = mode

    def queue_for(self, flow_id: int) -> int:
        """Queue index for a flow id (stable per flow)."""
        if self.mode == "round-robin":
            return flow_id % self.n_queues
        # _mix, inlined: every arriving request packet hashes here.
        value = (flow_id + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return (value ^ (value >> 31)) % self.n_queues
