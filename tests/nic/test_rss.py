"""RSS flow distribution."""

import pytest
from hypothesis import given, strategies as st

from repro.nic.rss import RssDistributor, _mix


def test_round_robin_mode_is_modulo():
    rss = RssDistributor(4, mode="round-robin")
    assert [rss.queue_for(i) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_hash_mode_is_stable_per_flow():
    rss = RssDistributor(8)
    assert all(rss.queue_for(i) == rss.queue_for(i) for i in range(100))


def test_hash_mode_spreads_evenly():
    """Sequential flow ids spread nearly evenly (Sec. 6.1's RSS claim)."""
    n_queues, n_flows = 8, 20_000
    rss = RssDistributor(n_queues)
    counts = [0] * n_queues
    for flow in range(n_flows):
        counts[rss.queue_for(flow)] += 1
    expected = n_flows / n_queues
    for c in counts:
        assert abs(c - expected) < 0.1 * expected


def test_invalid_args():
    with pytest.raises(ValueError):
        RssDistributor(0)
    with pytest.raises(ValueError):
        RssDistributor(4, mode="magic")


@given(st.integers(min_value=0), st.integers(min_value=1, max_value=64))
def test_queue_always_in_range(flow, n_queues):
    rss = RssDistributor(n_queues)
    assert 0 <= rss.queue_for(flow) < n_queues


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=1, max_value=64))
def test_hash_mode_is_the_mix_hash(flow, n_queues):
    """queue_for inlines _mix, which the P4 library steers by: the two
    must place every flow on the same queue."""
    assert RssDistributor(n_queues).queue_for(flow) == _mix(flow) % n_queues
