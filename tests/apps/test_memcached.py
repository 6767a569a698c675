"""memcached application model."""

import random

import pytest

from repro.apps.base import lognormal_cycles
from repro.apps.memcached import MemcachedApp
from repro.apps.registry import make_app
from repro.units import MS


@pytest.fixture
def app():
    return MemcachedApp(random.Random(1))


def test_slo_is_1ms(app):
    assert app.slo_ns == 1 * MS


def test_get_set_mix(app):
    kinds = [app.make_request(i, 0).kind for i in range(2000)]
    get_frac = kinds.count("get") / len(kinds)
    assert 0.85 < get_frac < 0.95


def test_sets_cost_more_than_gets(app):
    gets, sets = [], []
    for i in range(3000):
        req = app.make_request(i, 0)
        (gets if req.kind == "get" else sets).append(req.service_cycles)
    assert sum(sets) / len(sets) > sum(gets) / len(gets)


def test_mean_service_cycles_matches_sample(app):
    sample = [app.make_request(i, 0).service_cycles for i in range(5000)]
    mean = sum(sample) / len(sample)
    assert mean == pytest.approx(app.mean_service_cycles(), rel=0.05)


def test_responses_are_single_segment_unacked(app):
    req = app.make_request(0, 0)
    assert req.response_bytes <= 1448
    assert not req.acked_response


def test_request_timestamps(app):
    req = app.make_request(5, 1234)
    assert req.flow_id == 5
    assert req.created_ns == 1234
    assert req.latency_ns is None


def test_registry(app):
    built = make_app("memcached", random.Random(1), get_fraction=0.5)
    assert built.get_fraction == 0.5
    with pytest.raises(ValueError):
        make_app("redis", random.Random(1))


def test_validation():
    with pytest.raises(ValueError):
        MemcachedApp(random.Random(1), get_fraction=1.5)


@pytest.mark.parametrize("sigma", [0.2, 0.0])
def test_requests_draw_like_lognormal_cycles(sigma):
    """make_request inlines lognormal_cycles: same draws, same values."""
    app = MemcachedApp(random.Random(7), sigma=sigma)
    ref = random.Random(7)
    for i in range(500):
        req = app.make_request(i, 0)
        if ref.random() < app.get_fraction:
            kind, mean, size = "get", app.get_mean_cycles, 96
        else:
            kind, mean, size = "set", app.set_mean_cycles, 256
        assert (req.kind, req.size_bytes) == (kind, size)
        assert req.service_cycles == lognormal_cycles(ref, mean, sigma)
