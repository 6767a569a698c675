"""The benchmark's reference cells: three traffic mixes, one per RX path.

Every cell drives the simulator's open-loop client and is built only
through public entry points (``ServerSystem(config)`` and, for the
fleet, ``FleetSystem(config)`` — what ``run_fleet`` runs when
``shards == 1``). ``build(seed)`` returns a freshly wired system whose
``run(duration_ns)`` is the timed call; the seed is the only input that
varies between benchmark runs.

Each server cell simulates whole 100 ms load periods (the burst
profiles in ``repro.workload.profiles`` repeat every 100 ms), so the
latency percentiles cover whole bursts: rise, peak and decay.
``mc-napi-nmap`` simulates three: the p99 of a single memcached burst
swings with the seed (one seed in ten read 423 us against a median of
181 us), and pooling three bursts brings its spread across seeds from
0.19 to 0.07.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cluster.config import FleetConfig
from repro.cluster.fleet import FleetSystem
from repro.experiments.p4_steering import skewed_weights
from repro.p4.library import flow_affine_program
from repro.system import ServerConfig, ServerSystem
from repro.units import MS

#: Sessions of the skewed nginx mix (8 per core, as in ``p4_steering``).
NGINX_SESSIONS = 64
#: Per-packet table cost of the steering program (NIC offload cycles).
STEERING_CYCLES = 25


@dataclass(frozen=True)
class Workload:
    """One reference cell: a seed-parameterised system and its length."""

    name: str
    #: Simulated measurement window of one run (the drain comes on top).
    sim_ns: int
    build: Callable[[int], object]


def _memcached_napi_nmap(seed: int) -> ServerSystem:
    return ServerSystem(ServerConfig(
        app="memcached", load_level="high", n_cores=8,
        freq_governor="nmap", datapath="napi", seed=seed))


def _nginx_poll_p4(seed: int) -> ServerSystem:
    # The poll backend keeps core 0 for polling and spreads queues over
    # the 7 worker cores, so the program steers over 7 queues: an
    # 8-queue table would stack queues 0 and 7 on one worker, saturate
    # it at high load, and make p99 swing with the seed.
    weights = skewed_weights(8, NGINX_SESSIONS)
    return ServerSystem(ServerConfig(
        app="nginx", load_level="high", n_cores=8, datapath="poll",
        freq_governor="performance", n_flows=NGINX_SESSIONS,
        flow_weights=weights,
        pipeline=flow_affine_program(7, weights,
                                     cycles_per_packet=STEERING_CYCLES),
        seed=seed))


def _fleet8_power_aware(seed: int) -> FleetSystem:
    # Medium load: at high load the 2-core nodes sit at the saturation
    # knee and the fleet p99 spreads ~20% across seeds.
    node = ServerConfig(app="memcached", load_level="medium", n_cores=2,
                        freq_governor="nmap")
    return FleetSystem(FleetConfig(
        node=node, n_nodes=8, policy="power-aware", session_skew=1.0,
        n_sessions=256, shards=1, seed=seed))


WORKLOADS = {w.name: w for w in (
    Workload("mc-napi-nmap", 300 * MS, _memcached_napi_nmap),
    Workload("nginx-poll-p4", 100 * MS, _nginx_poll_p4),
    Workload("fleet8-power-aware", 30 * MS, _fleet8_power_aware),
)}
