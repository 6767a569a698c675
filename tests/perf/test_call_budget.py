"""Call-budget ratchet: Python calls and kernel events per request.

Profiles two short reference runs with stdlib ``cProfile`` and checks,
per completed request:

* calls to functions defined under ``src/repro`` stay at or below the
  budget in ``call_budget.json`` (stdlib and builtin calls are left
  out: they differ between Python versions);
* events scheduled and fired equal the recorded values exactly — a
  speed-up must not change what the simulator computes.

Both counts are deterministic for a fixed config and seed, so the gate
is exact, not a wall-clock one. After a change that lowers the calls
(or deliberately changes the events), copy the figures the failure
message prints into ``call_budget.json``.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
from pathlib import Path

import pytest

import repro
from repro.experiments.p4_steering import skewed_weights
from repro.p4.library import flow_affine_program
from repro.system import ServerConfig, ServerSystem
from repro.units import MS

BUDGET_PATH = Path(__file__).with_name("call_budget.json")
SIM_NS = 5 * MS
SEED = 42
_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def _mc_napi_nmap() -> ServerConfig:
    return ServerConfig(app="memcached", load_level="high", n_cores=8,
                        freq_governor="nmap", datapath="napi", seed=SEED)


def _nginx_poll_p4() -> ServerConfig:
    # 64 skewed sessions steered over the 7 worker queues of the
    # busy-poll backend (core 0 polls), as in the perfbench cell.
    weights = skewed_weights(8, 64)
    return ServerConfig(app="nginx", load_level="high", n_cores=8,
                        datapath="poll", freq_governor="performance",
                        n_flows=64, flow_weights=weights,
                        pipeline=flow_affine_program(7, weights,
                                                     cycles_per_packet=25),
                        seed=SEED)


CELLS = {"mc-napi-nmap": _mc_napi_nmap, "nginx-poll-p4": _nginx_poll_p4}


def measure(cell: str) -> dict:
    """Profile one reference run; the figures ``call_budget.json`` holds."""
    system = ServerSystem(CELLS[cell]())
    profiler = cProfile.Profile()
    profiler.enable()
    result = system.run(SIM_NS)
    profiler.disable()
    repro_calls = sum(
        ncalls for (filename, _, _), (_, ncalls, _, _, _)
        in pstats.Stats(profiler).stats.items()
        if filename.startswith(_REPRO_DIR))
    completed = len(result.latencies_ns)
    perf = result.perf
    return {
        "completed": completed,
        "repro_calls_per_req": round(repro_calls / completed, 2),
        "events_scheduled_per_req": perf.events_scheduled / completed,
        "events_fired_per_req": perf.events_fired / completed,
    }


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_calls_and_events_per_request_hold(cell):
    budget = json.loads(BUDGET_PATH.read_text())[cell]
    got = measure(cell)
    figures = json.dumps({cell: got}, indent=2)
    assert got["completed"] == budget["completed"], (
        f"{cell}: the reference run changed; new figures:\n{figures}")
    for key in ("events_scheduled_per_req", "events_fired_per_req"):
        assert got[key] == budget[key], (
            f"{cell}: {key} moved from {budget[key]} to {got[key]}; a "
            f"speed-up must not change the events. New figures:\n{figures}")
    assert got["repro_calls_per_req"] <= budget["repro_calls_per_req"], (
        f"{cell}: {got['repro_calls_per_req']} src/repro calls per request "
        f"exceed the budget of {budget['repro_calls_per_req']}. New "
        f"figures:\n{figures}")
