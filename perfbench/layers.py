"""Per-layer attribution of a traced run, and the model's own counters.

A layer is a package under ``src/repro``. The traced run profiles the
timed ``run`` call with stdlib ``cProfile``; :func:`fold_profile` folds
each function's self time and call count into the layer that defines
it, so a call from one package into another is that layer's span and a
layer's self time excludes its children. Builtins, numpy and the stdlib
fold into ``ext``; the remaining ``repro`` modules (the ``system``
facade, ``obs``, ``metrics``, ...) into ``other``.

The event census counts the callbacks ``Simulator.run_until`` invokes:
every fired event passes through that loop, so its callees, grouped by
defining layer, say which layer schedules the work the kernel runs.
"""

from __future__ import annotations

import os
import pstats
from pathlib import Path
from typing import Dict, List

#: The simulator source the benchmark imports (``src`` of its checkout).
SRC = Path(__file__).resolve().parent.parent / "src"

LAYERS = ("sim", "cpu", "osched", "nic", "netstack", "datapath", "p4",
          "apps", "workload", "governors", "core", "cluster", "ext",
          "other")

_REPRO_DIR = str(SRC / "repro") + os.sep
_KERNEL_LOOP = (str(SRC / "repro" / "sim" / "simulator.py"), "run_until")


def layer_of(filename: str) -> str:
    """The layer whose code lives in ``filename`` (a code object path)."""
    if not filename.startswith(_REPRO_DIR):
        return "ext"
    package, sep, _ = filename[len(_REPRO_DIR):].partition(os.sep)
    if sep and package in LAYERS:
        return package
    return "other"


def fold_profile(stats: pstats.Stats, completed: int) -> Dict[str, float]:
    """``L.self_share``, ``L.calls_per_req`` and ``L.events_per_req``.

    Also returns ``census_events``: the total the census counted, which
    the caller checks against the kernel's own fired-event counter.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    events = dict.fromkeys(LAYERS, 0)
    entries = stats.stats
    loop = [func for func in entries if (func[0], func[2]) == _KERNEL_LOOP]
    for func, (_, ncalls, tottime, _, callers) in entries.items():
        layer = layer_of(func[0])
        self_s[layer] += tottime
        calls[layer] += ncalls
        # Builtins called from the loop are the loop's own heap and
        # freelist steps, not event callbacks.
        if func[0] != "~":
            # pstats stores caller entries as (ncalls, primitive, tt, ct).
            events[layer] += sum(callers[key][0] for key in loop
                                 if key in callers)
    total_s = sum(self_s.values())
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_share"] = self_s[layer] / total_s
        out[f"{layer}.calls_per_req"] = calls[layer] / completed
        out[f"{layer}.events_per_req"] = events[layer] / completed
    out["census_events"] = sum(events.values())
    return out


def node_results(result) -> List:
    """The per-node ``RunResult``s of a server or fleet result."""
    return getattr(result, "node_results", None) or [result]


def _total(registry, name: str) -> float:
    try:
        return registry.total(name)
    except KeyError:
        return 0


def _max_gauge(registry, name: str) -> float:
    return max((inst.value for n, _, _, inst in registry.items()
                if n == name), default=0)


def model_counters(result) -> Dict[str, float]:
    """The deterministic per-layer counters of one run's result.

    Every value is a count or a ratio of counts the model keeps, so it
    repeats exactly for a fixed (config, seed).
    """
    nodes = node_results(result)
    done = result.completed
    tel = result.telemetry
    perfs = [r.perf for r in nodes]
    scheduled = sum(p.events_scheduled for p in perfs)
    pkts = sum(sum(r.datapath_pkts.values()) for r in nodes)
    loops = sum(r.poll_loops for r in nodes)
    hits = _total(tel, "p4_table_hits_total")
    lookups = hits + _total(tel, "p4_table_misses_total")
    busy = _total(tel, "core_busy_ns")
    idle = _total(tel, "core_idle_ns")
    # A fleet result's perf is its lockstep drive; a server has none.
    fleet = hasattr(result, "node_results")
    windows = result.perf.windows if fleet else 0
    strides = result.perf.strides if fleet else 0
    return {
        "sim.events_scheduled_per_req": scheduled / done,
        "sim.cancel_ratio": sum(p.events_cancelled for p in perfs)
        / scheduled,
        "sim.recycle_ratio": sum(p.events_recycled for p in perfs)
        / scheduled,
        "sim.heap_peak": max(p.heap_peak for p in perfs),
        "nic.rx_pkts_per_req": _total(tel, "nic_rx_packets_total") / done,
        "nic.tx_pkts_per_req": _total(tel, "nic_tx_packets_total") / done,
        "netstack.interrupt_pkt_frac":
            sum(r.pkts_interrupt_mode for r in nodes) / pkts if pkts else 0.0,
        "netstack.ksoftirqd_wakeups_per_req":
            sum(r.ksoftirqd_wakeups for r in nodes) / done,
        "netstack.socket_max_depth": _max_gauge(tel, "socket_max_depth"),
        "datapath.poll_loops_per_req": loops / done,
        "datapath.pkts_per_poll_loop": pkts / loops if loops else 0.0,
        "p4.hit_ratio": hits / lookups if lookups else 0.0,
        "cpu.busy_frac": busy / (busy + idle),
        "cpu.works_per_req": _total(tel, "works_completed_total") / done,
        "cpu.pstate_changes": _total(tel, "pstate_changes_total"),
        "core.nmap_mode_entries": _total(tel, "nmap_mode_entries_total"),
        "governors.samples": _total(tel, "governor_samples_total"),
        "cluster.windows": windows,
        "cluster.strides": strides,
        "cluster.windows_per_stride": windows / strides if strides else 0.0,
    }


def events_fired(result) -> int:
    """Events the kernel fired across every node of a run."""
    return sum(r.perf.events_fired for r in node_results(result))
