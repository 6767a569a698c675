#!/usr/bin/env python3
"""End-to-end simulator benchmark: simulated requests per wall-second.

Runs one reference cell (``workloads.py``) for ``--seconds`` of host
time: the cell is built from its config and run again and again at one
seed, and each run is checked. Prints a short report, then, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured with no profiler
installed. ``--trace 1`` alternates untraced runs with runs under
``cProfile`` and reports the per-layer metrics (``layers.py``), the
tracing overhead among them.

Every ``sim_*`` metric is simulated time or energy and repeats exactly
for a fixed seed; every other metric is host time or host memory. Host
times are scaled to a reference host speed (see :func:`speed_probe`).
``attempted`` counts simulated requests sent over all runs; ``failed``
counts those that did not complete, plus every request of a run that
failed a check. The model has no reference measurements from real
hardware, so no accuracy figure is reported.

Usage, from the repository root::

    python3 perfbench/run.py --workload mc-napi-nmap --seed 42 \\
        --seconds 40 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import hashlib
import heapq
import json
import os
import pstats
import resource
import signal
import statistics
import sys
import time

from layers import (LAYERS, SRC, events_fired, fold_profile,
                    model_counters)

#: Systems built per run: set-up time is the median over all of them.
#: Only the last one built is run.
SETUP_SAMPLES = 10
#: Runs per invocation at least: two are needed to check determinism.
MIN_RUNS = 2
#: Simulated length of the untimed warm-up run (lazy imports, numpy).
WARMUP_NS = 2_000_000
#: Objects one speed probe builds (~2 ms of pure Python).
PROBE_ITEMS = 1000
#: Speed-probe time on the reference machine: host times are reported
#: as they would read on a machine that runs the probe this fast.
PROBE_REF_S = 0.0015
#: Host seconds between the speed probes taken while a run executes.
PROBE_PERIOD_S = 0.05

E2E_UNITS = {
    "sim_req_per_wall_s": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_p50_us": "us",
    "sim_p99_us": "us",
    "sim_energy_j": "J",
    "sim_completed_frac": "frac",
}

_COUNTER_UNITS = {
    "sim.events_scheduled_per_req": "events/req",
    "sim.cancel_ratio": "frac",
    "sim.recycle_ratio": "frac",
    "sim.heap_peak": "events",
    "nic.rx_pkts_per_req": "pkts/req",
    "nic.tx_pkts_per_req": "pkts/req",
    "netstack.interrupt_pkt_frac": "frac",
    "netstack.ksoftirqd_wakeups_per_req": "wakeups/req",
    "netstack.socket_max_depth": "pkts",
    "datapath.poll_loops_per_req": "loops/req",
    "datapath.pkts_per_poll_loop": "pkts/loop",
    "p4.hit_ratio": "frac",
    "cpu.busy_frac": "frac",
    "cpu.works_per_req": "works/req",
    "cpu.pstate_changes": "count",
    "core.nmap_mode_entries": "count",
    "governors.samples": "count",
    "cluster.windows": "count",
    "cluster.strides": "count",
    "cluster.windows_per_stride": "windows/stride",
}


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "frac"
        units[f"{layer}.calls_per_req"] = "calls/req"
        units[f"{layer}.events_per_req"] = "events/req"
    units.update(_COUNTER_UNITS)
    units["sim.events_per_wall_s"] = "events/s"
    units["bench.trace_overhead_frac"] = "frac"
    return units


def _refuse(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def prepare_environment() -> None:
    """Check the checkout and pin the environment before importing repro.

    The benchmark builds systems directly. A result served from the
    persistent run cache would make ``sim_req_per_wall_s`` meaningless,
    so the cache is switched off here, and a cache the caller turned on
    explicitly is refused. A sanitized simulator runs extra checks on
    every event, so it is refused too.
    """
    if not (SRC / "repro" / "system.py").is_file():
        _refuse(f"no simulator source at {SRC}; run from a full checkout")
    cache = os.environ.get("REPRO_RUN_CACHE")
    if cache not in (None, "0"):
        _refuse(f"refusing to run with the persistent run cache active "
                f"(REPRO_RUN_CACHE={cache!r}); unset it")
    if os.environ.get("REPRO_SANITIZE", "").lower() in (
            "1", "true", "on", "yes"):
        _refuse("refusing to time a sanitized simulator; unset "
                "REPRO_SANITIZE")
    os.environ["REPRO_RUN_CACHE"] = "0"
    sys.path.insert(0, str(SRC))


class Run:
    """What one timed run left behind, after its checks."""

    def __init__(self, result, timing: dict, traced: bool, reference):
        self.traced = traced
        #: Host seconds of the ``run`` call, less the probes taken in it.
        self.wall_s = timing["wall_s"]
        #: Host speed over the run, relative to the reference host.
        self.speed = timing["speed"]
        self.setup_s = timing["setup_s"]
        self.setup_probe_s = timing["setup_probe_s"]
        self.sent = result.sent
        self.completed = result.completed
        latencies = result.latencies_ns
        self.fingerprint = (
            hashlib.sha256(latencies.tobytes()).hexdigest(),
            float(result.energy.package_j).hex(),
            events_fired(result))
        self.problems = []
        if len(latencies) != result.completed:
            self.problems.append(
                f"{len(latencies)} latencies for {result.completed} "
                f"completed requests")
        if result.completed + result.dropped != result.sent:
            self.problems.append(
                f"completed {result.completed} + dropped {result.dropped} "
                f"!= sent {result.sent}")
        if reference is not None and self.fingerprint != reference.fingerprint:
            self.problems.append(
                f"latency sha256 / energy / events differ from the first "
                f"run: {self.fingerprint} vs {reference.fingerprint}")

    @property
    def failed(self) -> int:
        """Requests this run failed: all of them if a check failed."""
        return self.sent if self.problems else self.sent - self.completed

    @property
    def ref_wall_s(self) -> float:
        """The run's host seconds as the reference host would take them."""
        return self.wall_s * self.speed


class _ProbeItem:
    def __init__(self, ident: int, peer):
        self.ident = ident
        self.peer = peer
        self.queue = [ident]
        self.stats = {"in": 1}

    def entry(self, t: int) -> tuple:
        self.stats["in"] += 1
        return (t, self.ident, self)


def speed_probe() -> float:
    """Host seconds of a fixed pure-Python object and heap workload.

    The shared host's speed swings by a third within seconds, so raw
    host times of one invocation say as much about the neighbours as
    about the simulator. The probe is plain code of the benchmark's
    own, in the simulator's style: objects built, attributes and dicts
    updated, a heap of tuples. Probes sample the host's speed at the
    moment they run, and host-time metrics are scaled by them to the
    reference speed ``PROBE_REF_S``. The probe never changes with the
    program, so a faster simulator still reads faster. The collector is
    paused so that a probe never pays for collecting the simulator's
    objects; the probe's own objects are freed by reference counting.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        peer = None
        heap = []
        for i in range(PROBE_ITEMS):
            peer = _ProbeItem(i, peer)
            heapq.heappush(heap, peer.entry(i * 7919 % 1021))
            if len(heap) > 64:
                heapq.heappop(heap)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


@contextlib.contextmanager
def probing():
    """Take a speed probe every ``PROBE_PERIOD_S`` inside the block.

    A wall-clock interval timer interrupts the run between bytecodes, so
    the probes sample the host's speed across the whole run rather than
    around it. Yields the list the probe times are appended to; the
    caller subtracts them from the run's wall time.
    """
    samples = []

    def on_alarm(signum, frame):
        samples.append(speed_probe())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def relative_speed(probe_s: list) -> float:
    """Host speed over the time ``probe_s`` sampled, per reference speed.

    The mean of per-probe speeds, not of probe times: the work a run
    gets done is the integral of the host's speed over its wall time,
    and timer-driven probes sample that time evenly.
    """
    return statistics.fmean(PROBE_REF_S / p for p in probe_s)


def timed_run(workload, seed: int, sim_ns: int, profiler=None):
    """Set up ``SETUP_SAMPLES`` times, then run the last system built.

    A speed probe precedes every set-up. An untraced run is probed
    while it executes (:func:`probing`); a traced one is not, so that
    its profile holds only the program, and it reads at the set-up
    probes' speed.
    """
    setup_s = []
    setup_probe_s = []
    for _ in range(SETUP_SAMPLES):
        gc.collect()
        setup_probe_s.append(speed_probe())
        gc.collect()
        start = time.perf_counter()
        system = workload.build(seed)
        setup_s.append(time.perf_counter() - start)
    gc.collect()
    run_probe_s = []
    if profiler is None:
        with probing() as run_probe_s:
            start = time.perf_counter()
            result = system.run(sim_ns)
        # Read once the timer is stopped, so every probe is inside wall_s.
        wall_s = time.perf_counter() - start
    else:
        start = time.perf_counter()
        result = profiler.runcall(system.run, sim_ns)
        wall_s = time.perf_counter() - start
    timing = {
        "wall_s": wall_s - sum(run_probe_s),
        "speed": relative_speed(run_probe_s or setup_probe_s),
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
    }
    return result, timing


def measure(workload, seed: int, seconds: float, sim_ns: int, trace: bool):
    """Run the cell again and again for ``seconds`` of host time.

    With ``trace``, runs alternate untraced / traced, and every traced
    run adds to one profile. Returns the runs, the first run's result
    (every passing run is bit-identical to it) and the profiler.
    """
    workload.build(seed).run(WARMUP_NS)
    profiler = cProfile.Profile() if trace else None
    runs = []
    reference = first_result = None
    start = time.perf_counter()
    longest = 0.0
    # Stop before a run that would end past the budget.
    while (len(runs) < MIN_RUNS
           or time.perf_counter() - start + longest <= seconds):
        run_start = time.perf_counter()
        traced = trace and len(runs) % 2 == 1
        result, timing = timed_run(workload, seed, sim_ns,
                                   profiler if traced else None)
        longest = max(longest, time.perf_counter() - run_start)
        run = Run(result, timing, traced, reference)
        if reference is None:
            reference, first_result = run, result
        runs.append(run)
        # Free this result before the next run, so that peak_rss_mb is
        # the same however many runs fit in the budget.
        del result
    return runs, first_result, profiler


def e2e_metrics(good: list, result) -> tuple:
    """The end-to-end metrics and the report lines that go with them."""
    stats = result.latency_stats()
    beyond_p99 = int((result.latencies_ns > stats.p99_ns).sum())
    rate = statistics.median(r.completed / r.wall_s for r in good)
    setup = statistics.median(s for r in good for s in r.setup_s)
    setup_speed = relative_speed([p for r in good for p in r.setup_probe_s])
    values = {
        "sim_req_per_wall_s": statistics.median(
            r.completed / r.ref_wall_s for r in good),
        "setup_s": setup * setup_speed,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_p50_us": stats.p50_ns / 1e3,
        "sim_p99_us": stats.p99_ns / 1e3,
        "sim_energy_j": result.energy.package_j,
        "sim_completed_frac": result.completed / result.sent,
    }
    notes = [
        f"sim_p50_us, sim_p99_us over {stats.count} latency samples, "
        f"{beyond_p99} beyond p99",
        f"sim_req_per_wall_s: median over {len(good)} runs; setup_s: "
        f"median over {len(good) * SETUP_SAMPLES} set-ups",
        f"host speed per reference (probe {PROBE_REF_S * 1e3:g} ms): "
        f"runs {statistics.median(r.speed for r in good):.3f}, set-ups "
        f"{setup_speed:.3f}; unscaled sim_req_per_wall_s = {rate!r}, "
        f"setup_s = {setup!r}",
        f"sim_drop_frac = {1 - values['sim_completed_frac']!r} "
        f"({result.sent - result.completed} of {result.sent} requests)",
    ]
    return values, notes


def layer_metrics(good: list, result, profiler) -> tuple:
    """The per-layer metrics; problems found by the census check."""
    traced = [r for r in good if r.traced]
    untraced = [r for r in good if not r.traced]
    values = fold_profile(pstats.Stats(profiler),
                          sum(r.completed for r in traced))
    census = values.pop("census_events")
    fired = events_fired(result) * len(traced)
    problems = []
    if census != fired:
        problems.append(f"event census counted {census} callbacks but the "
                        f"kernel fired {fired} events")
    values.update(model_counters(result))
    untraced_wall = statistics.median(r.wall_s for r in untraced)
    values["sim.events_per_wall_s"] = statistics.median(
        events_fired(result) / r.ref_wall_s for r in untraced)
    values["bench.trace_overhead_frac"] = statistics.median(
        r.wall_s for r in traced) / untraced_wall - 1
    notes = [f"{len(traced)} traced and {len(untraced)} untraced runs"]
    return values, notes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="host seconds to keep running the cell")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sim-ms", type=float, default=None,
                        help="override the cell's simulated length (for "
                             "the smoke test)")
    args = parser.parse_args(argv)

    prepare_environment()
    from repro.experiments import runner
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        _refuse(f"unknown workload {args.workload!r}; known: "
                f"{sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    sim_ns = (workload.sim_ns if args.sim_ms is None
              else int(args.sim_ms * 1_000_000))

    runs, result, profiler = measure(workload, args.seed, args.seconds,
                                     sim_ns, bool(args.trace))
    problems = [p for r in runs for p in r.problems]
    cache = runner.cache_stats()
    if cache.fresh_runs or cache.hits:
        problems.append(f"a run went through the run cache: "
                        f"{cache.describe()}")
    good = [r for r in runs if not r.problems]

    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"sim_ms={sim_ns / 1e6:g} runs={len(runs)} trace={args.trace}")
    metrics = {}
    if good and (not args.trace or {r.traced for r in good} == {False, True}):
        if args.trace:
            values, notes, census_problems = layer_metrics(good, result,
                                                           profiler)
            problems += census_problems
            units = per_layer_units()
        else:
            values, notes = e2e_metrics(good, result)
            units = E2E_UNITS
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
        for name, metric in metrics.items():
            print(f"  {name} = {metric['value']!r} {metric['unit']}")
        for note in notes:
            print(f"  # {note}")
    else:
        problems.append("no run passed its checks")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.sent for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
