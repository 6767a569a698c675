"""Property test of the core's inline start and complete paths.

``Core.submit`` starts work on a free CC0 core, and work that preempts,
without going through the wake path; ``Core._complete`` hands a busy
core straight to its next queued work. This drives one core through
random interleavings of submissions at every priority, pauses (then a
resubmit or a kick), frequency changes and deep-C-state idles, and
checks the contract those shortcuts must keep.
"""

from hypothesis import given, settings, strategies as st

from repro.cpu.core import (PRIORITY_HARDIRQ, PRIORITY_SOFTIRQ,
                            PRIORITY_TASK, Core, Work)
from repro.cpu.cstate import CStateTable
from repro.cpu.pstate import PStateTable
from repro.governors.cpuidle import C6OnlyIdleGovernor, MenuIdleGovernor
from repro.sim.simulator import Simulator
from repro.units import GHZ, MS, US

PRIORITIES = (PRIORITY_HARDIRQ, PRIORITY_SOFTIRQ, PRIORITY_TASK)

submit_strategy = st.tuples(st.just("submit"),
                            st.floats(min_value=0, max_value=200_000),
                            st.sampled_from(PRIORITIES))
pause_strategy = st.tuples(st.just("pause"),
                           st.integers(min_value=0, max_value=40),
                           st.booleans())
op_strategy = st.one_of(
    submit_strategy, submit_strategy, pause_strategy, pause_strategy,
    st.tuples(st.just("kick")),
    st.tuples(st.just("pstate"), st.integers(min_value=0, max_value=15)),
)
#: Gaps between operations: same-instant bursts, sub-dwell gaps, and
#: idles long enough to reach CC6.
gap_strategy = st.sampled_from([0, 0, 300, 2 * US, 15 * US, 60 * US, 400 * US])


class CoreExerciser:
    """Applies operations to one core and records what it observes."""

    def __init__(self, core: Core):
        self.core = core
        self.seq = 0
        self.last_submit = {}      # work -> sequence number of its last submit
        self.live = []             # submitted, not completed, not abandoned
        self.abandoned = set()
        self.done = []

    def _on_complete(self, work: Work) -> None:
        self.done.append(work)
        self.live.remove(work)

    def check_queue_order(self) -> None:
        """The running work outranks every queued one: a strictly higher
        priority, or the same priority and an earlier submission."""
        core = self.core
        current = core.current_work
        queued = [w for queue in core._pending for w in queue]
        if current is None:
            return
        key = (current.priority, self.last_submit[current])
        for work in queued:
            assert (work.priority, self.last_submit[work]) > key

    def submit(self, work: Work) -> None:
        core = self.core
        running = core.current_work
        free_cc0 = core.is_idle and core.cstate.index == 0
        self.seq += 1
        self.last_submit[work] = self.seq
        if work not in self.live:
            self.live.append(work)
        core.submit(work)
        if running is not None:
            # Only strictly higher priority (a lower number) preempts.
            expected = work if work.priority < running.priority else running
            assert core.current_work is expected
        elif free_cc0:
            assert core.current_work is work  # started inline

    def apply(self, op) -> None:
        kind = op[0]
        if kind == "submit":
            _, cycles, priority = op
            self.submit(Work(cycles, priority, on_complete=self._on_complete))
        elif kind == "pause" and self.live:
            _, pick, resubmit = op
            work = self.live[pick % len(self.live)]
            assert self.core.pause(work)
            if resubmit:
                self.submit(work)
            else:
                self.live.remove(work)
                self.abandoned.add(work)
                self.core.kick()
        elif kind == "kick":
            self.core.kick()
        elif kind == "pstate":
            self.core.set_pstate_index(op[1])
        self.check_queue_order()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(gap_strategy, op_strategy), min_size=1,
                max_size=40),
       st.sampled_from(["c6only", "menu"]),
       st.sampled_from([0, 10 * US]))
def test_inline_start_and_complete_keep_the_core_contract(
        ops, governor, entry_delay_ns):
    sim = Simulator()
    table = PStateTable.linear(1.2 * GHZ, 3.2 * GHZ, 16)
    core = Core(sim, 0, table, cstate_table=CStateTable.default())
    core.idle_governor = (C6OnlyIdleGovernor() if governor == "c6only"
                          else MenuIdleGovernor())
    core.idle_entry_delay_ns = entry_delay_ns
    exerciser = CoreExerciser(core)
    t = 0
    for gap, op in ops:
        t += gap
        sim.schedule_at(t, exerciser.apply, op)
    sim.run_until(t + 50 * MS)
    core.finalize()

    # Every work not abandoned completes exactly once; abandoned never.
    assert not exerciser.live
    assert len(exerciser.done) == len(set(exerciser.done))
    assert set(exerciser.done) == set(exerciser.last_submit) - exerciser.abandoned
    # FIFO within a priority, by each work's last submission.
    for priority in PRIORITIES:
        order = [exerciser.last_submit[w] for w in exerciser.done
                 if w.priority == priority]
        assert order == sorted(order)
    assert core.is_idle
    assert core.busy_ns + core.idle_ns == sim.now
