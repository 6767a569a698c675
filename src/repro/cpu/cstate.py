"""Sleep (C) states.

Models the three states the paper discusses: CC0 (active / shallow idle),
CC1 (clock gated), CC6 (deep: core, registers, and private caches powered
off). CC6 additionally incurs a *cache refill penalty* after wake-up, since
the private caches were flushed (Sec. 5.2 measures 7 µs on E5-2620v4 and
26.4 µs on Gold 6134 worst-case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.units import US


@dataclass(frozen=True)
class CState:
    """One core sleep state.

    Attributes:
        name: e.g. ``"CC6"``.
        index: depth order; 0 is CC0.
        exit_latency_ns: mean time to return to CC0 on a wake event.
        exit_latency_std_ns: measurement noise (Table 2 stdev column).
        target_residency_ns: minimum profitable stay (used by menu).
        power_w: power drawn while resident (at maximum voltage).
        flushes_caches: whether entry flushes private caches (CC6).
        voltage_scaled: True for clock-gated-but-powered states (CC1)
            whose residual power scales with the square of the core's
            current voltage; False for power-gated states (CC6).
    """

    name: str
    index: int
    exit_latency_ns: int
    exit_latency_std_ns: int
    target_residency_ns: int
    power_w: float
    flushes_caches: bool = False
    voltage_scaled: bool = False


class CStateTable:
    """Ordered list of C-states from shallow (CC0) to deep."""

    def __init__(self, states: List[CState], cache_refill_penalty_ns: int = 0):
        if not states:
            raise ValueError("C-state table cannot be empty")
        if states[0].index != 0:
            raise ValueError("first state must be CC0 (index 0)")
        for i, st in enumerate(states):
            if st.index != i:
                raise ValueError(f"state at position {i} has index {st.index}")
            if i > 0 and st.exit_latency_ns < states[i - 1].exit_latency_ns:
                raise ValueError("exit latency must not decrease with depth")
        self._states = list(states)
        #: The shallowest (running) and deepest states: plain attributes,
        #: read on every idle entry/exit and power update.
        self.cc0: CState = self._states[0]
        self.deepest: CState = self._states[-1]
        #: Worst-case time to re-touch all flushed cache lines after CC6.
        self.cache_refill_penalty_ns = int(cache_refill_penalty_ns)

    @classmethod
    def default(cls, cc1_exit_ns: int = 560, cc6_exit_ns: int = 27_430,
                cc1_exit_std_ns: int = 500, cc6_exit_std_ns: int = 4_050,
                cache_refill_penalty_ns: int = 26_400,
                cc0_idle_power_w: float = 0.0,
                cc1_power_w: float = 4.0,
                cc6_power_w: float = 0.20) -> "CStateTable":
        """Table matching the Xeon Gold 6134 measurements in Table 2.

        CC0's ``power_w`` is unused (idle-in-C0 power comes from the
        :class:`~repro.cpu.power.PowerModel` polling-idle formula). CC1 is
        clock gated but still powered, so its power scales with V².
        """
        states = [
            CState("CC0", 0, 0, 0, 0, cc0_idle_power_w),
            CState("CC1", 1, cc1_exit_ns, cc1_exit_std_ns, 2 * US, cc1_power_w,
                   voltage_scaled=True),
            CState("CC6", 2, cc6_exit_ns, cc6_exit_std_ns, 200 * US, cc6_power_w,
                   flushes_caches=True),
        ]
        return cls(states, cache_refill_penalty_ns=cache_refill_penalty_ns)

    def __len__(self) -> int:
        return len(self._states)

    def __getitem__(self, index: int) -> CState:
        return self._states[index]

    def by_name(self, name: str) -> CState:
        """Look a state up by name (raises KeyError if absent)."""
        for st in self._states:
            if st.name == name:
                return st
        raise KeyError(name)

    def deepest_within(self, predicted_idle_ns: int) -> CState:
        """Deepest state whose target residency fits the predicted idle."""
        chosen = self._states[0]
        for st in self._states:
            if st.target_residency_ns <= predicted_idle_ns:
                chosen = st
        return chosen

    def sample_exit_latency(self, state: CState, rng=None) -> int:
        """Exit latency with Gaussian measurement noise (>= 0)."""
        if rng is None or state.exit_latency_std_ns == 0:
            return state.exit_latency_ns
        val = rng.gauss(state.exit_latency_ns, state.exit_latency_std_ns)
        return max(0, int(val))
