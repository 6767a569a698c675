"""Static analysis and runtime sanitizing for the determinism contract.

The repo's core correctness property — serial/parallel, batched/legacy,
and 1-node-fleet/standalone runs are bit-identical — is only as strong
as the discipline of every future change. This package guards it
mechanically, in two layers:

* one static analysis engine (``python -m repro.analysis lint``;
  :func:`repro.analysis.flow.analyze_paths`) that parses each file once
  and flags the hazards which break reproducibility before they run:
  wall-clock reads, global or underived randomness, hash-ordered
  iteration feeding the event kernel or float accumulation (followed
  across function boundaries), mutable default arguments, time-typed
  names that dodge the ``_ns`` unit convention, and config fields
  missing from the run-cache hash. The syntactic rules live in
  :mod:`repro.analysis.lint`, the dataflow rules in
  :mod:`repro.analysis.flow`, the rule catalogue and report in
  :mod:`repro.analysis.common`.
* :mod:`repro.analysis.sanitize` — an opt-in runtime sanitizer
  (``REPRO_SANITIZE=1`` or ``Simulator(sanitize=True)``) that checks
  kernel invariants while a simulation runs: clock causality, freelist
  use-after-free / double recycles (generation counters instead of the
  production refcount guard's blind trust), fleet lockstep lookahead,
  and energy conservation. The off path is untouched — the sanitizer
  installs itself with the same bound-method swap
  :class:`~repro.sim.trace.TraceRecorder` uses, so unsanitized runs pay
  nothing and sanitized runs stay bit-identical.

See ``docs/ANALYSIS.md`` for the rule catalogue and invariants.
"""

from repro.analysis.common import RULES, Finding, Report
from repro.analysis.sanitize import (EventHandle, SanitizerError,
                                     SimSanitizer, sanitize_enabled)

__all__ = [
    "RULES",
    "Finding",
    "Report",
    "EventHandle",
    "SanitizerError",
    "SimSanitizer",
    "sanitize_enabled",
]
