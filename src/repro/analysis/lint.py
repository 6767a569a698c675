"""Syntactic determinism rules: facts a single call or binding shows.

Simulation results must be a pure function of ``(config, seed)``. Some
hazards that break that are visible at one call site, with no dataflow:
a ``time.time()`` snuck into a model, a ``random.random()`` drawing from
the process-global PRNG, a mutable default argument, a nanosecond
quantity bound to a name without the ``_ns`` suffix. Each rule here
targets one of them:

========  ===========================================================
Rule      Meaning
========  ===========================================================
``D001``  Wall-clock read (``time.time``, ``datetime.now``, ...).
          ``time.perf_counter`` is allowed only in the modules of
          :data:`PERF_COUNTER_ALLOWLIST`, which measure wall time *about*
          simulations (never inside the model).
``D002``  Use of the process-global PRNG: a module-level ``random.*``
          function (:data:`_GLOBAL_RANDOM`) or ``numpy.random.seed``.
          (Seed *provenance* of RNG constructors is a dataflow question;
          :mod:`repro.analysis.flow` answers it under the same id.)
``D005``  Mutable default argument (shared across calls — state leaks
          between runs).
``U001``  A name bound to a ``<n> * NS/US/MS/S`` time expression whose
          name does not end in ``_ns`` (``_NS`` for UPPER_CASE
          constants — the :mod:`repro.units` convention; mixed units
          are how latency bugs start).
========  ===========================================================

:func:`check_module` runs these rules over one already-parsed module of
a :class:`~repro.analysis.callgraph.ProjectIndex`;
:func:`repro.analysis.flow.analyze_index` calls it for every module, so
every rule runs over one parse of each file. Suppressions, ``S001`` and
the report are shared (:mod:`repro.analysis.common`).
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.callgraph import ModuleInfo
from repro.analysis.common import Finding

__all__ = ["PERF_COUNTER_ALLOWLIST", "check_module", "is_global_prng"]

#: Modules (matched as path suffixes) allowed to call
#: ``time.perf_counter``: they time simulations from the outside
#: (``RunResult.perf.wall_s``, CLI elapsed lines) and never feed the
#: result back into the model.
PERF_COUNTER_ALLOWLIST = frozenset({
    "repro/system.py",            # RunResult.perf wall_s
    "repro/cluster/fleet.py",     # FleetResult node perf wall_s
    "repro/cluster/sharded.py",   # LockstepPerf.wall_s (sharded driver)
    "repro/experiments/__main__.py",  # per-experiment elapsed line
})

_WALLCLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})
_PERF_COUNTER = frozenset({
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
})
#: Module-level random functions that draw from the shared global PRNG.
_GLOBAL_RANDOM = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
})
#: Time-unit constants from repro.units (ns-denominated).
_UNIT_NAMES = frozenset({"NS", "US", "MS", "S"})


def is_global_prng(dotted: str) -> bool:
    """True when the resolved call target uses the process-global PRNG."""
    if dotted.startswith("random."):
        return dotted[len("random."):] in _GLOBAL_RANDOM
    return dotted == "numpy.random.seed"


class _FileLinter(ast.NodeVisitor):
    """Single AST walk collecting findings for the syntactic rules."""

    def __init__(self, module: ModuleInfo):
        self.path = module.path
        posix = module.file.as_posix()
        self.perf_allowed = any(posix.endswith(entry)
                                for entry in PERF_COUNTER_ALLOWLIST)
        self.findings: List[Finding] = []
        #: Alias resolution ("np" -> "numpy", "perf_counter" ->
        #: "time.perf_counter"), collected once by the index.
        self.imports = module.imports

    def _add(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            rule=rule, path=self.path, line=node.lineno,
            col=node.col_offset, message=message))

    # -- D001 / D002 ---------------------------------------------------- #

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self.imports.dotted(node.func)
        if dotted is not None:
            self._check_wallclock(node, dotted)
            self._check_random(node, dotted)
        self.generic_visit(node)

    def _check_wallclock(self, node: ast.Call, dotted: str) -> None:
        if dotted in _WALLCLOCK:
            self._add("D001", node,
                      f"wall-clock read {dotted}(): simulation state must "
                      f"be a function of (config, seed) only — use "
                      f"sim.now, or perf_counter in an allowlisted "
                      f"perf module")
        elif dotted in _PERF_COUNTER and not self.perf_allowed:
            self._add("D001", node,
                      f"{dotted}() outside the perf-module allowlist "
                      f"(see repro.analysis.lint.PERF_COUNTER_ALLOWLIST)")

    def _check_random(self, node: ast.Call, dotted: str) -> None:
        if not is_global_prng(dotted):
            return
        if dotted == "numpy.random.seed":
            self._add("D002", node,
                      "numpy.random.seed() mutates the global numpy PRNG; "
                      "use repro.sim.rng streams")
        else:
            self._add("D002", node,
                      f"{dotted}() draws from the process-global PRNG; "
                      f"use a stream from repro.sim.rng instead")

    # -- D005 ----------------------------------------------------------- #

    def _check_defaults(self, node) -> None:
        args = node.args
        for default in list(args.defaults) + \
                [d for d in args.kw_defaults if d is not None]:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set,
                                           ast.ListComp, ast.DictComp,
                                           ast.SetComp))
            if (isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set")):
                mutable = True
            if mutable:
                self._add("D005", default,
                          "mutable default argument is shared across "
                          "calls (state leaks between runs); default to "
                          "None and build inside")

    def _visit_function(self, node) -> None:
        self._check_defaults(node)
        self._check_arg_units(node)
        self.generic_visit(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- U001 ----------------------------------------------------------- #

    def _is_unit_expr(self, node: ast.AST) -> bool:
        """True when the expression multiplies by an ns-unit constant.

        Only top-level arithmetic counts: a unit constant buried in a
        call argument (``Scale(duration_ns=300 * MS)``) types the
        *argument*, not the name the call's result is bound to.
        """
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Mult):
                for side in (node.left, node.right):
                    if isinstance(side, ast.Name) and \
                            side.id in _UNIT_NAMES and \
                            self.imports.origin(side.id).startswith(
                                "repro.units"):
                        return True
            return (self._is_unit_expr(node.left)
                    or self._is_unit_expr(node.right))
        if isinstance(node, ast.UnaryOp):
            return self._is_unit_expr(node.operand)
        if isinstance(node, ast.IfExp):
            return (self._is_unit_expr(node.body)
                    or self._is_unit_expr(node.orelse))
        return False

    def _check_unit_name(self, name: str, node: ast.AST) -> None:
        # UPPER_CASE module constants carry the suffix in their own
        # register (``PERIOD_NS``); everything else needs literal _ns.
        if name.endswith("_ns") or (name.isupper()
                                    and name.endswith("_NS")):
            return
        self._add("U001", node,
                  f"{name!r} holds a nanosecond quantity (built from "
                  f"a repro.units constant) but lacks the _ns "
                  f"suffix")

    def _check_arg_units(self, node) -> None:
        args = node.args
        positional = args.posonlyargs + args.args
        pos_defaults = args.defaults
        for arg, default in zip(positional[len(positional)
                                           - len(pos_defaults):],
                                pos_defaults):
            if self._is_unit_expr(default):
                self._check_unit_name(arg.arg, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None and self._is_unit_expr(default):
                self._check_unit_name(arg.arg, default)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_unit_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._check_unit_name(target.id, node)
                elif isinstance(target, ast.Attribute):
                    self._check_unit_name(target.attr, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and isinstance(node.target, ast.Name) \
                and self._is_unit_expr(node.value):
            self._check_unit_name(node.target.id, node)
        self.generic_visit(node)


def check_module(module: ModuleInfo) -> List[Finding]:
    """Run the syntactic rules over one indexed module's tree.

    Findings come back unsuppressed; the caller applies the module's
    pragmas once, together with the dataflow findings.
    """
    linter = _FileLinter(module)
    linter.visit(module.tree)
    return linter.findings
