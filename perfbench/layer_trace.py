"""Per-layer timing for the traced run, recorded from the benchmark's side.

The traced run wraps the public entry points of each layer of ``repro``
and records, per layer, the number of calls and the *self* time: a call's
wall time minus the time of wrapped calls nested inside it.  Nothing here
reads the program's own counters or private state.  A refactor that moves
or renames an entry point fails loudly at install time (the lookup below
raises), and one that stops routing work through it shows as a layer
reading zero, which the benchmark's coverage guard rejects.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["LAYERS", "TIME_METRICS", "LayerTracer", "layer_metrics"]

#: layer -> public entry points, as ``module:function`` or
#: ``module:Class.method``.  A method is wrapped on the class that defines
#: it, so every instance is covered; a function is re-bound wherever a
#: module (or a module-level registry dict) holds a reference to it.
LAYERS: dict[str, tuple[str, ...]] = {
    "workloads.generate": (
        "repro.workloads.comd:make_comd",
        "repro.workloads.lulesh:make_lulesh",
        "repro.workloads.nasmz:make_bt",
        "repro.workloads.nasmz:make_sp",
    ),
    "trace.build": ("repro.simulator.trace:trace_application",),
    "frontiers.profile": (
        "repro.machine.frontiers:FrontierStore.profile",
        "repro.machine.frontiers:NodeFrontierStore.profile",
    ),
    "runtime.plan": (
        "repro.runtime.static:StaticPolicy.plan_run",
        "repro.runtime.config_search:ConfigSearchPolicy.plan_run",
        "repro.simulator.replay:ReplayPolicy.plan_run",
    ),
    "runtime.configure": ("repro.runtime.conductor:ConductorPolicy.configure",),
    "engine.run": ("repro.simulator.engine:Engine.run",),
    "engine.run_sweep": ("repro.simulator.engine:Engine.run_sweep",),
    "model.instance": ("repro.core.model:build_problem_instance",),
    "lp.assemble": ("repro.core.sweep:ParametricCapSolver.__init__",),
    "lp.solve": ("repro.core.solver:FrozenProgram.solve",),
    "lp.decode": ("repro.core.sweep:ParametricCapSolver.solve",),
    "rounding.round": ("repro.core.rounding:round_schedule",),
    "replay.plan": ("repro.simulator.replay:build_replay_sweep_plan",),
    "telemetry.verify": (
        "repro.simulator.telemetry:job_power_timelines_sweep",
        "repro.simulator.telemetry:verify_power_cap",
        "repro.simulator.telemetry:job_power_timeline",
    ),
    "cache.get": ("repro.exec.cache:SolverCache.get",),
    "cache.put": ("repro.exec.cache:SolverCache.put",),
    "parallel.map": (
        "repro.exec.parallel:ParallelRunner.map",
        "repro.exec.parallel:ParallelRunner.map_outcomes",
    ),
    "scenarios.cell": ("repro.scenarios.run:run_scenario_cell",),
}


# Extra facts read off one call: (tracer, call seconds, args, kwargs, result).
def _tally_engine_run(tracer, dt, args, kwargs, result) -> None:
    tracer.counts["engine.records"] += len(result.records)


def _tally_run_sweep(tracer, dt, args, kwargs, result) -> None:
    plan = kwargs["plan"] if "plan" in kwargs else args[3]
    tracer.counts["engine.sweep_points"] += plan.n_points


def _tally_cache_get(tracer, dt, args, kwargs, result) -> None:
    if result is not None:
        tracer.counts["cache.hits"] += 1


def _tally_lp_solve(tracer, dt, args, kwargs, result) -> None:
    tracer.solve_ms.append(dt * 1000.0)


_TALLIES = {
    "engine.run": _tally_engine_run,
    "engine.run_sweep": _tally_run_sweep,
    "cache.get": _tally_cache_get,
    "lp.solve": _tally_lp_solve,
}


class LayerTracer:
    """Call counts and self times per layer, accumulated across passes.

    :meth:`active` installs the wrappers for the duration of a with-block,
    together with a :class:`repro.obs.SolveAudit` (the public per-solve
    ledger) for the simplex iteration count.  :meth:`snapshot` and
    :meth:`merge` carry the tallies across a process boundary as JSON.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.solve_ms: list[float] = []
        self._stack: list[list[float]] = []
        self._undo: list = []

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, fn):
        tally = _TALLIES.get(layer)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]  # wall seconds of wrapped calls nested in this one
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self.calls[layer] += 1
                self.self_s[layer] += dt - frame[0]
            if tally is not None:
                tally(self, dt, args, kwargs, result)
            return result

        return traced

    def _rebind(self, orig, wrapper, modules) -> None:
        for module in modules:
            namespace = vars(module)
            for name, value in list(namespace.items()):
                if value is orig:
                    namespace[name] = wrapper
                    self._undo.append(
                        functools.partial(namespace.__setitem__, name, orig)
                    )
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is orig:
                            value[key] = wrapper
                            self._undo.append(
                                functools.partial(value.__setitem__, key, orig)
                            )

    def install(self, extra_modules=()) -> None:
        """Wrap every entry point of :data:`LAYERS`.

        ``extra_modules`` are modules outside ``repro`` (the benchmark's
        own) whose imported names must be re-bound too.
        """
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "repro" or n.startswith("repro.")
        ]
        modules.extend(extra_modules)
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, qualname = target.split(":")
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    orig = owner.__dict__[attr]
                    setattr(owner, attr, self._wrap(layer, orig))
                    self._undo.append(functools.partial(setattr, owner, attr, orig))
                else:
                    orig = getattr(module, qualname)
                    self._rebind(orig, self._wrap(layer, orig), modules)

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    @contextmanager
    def active(self, extra_modules=()):
        """Trace every layer, and audit every solve, inside the block."""
        from repro.obs import SolveAudit, use_audit

        audit = SolveAudit()
        self.install(extra_modules)
        try:
            with use_audit(audit):
                yield self
        finally:
            self.uninstall()
            self.counts["lp.iterations"] += sum(
                r.iterations or 0 for r in audit.records
            )

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "solve_ms": list(self.solve_ms),
        }

    def merge(self, snap: dict) -> None:
        for key, value in snap["calls"].items():
            self.calls[key] += value
        for key, value in snap["self_s"].items():
            self.self_s[key] += value
        for key, value in snap["counts"].items():
            self.counts[key] += value
        self.solve_ms.extend(snap["solve_ms"])


#: metric -> layer whose self seconds it reports.
TIME_METRICS = {
    "workloads.generate_s": "workloads.generate",
    "trace.build_s": "trace.build",
    "frontiers.profile_s": "frontiers.profile",
    "runtime.plan_s": "runtime.plan",
    "runtime.configure_s": "runtime.configure",
    "engine.run_s": "engine.run",
    "engine.run_sweep_s": "engine.run_sweep",
    "model.instance_s": "model.instance",
    "lp.assemble_s": "lp.assemble",
    "lp.solve_s": "lp.solve",
    "lp.decode_s": "lp.decode",
    "rounding.round_s": "rounding.round",
    "replay.plan_s": "replay.plan",
    "telemetry.verify_s": "telemetry.verify",
    "cache.get_s": "cache.get",
    "cache.put_s": "cache.put",
    "parallel.map_s": "parallel.map",
    "scenarios.cell_s": "scenarios.cell",
}

#: metric -> layer whose call count it reports.
_CALL_METRICS = {
    "trace.builds": "trace.build",
    "frontiers.profile_calls": "frontiers.profile",
    "runtime.configure_calls": "runtime.configure",
    "engine.runs": "engine.run",
    "lp.assembles": "lp.assemble",
    "lp.solves": "lp.solve",
    "rounding.calls": "rounding.round",
    "cache.gets": "cache.get",
    "cache.puts": "cache.put",
    "scenarios.cells": "scenarios.cell",
}


def layer_metrics(
    tracer: LayerTracer, n_passes: int
) -> dict[str, tuple[float, str]]:
    """Per-pass layer metrics, ``name -> (value, unit)``."""
    out: dict[str, tuple[float, str]] = {}
    for name, layer in TIME_METRICS.items():
        out[name] = (tracer.self_s.get(layer, 0.0) / n_passes, "s")
    for name, layer in _CALL_METRICS.items():
        out[name] = (tracer.calls.get(layer, 0) / n_passes, "count")
    engine_s = tracer.self_s.get("engine.run", 0.0)
    records = tracer.counts.get("engine.records", 0)
    out["engine.tasks_per_s"] = (records / engine_s if engine_s else 0.0, "1/s")
    points = tracer.counts.get("engine.sweep_points", 0)
    out["engine.sweep_points"] = (points / n_passes, "count")
    p50 = statistics.median(tracer.solve_ms) if tracer.solve_ms else 0.0
    out["lp.solve_p50_ms"] = (p50, "ms")
    iterations = tracer.counts.get("lp.iterations", 0)
    out["lp.iterations"] = (iterations / n_passes, "count")
    gets = tracer.calls.get("cache.get", 0)
    hits = tracer.counts.get("cache.hits", 0)
    out["cache.hit_ratio"] = (hits / gets if gets else 0.0, "ratio")
    return out
