"""The benchmark's three workloads: what one timed pass does, and its checks.

Each workload is a closed loop driven by one caller process: a pass starts
only when the previous one has finished.  ``--seed`` feeds only the
workload generators' seed (the applications' imbalance and jitter draws);
the machine, the cap grids and the policies are fixed, so the same seed
gives the same inputs.  The output checks hold on every seed; the headline
digest is pinned at :data:`DEFAULT_SEED` only.

A pass is cut into a fixed sequence of short segments (simulated runs,
LP solves, pipeline steps, pooled calls), each timed in wall and CPU
seconds, so that the run can estimate a pass's cost from each segment's
fastest repeat rather than from whole passes.  Machine-probe samples are
taken between segments, outside them, so the run knows how fast the
machine was while it measured (see ``run.py``).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from layer_trace import LayerTracer
from machine_probe import PROBES, cpu_s
from repro.core import round_schedule, solve_cap_sweep
from repro.core.sweep import ParametricCapSolver
from repro.exec.cache import SolverCache
from repro.experiments.figures import BENCH_CAPS, benchmark_config
from repro.experiments.runner import comparison_spec
from repro.machine.frontiers import FrontierStore
from repro.scenarios import run as scenarios_run
from repro.machine.variability import make_power_models
from repro.scenarios.run import cell_payload, run_scenarios
from repro.simulator import Engine, replay_schedule_sweep, trace_application
from repro.workloads import BENCHMARKS, WorkloadSpec

__all__ = ["DEFAULT_SEED", "PassResult", "WORKLOADS", "traced"]

#: The paper's workload seed (``ExperimentConfig.seed``).
DEFAULT_SEED = 2015

#: sha256 of the headline pass's canonical JSON at :data:`DEFAULT_SEED`.
#: It pins the paper's numbers: a change that moves any of them fails the
#: check until this digest is deliberately updated.
HEADLINE_DIGEST = "a6d6ace24bfb8d63fd57f6049277217121a969146b7cefffb21f3422a0f29e40"

#: How far the headline LP bound may sit above a runtime.  The bound is
#: solved on the first ``lp_iterations`` iterations of the seeded
#: application while the runtimes are measured on later ones, so where the
#: cap does not bind the two samples differ by the seed's iteration jitter:
#: up to 0.6% on seeds 0-19.
HEADLINE_TOLERANCE = 0.02

HEADLINE_BENCHES = ("comd", "bt", "sp")
HEADLINE_RANKS = 16
LP_DENSE_BENCHES = ("bt", "comd", "sp")
LP_DENSE_RANKS = 32
#: 25 per-socket caps, five times as dense as a paper figure's grid.
LP_DENSE_CAPS_W = tuple(float(c) for c in np.linspace(22.0, 80.0, 25))
WARM_BENCHES = ("comd", "bt", "sp", "lulesh")
WARM_RANKS = 8
#: 10 per-socket caps per benchmark: 4 x 10 = 40 cells.
WARM_CAPS_W = tuple(float(c) for c in np.linspace(30.0, 80.0, 10))
WARM_WORKERS = 2


@dataclass
class PassResult:
    """One timed pass: wall and CPU seconds, ops done, its output, the
    ``[wall_s, cpu_s]`` of each of its segments in order, and the
    ``[wall_s, cpu_s]`` of the machine probe samples taken between them."""

    wall_s: float
    cpu_s: float
    ops: int
    output: list
    segments: list
    probes: list


def traced(tracer: LayerTracer | None):
    """Trace the block into ``tracer``; a no-op when it is None."""
    if tracer is None:
        return nullcontext()
    return tracer.active(extra_modules=(sys.modules[__name__],))


#: probe -> least segment seconds between two of its samples.  A pooled
#: pass is a few short segments, each a pool's start-up and shutdown; its
#: probe, which does the same, is sampled after every one of them.
PROBE_EVERY_S = {"serial": 0.2, "pool": 0.0}


class Clock:
    """Times a pass's segments, with probe samples between them."""

    def __init__(self, probe: str = "serial") -> None:
        self._sample = PROBES[probe][0]
        self._every_s = PROBE_EVERY_S[probe]
        self.segments: list[list[float]] = []
        self.probes: list[float] = []
        self._since_probe = 0.0
        self._start = (time.perf_counter(), cpu_s())

    def mark(self) -> None:
        """End the current segment and start the next; in between, sample
        the probe if the segments since the last sample took long enough."""
        t, c = time.perf_counter(), cpu_s()
        self.segments.append([t - self._start[0], c - self._start[1]])
        self._since_probe += t - self._start[0]
        if self._since_probe >= self._every_s:
            self.probes.append(self._sample())
            self._since_probe = 0.0
        self._start = (time.perf_counter(), cpu_s())


def _measure(work, tracer: LayerTracer | None, probe: str = "serial") -> PassResult:
    """Run ``work(clock)``; it marks its segment boundaries on ``clock``."""
    with traced(tracer):
        clock = Clock(probe)
        output = work(clock)
        clock.mark()
    if not clock.probes:
        clock.probes.append(PROBES[probe][0]())
    return PassResult(
        wall_s=sum(s[0] for s in clock.segments),
        cpu_s=sum(s[1] for s in clock.segments),
        ops=len(output), output=output,
        segments=clock.segments, probes=clock.probes,
    )


@contextmanager
def _mark_after(clock: Clock | None, owner, *names: str, every: int = 1):
    """Mark ``clock`` as every ``every``-th call to ``owner.<name>`` returns.

    ``owner`` is a module, whose functions are looked up by name when they
    are called, or a class, whose methods are looked up on it.  A None
    clock leaves every name alone (the traced run wraps the same entry
    points and is timed by whole passes only).
    """
    if clock is None:
        yield
        return
    saved = {name: vars(owner)[name] for name in names}

    def marked(fn):
        calls = 0

        @functools.wraps(fn)
        def call(*args, **kwargs):
            nonlocal calls
            try:
                return fn(*args, **kwargs)
            finally:
                calls += 1
                if calls % every == 0:
                    clock.mark()

        return call

    for name, fn in saved.items():
        setattr(owner, name, marked(fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(owner, name, fn)


def digest(output: list) -> str:
    return hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()


def _spec(bench: str, n_ranks: int, seed: int, caps: tuple[float, ...]):
    cfg = dataclasses.replace(benchmark_config(bench, n_ranks), seed=seed)
    return comparison_spec(cfg, caps)


# ----------------------------------------------------------------------
class Headline:
    """The paper's headline campaign (Figs. 9-15, Table 3, §6.3).

    One pass is ``run_scenarios`` of the {static, conductor, lp}
    comparison over the figure cap grids of comd, bt and sp at 16 ranks:
    16 cells, serial, no cache.  A pass runs in a child process forked from
    the set-up state, so it pays the trace and frontier builds a user pays
    per invocation rather than reading an earlier pass's in-process state.
    One op is one cell.  Untraced, each benchmark's trace build,
    problem-instance build and LP assembly is a segment, as is each
    simulated run and every 256th frontier profile, the rest of each cell
    and each benchmark's payload assembly.
    """

    name = "headline"
    pooled = False
    probe = "serial"
    ops_per_pass = sum(len(BENCH_CAPS[b]) for b in HEADLINE_BENCHES)

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.specs = [
            _spec(b, HEADLINE_RANKS, seed, BENCH_CAPS[b]) for b in HEADLINE_BENCHES
        ]

    def _pass(self, tracer: LayerTracer | None) -> PassResult:
        def work(clock: Clock) -> list:
            cells = []
            marks = None if tracer else clock
            for spec in self.specs:
                with _mark_after(
                    marks, scenarios_run,
                    "trace_application", "build_problem_instance", "run_scenario_cell",
                ), _mark_after(marks, ParametricCapSolver, "__init__"), _mark_after(
                    marks, Engine, "run"
                ), _mark_after(marks, FrontierStore, "profile", every=256):
                    result = run_scenarios(spec, workers=1)
                for cell in result.cells:
                    doc = cell_payload(spec, cell)
                    doc["benchmark"] = cell.benchmark
                    doc["cap_per_socket_w"] = cell.cap_per_socket_w
                    doc["failed"] = cell.failed
                    cells.append(doc)
                clock.mark()
            return cells

        return _measure(work, tracer)

    def run_pass(self, tracer: LayerTracer | None = None) -> PassResult:
        """One pass in a forked child; its result and layer tallies come
        back as JSON over a pipe."""
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                child_tracer = LayerTracer() if tracer is not None else None
                doc = dataclasses.asdict(self._pass(child_tracer))
                doc["layers"] = child_tracer.snapshot() if child_tracer else None
                with os.fdopen(write_fd, "w") as out:
                    json.dump(doc, out)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stderr.flush()
                os._exit(code)
        os.close(write_fd)
        with os.fdopen(read_fd) as pipe:
            payload = pipe.read()
        _, status = os.waitpid(pid, 0)
        if status != 0:
            raise RuntimeError(f"headline pass exited with status {status}")
        doc = json.loads(payload)
        layers = doc.pop("layers")
        if tracer is not None:
            tracer.merge(layers)
        return PassResult(**doc)

    def check(self, result: PassResult, first: PassResult) -> tuple[int, list[str]]:
        """LP bound <= Static and Conductor (within the tolerance) in every
        schedulable cell; passes agree; the digest matches at the default
        seed."""
        failed, problems = 0, []
        for cell in result.output:
            where = f"{cell['benchmark']} cap={cell['cap_per_socket_w']:g}W"
            t = {name: o["time_s"] for name, o in cell["outcomes"].items()}
            if cell["failed"]:
                problem = "cell failed"
            elif not cell["schedulable"]:
                continue
            elif None in t.values():
                problem = f"missing time in a schedulable cell: {t}"
            elif t["lp"] > min(t["static"], t["conductor"]) * (1 + HEADLINE_TOLERANCE):
                problem = f"LP bound {t['lp']} above a runtime: {t}"
            else:
                continue
            failed += 1
            problems.append(f"headline {where}: {problem}")
        got = digest(result.output)
        if got != digest(first.output):
            failed = result.ops
            problems.append("headline: pass output differs from the first pass")
        if self.seed == DEFAULT_SEED and got != HEADLINE_DIGEST:
            failed = result.ops
            problems.append(
                f"headline: digest {got} differs from expected {HEADLINE_DIGEST}"
            )
        return failed, problems


# ----------------------------------------------------------------------
class LpDense:
    """Bound-then-replay validation (paper §6.1) at figure-sweep density.

    For bt, comd and sp at 32 ranks, one pass traces the application,
    solves the fixed-order LP at 25 caps from one assembled model, rounds
    each feasible schedule to single configurations (``floor``, never
    above the LP's task power) and replays all of them in one vectorized
    DAG walk with cap verification.  One op is one cap.  Untraced, each
    cap's LP solve is a segment, and so are the trace, the model assembly,
    the rounding and the replay of each benchmark.
    """

    name = "lp-dense"
    pooled = False
    probe = "serial"
    ops_per_pass = len(LP_DENSE_BENCHES) * len(LP_DENSE_CAPS_W)

    def setup(self, seed: int, workdir: Path) -> None:
        self.inputs = []
        for bench in LP_DENSE_BENCHES:
            cfg = benchmark_config(bench, LP_DENSE_RANKS)
            app = BENCHMARKS[bench](WorkloadSpec(
                n_ranks=LP_DENSE_RANKS, iterations=cfg.lp_iterations, seed=seed
            ))
            pms = make_power_models(
                LP_DENSE_RANKS, cfg.efficiency_seed, sigma=cfg.efficiency_sigma
            )
            self.inputs.append((bench, app, pms))
        self.caps = [c * LP_DENSE_RANKS for c in LP_DENSE_CAPS_W]

    def run_pass(self, tracer: LayerTracer | None = None) -> PassResult:
        def work(clock: Clock) -> list:
            rows = []
            for bench, app, pms in self.inputs:
                trace = trace_application(app, pms)
                clock.mark()
                with _mark_after(None if tracer else clock, ParametricCapSolver,
                                 "__init__", "solve"):
                    sweep = solve_cap_sweep(trace, self.caps)
                kept, lp_makespans, assignments = [], [], []
                for cap in self.caps:
                    lp = sweep.results[cap]
                    if lp.feasible:
                        kept.append(cap)
                        lp_makespans.append(lp.makespan_s)
                        disc = round_schedule(trace, lp.schedule, mode="floor")
                        assignments.append(disc.config_map())
                    else:
                        rows.append((bench, cap, None, None, None, None))
                clock.mark()
                replays = replay_schedule_sweep(app, assignments, pms, kept)
                rows.extend(
                    (bench, cap, lp_s, r.makespan_s, r.peak_power_w, r.cap_respected)
                    for cap, lp_s, r in zip(kept, lp_makespans, replays)
                )
                clock.mark()
            return rows

        return _measure(work, tracer)

    def check(self, result: PassResult, first: PassResult) -> tuple[int, list[str]]:
        """Every feasible cap's replay respects the cap and does not beat
        its LP bound; passes agree."""
        failed, problems = 0, []
        for bench, cap, lp_s, replay_s, peak_w, respected in result.output:
            if lp_s is None:
                continue  # infeasible cap: nothing was replayed
            if not respected:
                problem = f"replay peak {peak_w:.1f} W over the cap"
            elif replay_s < lp_s * (1 - 1e-9):
                problem = f"replay {replay_s} s beat the LP bound {lp_s} s"
            else:
                continue
            failed += 1
            problems.append(f"lp-dense {bench} cap={cap:g}W: {problem}")
        if result.output != first.output:
            failed = result.ops
            problems.append("lp-dense: pass output differs from the first pass")
        return failed, problems


# ----------------------------------------------------------------------
class WarmRerun:
    """A 40-cell sweep re-rendered from a warm cache through a pool.

    Set-up fills a fresh :class:`~repro.exec.cache.SolverCache` with one
    cold pooled pass over comd/bt/sp/lulesh x {static, conductor, lp} at
    8 ranks x 10 caps.  Each timed pass renders the same 40 cells again
    through the same 2-worker pool; every cell is a cache hit, so the
    simulator and solver do no work.  One op is one cell read back; each
    benchmark's pooled ``run_scenarios`` call is a segment.
    """

    name = "warm-rerun"
    pooled = True
    probe = "pool"
    ops_per_pass = len(WARM_BENCHES) * len(WARM_CAPS_W)

    def setup(self, seed: int, workdir: Path, workers: int = WARM_WORKERS) -> None:
        self.cache = SolverCache(workdir / "cache")
        self.specs = [
            _spec(b, WARM_RANKS, seed, WARM_CAPS_W) for b in WARM_BENCHES
        ]
        self.cold = self._render(workers, Clock())

    def _render(self, workers: int, clock: Clock) -> list:
        rendered = []
        for spec in self.specs:
            rendered.extend(
                json.dumps(cell_payload(spec, cell), sort_keys=True)
                for cell in run_scenarios(spec, workers=workers, cache=self.cache).cells
            )
            clock.mark()
        return rendered

    def run_pass(
        self, tracer: LayerTracer | None = None, workers: int = WARM_WORKERS
    ) -> PassResult:
        return _measure(lambda clock: self._render(workers, clock), tracer, self.probe)

    def check(self, result: PassResult, first: PassResult) -> tuple[int, list[str]]:
        """Every warm cell is byte-equal to the cold fill."""
        failed = sum(a != b for a, b in zip(result.output, self.cold))
        failed += abs(len(result.output) - len(self.cold))
        problems = [f"warm-rerun: {failed} cell(s) differ from the cold fill"]
        return failed, problems if failed else []


WORKLOADS = {w.name: w for w in (Headline, LpDense, WarmRerun)}
