"""Serial sweeps solve their LP cells ahead: same bytes, same records.

An in-process ``run_scenarios`` hands the fixed-order LP of every
schedulable cell it will compute to one helper thread before the first
cell runs, and each cell takes its solve at the point where it solved
before.  Nothing observable may change: the cell payloads, the solve
audit records and their cold/resolve labels, the trace scope of every
solve event and the deterministic metrics all match a sweep on one
thread (``core.solver._width`` forced to 1).  The helper is forced on
(width 2) so that the threaded path runs on any machine; the unforced
test follows the CPUs the process may run on (run this file under
``taskset -c 0`` to cover the one-CPU path, where no helper starts).
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading

import pytest

import repro.core.solver as solver_mod
from repro.exec.cache import SolverCache
from repro.exec.faults import FaultInjector, FaultSpec
from repro.exec.options import execution_options
from repro.exec.parallel import ParallelExecutionError
from repro.experiments.figures import benchmark_config
from repro.experiments.runner import comparison_spec
from repro.obs import Metrics, SolveAudit, TraceRecorder, use_audit, use_metrics
from repro.obs.recorder import use_recorder
from repro.scenarios import run as run_mod
from repro.scenarios.registry import PolicyRegistry, default_registry
from repro.scenarios.run import cell_payload, run_scenarios
from repro.scenarios.spec import PolicySpec, ScenarioSpec

RANKS = 4
#: sp's 30 W cap is below its minimum schedulable cap (40 W).
CAPS = {
    "comd": (40.0, 55.0, 70.0),
    "bt": (30.0, 45.0, 60.0),
    "sp": (30.0, 50.0, 70.0),
}


def spec_for(bench: str, caps: tuple[float, ...] | None = None) -> ScenarioSpec:
    return comparison_spec(benchmark_config(bench, RANKS), caps or CAPS[bench])


def payloads(result) -> list[str]:
    return [
        json.dumps(cell_payload(result.spec, cell), sort_keys=True)
        for cell in result.cells
    ]


def helper_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("repro-lp")]


@pytest.fixture
def width(monkeypatch):
    """``width(k)``: every batch of solves uses ``min(k, jobs)`` threads."""

    def force(k: int) -> None:
        monkeypatch.setattr(solver_mod, "_width", lambda n: max(1, min(k, n)))

    return force


@pytest.fixture
def pools(monkeypatch):
    """Every helper pool a solving-ahead block starts."""
    started = []
    make = solver_mod.ThreadPoolExecutor

    def record(*args, **kwargs):
        started.append(make(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(solver_mod, "ThreadPoolExecutor", record)
    return started


@pytest.fixture
def computed(monkeypatch):
    """The thread name of every LP the solver computes."""
    names = []
    compute = solver_mod.FrozenProgram._compute

    def counted(self, *args):
        names.append(threading.current_thread().name)
        return compute(self, *args)

    monkeypatch.setattr(solver_mod.FrozenProgram, "_compute", counted)
    return names


def wait_for_the_helper(monkeypatch) -> None:
    """Make every cell wait for the helper's solve instead of cancelling
    it, so each solved-ahead cap is taken from the helper."""
    solve = solver_mod.FrozenProgram.solve

    def waiting(self, *args, ahead=None, **kwargs):
        if ahead is not None:
            ahead.exception(timeout=120.0)
        return solve(self, *args, ahead=ahead, **kwargs)

    monkeypatch.setattr(solver_mod.FrozenProgram, "solve", waiting)


@pytest.fixture
def taken(monkeypatch):
    wait_for_the_helper(monkeypatch)


def sweep(spec: ScenarioSpec, **kwargs):
    return run_scenarios(spec, workers=1, **kwargs)


# ----------------------------------------------------------------------
class TestIdenticalOutput:
    @pytest.mark.parametrize("bench", ["comd", "bt", "sp"])
    def test_payloads_match_width_one(self, bench, width, pools):
        spec = spec_for(bench)
        width(1)
        alone = payloads(sweep(spec))
        assert pools == []
        width(2)
        assert payloads(sweep(spec)) == alone
        assert len(pools) == 1

    def test_solves_taken_from_the_helper(self, width, computed, taken):
        spec = spec_for("comd")
        width(1)
        alone = payloads(sweep(spec))
        assert set(computed) == {"MainThread"}
        computed.clear()
        width(2)
        assert payloads(sweep(spec)) == alone
        assert len(computed) == len(spec.caps_per_socket_w)
        assert all(name.startswith("repro-lp") for name in computed)

    def test_linprog_backend(self, width, monkeypatch):
        monkeypatch.setattr(solver_mod, "_HIGHS_DIRECT", False)
        spec = spec_for("comd")
        width(1)
        alone = payloads(sweep(spec))
        width(2)
        audit = SolveAudit()
        with use_audit(audit):
            assert payloads(sweep(spec)) == alone
        assert [r.backend for r in audit.records] == ["linprog"] * 3

    def test_two_lp_entries_and_the_energy_anchor(self, width, pools):
        # Two tie-breaks make two solvers; energy-lp's anchor shares the
        # lp entry's solve key, so one of the two solves is taken ahead
        # and the other is solved in the cell.
        spec = ScenarioSpec(
            benchmark="synthetic",
            caps_per_socket_w=(35.0, 50.0, 65.0),
            policies=(
                PolicySpec("static"),
                PolicySpec("lp"),
                PolicySpec("lp", name="lp-tb", config={"power_tiebreak": 1e-6}),
                PolicySpec("energy-lp"),
            ),
            n_ranks=4,
            run_iterations=8,
            lp_iterations=2,
            discard_iterations=2,
            steady_window=4,
        )
        width(1)
        alone = payloads(sweep(spec))
        width(2)
        assert payloads(sweep(spec)) == alone
        assert len(pools) == 1


    def test_energy_lp_anchor_alone(self, width, computed, taken):
        # Without an lp entry, energy-lp's capped anchor is the only
        # fixed-order solve, and the helper solves it.
        spec = dataclasses.replace(
            spec_for("bt"),
            policies=(PolicySpec("static"), PolicySpec("energy-lp")),
        )
        width(1)
        alone = payloads(sweep(spec))
        computed.clear()
        width(2)
        assert payloads(sweep(spec)) == alone
        anchors = [name for name in computed if name.startswith("repro-lp")]
        assert len(anchors) == len(spec.caps_per_socket_w)


def observe(spec: ScenarioSpec):
    audit, metrics, recorder = SolveAudit(), Metrics(), TraceRecorder()
    with use_audit(audit), use_metrics(metrics), use_recorder(recorder):
        sweep(spec)
    records = [
        (r.program, r.backend, r.source, r.rows, r.cols, r.nnz, r.status,
         r.objective)
        for r in audit.records
    ]
    deterministic = json.dumps(
        metrics.to_dict(deterministic_only=True), sort_keys=True
    )
    return records, deterministic, recorder.snapshot()


class TestIdenticalRecords:
    @pytest.mark.parametrize("wait", [False, True])
    def test_audit_metrics_and_trace(self, width, monkeypatch, wait):
        spec = spec_for("comd")
        width(1)
        alone = observe(spec)
        if wait:
            wait_for_the_helper(monkeypatch)
        width(2)
        ahead = observe(spec)
        assert ahead[0] == alone[0]
        assert [r[2] for r in ahead[0]] == ["cold", "resolve", "resolve"]
        assert ahead[1] == alone[1]
        assert ahead[2] == alone[2]
        solves = [e["run"] for e in ahead[2] if e["kind"] == "solve"]
        assert solves == [f"lp comd cap={cap:g}W" for cap in CAPS["comd"]]


class TestCallerSolvesWhileWaiting:
    def test_queued_caps_solved_on_the_caller(self, width, monkeypatch):
        # The helper's first solve is held until the calling thread has
        # solved one itself, and the first cell asks for its cap only
        # once the helper has started it: the cell then waits on a
        # running solve and solves the last queued cap meanwhile.
        spec = spec_for("comd")
        width(1)
        alone = observe(spec)
        alone_payloads = payloads(sweep(spec))
        started, released = threading.Event(), threading.Event()
        names: list[str] = []
        compute = solver_mod.FrozenProgram._compute
        solve = solver_mod.FrozenProgram.solve

        def held(self, *args):
            on_helper = threading.current_thread().name.startswith("repro-lp")
            if on_helper:
                started.set()
                released.wait(timeout=60.0)
            try:
                return compute(self, *args)
            finally:
                names.append(threading.current_thread().name)
                if not on_helper:
                    released.set()

        def after_the_helper_starts(self, *args, ahead=None, **kwargs):
            if ahead is not None:
                started.wait(timeout=60.0)
            return solve(self, *args, ahead=ahead, **kwargs)

        monkeypatch.setattr(solver_mod.FrozenProgram, "_compute", held)
        monkeypatch.setattr(solver_mod.FrozenProgram, "solve", after_the_helper_starts)
        width(2)
        ahead = observe(spec)
        assert names[0] == "MainThread"
        assert any(name.startswith("repro-lp") for name in names)
        assert len(names) == len(spec.caps_per_socket_w)
        assert ahead == alone
        assert payloads(sweep(spec)) == alone_payloads


# ----------------------------------------------------------------------
class TestHelperLifetime:
    def test_no_helper_after_return(self, width, pools):
        width(2)
        sweep(spec_for("sp"))
        assert len(pools) == 1
        assert helper_threads() == []

    def test_no_helper_after_an_injected_fault(self, width, pools):
        width(2)
        fault = FaultInjector(FaultSpec(mode="raise", rate=1.0, match="cap=55"))
        with pytest.raises(ParallelExecutionError, match="cap=55"):
            sweep(spec_for("comd"), faults=fault)
        assert len(pools) == 1
        assert helper_threads() == []

    def test_no_helper_after_a_raise_in_the_plain_loop(
        self, width, pools, monkeypatch
    ):
        cell = run_mod._run_scenario_cell

        def failing(spec, cap, *args):
            if cap == 55.0:
                raise RuntimeError("cell failed")
            return cell(spec, cap, *args)

        monkeypatch.setattr(run_mod, "_run_scenario_cell", failing)
        width(2)
        with pytest.raises(ParallelExecutionError, match="cell failed"):
            sweep(spec_for("comd"))
        assert len(pools) == 1
        assert helper_threads() == []

    def test_a_failed_build_fails_the_cells_as_before(self, width, monkeypatch):
        # The shared state is built before the first cell only to solve
        # ahead; when that fails, each cell meets the error itself.
        def broken(*args, **kwargs):
            raise RuntimeError("no trace")

        monkeypatch.setattr(run_mod, "trace_application", broken)
        # A seed no other test uses, so no process-wide shared state
        # for this spec exists yet.
        cfg = dataclasses.replace(benchmark_config("bt", RANKS), seed=4242)
        spec = comparison_spec(cfg, (45.0, 60.0))
        docs = []
        for k in (1, 2):
            width(k)
            docs.append(sweep(spec, keep_going=True).failure_docs())
        assert docs[1] == docs[0]
        assert [d["error_message"] for d in docs[1]] == ["no trace"] * 2
        assert helper_threads() == []


# ----------------------------------------------------------------------
def flaky_lp_registry(fail_at_job_cap_w: float) -> PolicyRegistry:
    """The default registry with an ``lp`` entry that fails once at one
    cap, after its solve: the retry must solve that cap again."""
    failed = []
    lp = default_registry().get("lp")

    def solve(ctx, cfg, scope):
        bound = lp.solve(ctx, cfg, scope)
        if ctx.job_cap_w == fail_at_job_cap_w and not failed:
            failed.append(ctx.job_cap_w)
            raise RuntimeError("lost the bound")
        return bound

    registry = PolicyRegistry()
    for entry in default_registry().entries():
        registry.register(
            dataclasses.replace(entry, solve=solve) if entry.name == "lp" else entry
        )
    return registry


class TestRetriesAndSkips:
    def test_fault_retried_once(self, width, tmp_path):
        spec = spec_for("comd")
        width(1)
        alone = payloads(sweep(spec))
        width(2)
        fault = FaultInjector(FaultSpec(
            mode="raise", rate=1.0, match="cap=55", times=1,
            state_dir=str(tmp_path),
        ))
        with execution_options(task_retries=1, task_backoff_s=0.0):
            result = sweep(spec, faults=fault)
        assert payloads(result) == alone

    def test_retry_after_the_solve_solves_again(self, width, computed):
        spec = spec_for("comd")
        width(1)
        alone = payloads(sweep(spec))
        computed.clear()
        width(2)
        audit = SolveAudit()
        retry_once = execution_options(task_retries=1, task_backoff_s=0.0)
        with retry_once, use_audit(audit):
            result = sweep(
                spec, registry=flaky_lp_registry(55.0 * RANKS), keep_going=True
            )
        assert payloads(result) == alone
        assert len(computed) == 4  # the retried cap is solved twice
        assert [r.source for r in audit.records] == ["cold"] + ["resolve"] * 3

    def test_cache_served_cells_solve_nothing(self, width, pools, computed,
                                              tmp_path):
        spec = spec_for("comd")
        width(2)
        warm = SolverCache(tmp_path)
        sweep(spec_for("comd", (40.0,)), cache=warm)
        assert len(computed) == 1
        computed.clear()
        sweep(spec, cache=warm)  # 40 W is served, 55 and 70 W are not
        assert len(computed) == 2
        pools.clear()
        computed.clear()
        result = sweep(spec, cache=warm)
        assert computed == [] and pools == []
        width(1)
        assert payloads(result) == payloads(sweep(spec))

    def test_cached_lps_of_other_cells_solve_nothing(
        self, width, pools, computed, tmp_path
    ):
        # A spec whose lp entry is configured differently misses every
        # cell key but hits the LP solves the first spec cached.
        warm = SolverCache(tmp_path)
        width(2)
        sweep(spec_for("comd"), cache=warm)
        assert len(computed) == 3
        pools.clear()
        computed.clear()
        discrete = comparison_spec(
            benchmark_config("comd", RANKS), CAPS["comd"], include_discrete=True
        )
        result = sweep(discrete, cache=warm)
        assert computed == [] and pools == []
        width(1)
        assert payloads(result) == payloads(sweep(discrete))

    def test_caps_below_the_minimum_solve_nothing(self, width, pools, computed):
        width(2)
        result = sweep(spec_for("sp", (20.0, 30.0)))
        assert [cell.schedulable for cell in result.cells] == [False, False]
        assert computed == [] and pools == []
        assert helper_threads() == []


class TestDefaultWidth:
    def test_helper_only_with_a_second_cpu(self, pools):
        spec = spec_for("comd")
        sweep(spec)
        assert len(pools) == (1 if len(os.sched_getaffinity(0)) > 1 else 0)
        assert helper_threads() == []
