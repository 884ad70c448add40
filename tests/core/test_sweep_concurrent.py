"""Concurrent cap sweeps: threaded solves are the serial solves, bit for bit.

``ParametricCapSolver.solve_many`` (and ``solve_cap_sweep`` through it)
solves a sweep's caps on one thread per usable CPU (two at most), each
thread with its own HiGHS handle.  Every solve starts cold, so the threads must change
nothing but the wall time: the same primal vectors, objectives, statuses,
decoded schedules, audit records and deterministic metrics as one
``solve`` per cap on one thread.  The tests force the width through the
private ``_width`` helper so that the threaded path is exercised on any
machine; the unforced tests follow the CPUs the process may run on (run
them under ``taskset -c 0`` to cover the width-1 path).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

import numpy as np
import pytest

import repro.core.solver as solver_mod
from repro.core import (
    LpStatus,
    ParametricCapSolver,
    solve_cap_sweep,
    solve_fixed_order_lp,
)
from repro.exec.cache import SolverCache, lp_result_payload
from repro.experiments.figures import benchmark_config
from repro.machine.variability import make_power_models
from repro.obs import Metrics, SolveAudit, TraceRecorder, use_audit, use_metrics
from repro.obs.recorder import use_recorder
from repro.scenarios.run import run_scenarios
from repro.scenarios.spec import PolicySpec, ScenarioSpec
from repro.simulator import trace_application
from repro.workloads import BENCHMARKS, WorkloadSpec

#: The dense benchmark grid: 25 per-socket caps from 22 to 80 W at 32 ranks.
DENSE_RANKS = 32
DENSE_CAPS = tuple(DENSE_RANKS * float(c) for c in np.linspace(22.0, 80.0, 25))


def bench_trace(bench: str, n_ranks: int, seed: int = 2015):
    cfg = benchmark_config(bench, n_ranks)
    app = BENCHMARKS[bench](
        WorkloadSpec(n_ranks=n_ranks, iterations=cfg.lp_iterations, seed=seed)
    )
    models = make_power_models(
        n_ranks, cfg.efficiency_seed, sigma=cfg.efficiency_sigma
    )
    return trace_application(app, models)


def bits(result) -> str:
    """Status, objective, primal vector and decoded schedule, exactly."""
    return json.dumps(lp_result_payload(result), sort_keys=True)


def assert_identical(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for cap in want:
        a, b = got[cap], want[cap]
        assert a.solution.status is b.solution.status, cap
        assert np.array_equal(a.solution.x, b.solution.x), cap
        assert bits(a) == bits(b), cap


def serial_solves(trace, caps) -> dict:
    """One ``solve`` per cap, one after another, on this thread."""
    solver = ParametricCapSolver(trace)
    return {float(cap): solver.solve(cap) for cap in caps}


@pytest.fixture
def width(monkeypatch):
    """``width(k)``: every batch uses ``min(k, jobs)`` threads."""

    def force(k: int) -> None:
        monkeypatch.setattr(solver_mod, "_width", lambda n: max(1, min(k, n)))

    return force


@pytest.fixture(scope="module")
def dense():
    """bench -> (32-rank trace, serial per-cap results on the dense grid)."""
    cache = {}

    def get(bench: str):
        if bench not in cache:
            trace = bench_trace(bench, DENSE_RANKS)
            cache[bench] = (trace, serial_solves(trace, DENSE_CAPS))
        return cache[bench]

    return get


@pytest.fixture(scope="module")
def small_trace():
    return bench_trace("comd", 8)


class TestBitIdentity:
    @pytest.mark.parametrize("bench", ["bt", "comd", "sp"])
    def test_sweep_matches_serial_and_rebuild(self, dense, bench):
        trace, serial = dense(bench)
        threaded = solve_cap_sweep(trace, DENSE_CAPS)
        assert_identical(threaded.results, serial)
        rebuild = solve_cap_sweep(trace, DENSE_CAPS, parametric=False)
        assert_identical(rebuild.results, serial)

    @pytest.mark.parametrize("k", [1, 3])
    def test_forced_width_matches_serial(self, dense, width, k):
        trace, serial = dense("bt")
        width(k)
        solver = ParametricCapSolver(trace)
        assert_identical(solver.solve_many(DENSE_CAPS), serial)
        assert solver.n_solves == len(DENSE_CAPS)

    def test_duplicate_and_infeasible_caps(self, dense, width):
        trace, _ = dense("bt")
        caps = (40.0 * DENSE_RANKS, 5.0 * DENSE_RANKS, 40.0 * DENSE_RANKS,
                60.0 * DENSE_RANKS)
        width(3)
        solver = ParametricCapSolver(trace)
        got = solver.solve_many(caps)
        assert list(got) == [1280.0, 160.0, 1920.0]
        assert solver.n_solves == 3  # the repeated cap is solved once
        assert got[160.0].solution.status is LpStatus.INFEASIBLE
        assert not got[160.0].feasible
        assert_identical(got, serial_solves(trace, got))
        assert_identical(
            solve_cap_sweep(trace, caps).results,
            solve_cap_sweep(trace, caps, parametric=False).results,
        )


class TestThreadSafety:
    def _concurrently(self, *jobs):
        barrier = threading.Barrier(len(jobs))
        out = [None] * len(jobs)
        errors = []

        def run(i, job):
            try:
                barrier.wait()
                out[i] = job()
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(i, job))
            for i, job in enumerate(jobs)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
            assert not thread.is_alive(), "solve hung"
        assert not errors, errors
        return out

    def test_stress_more_threads_than_cpus(self, small_trace, width, monkeypatch):
        # Every job must be solved exactly once however the caller's
        # cancellations and the helpers' starts interleave: solved twice
        # if a started job were also cancelled, never if a cancelled one
        # were also skipped by the caller.
        caps = [c * 8 for c in np.linspace(25.0, 80.0, 16)]
        want = serial_solves(small_trace, caps)
        computed = []
        compute = solver_mod.FrozenProgram._compute

        def counted(self, *args):
            computed.append(args[0])
            return compute(self, *args)

        monkeypatch.setattr(solver_mod.FrozenProgram, "_compute", counted)
        width(6)
        solver = ParametricCapSolver(small_trace)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            (got,) = self._concurrently(lambda: solver.solve_many(caps))
        finally:
            sys.setswitchinterval(interval)
        assert_identical(got, want)
        assert len(computed) == len(caps)
        assert solver.n_solves == len(caps)

    def test_two_programs_at_once(self, small_trace, width):
        other = bench_trace("bt", 8)
        caps = [c * 8 for c in (30.0, 45.0, 60.0, 75.0)]
        want = [serial_solves(small_trace, caps), serial_solves(other, caps)]
        width(2)
        a, b = ParametricCapSolver(small_trace), ParametricCapSolver(other)
        got = self._concurrently(
            lambda: {c: a.solve(c) for c in caps},
            lambda: b.solve_many(caps),
        )
        assert_identical(got[0], want[0])
        assert_identical(got[1], want[1])

    def test_one_program_from_two_threads(self, small_trace, width):
        caps = [c * 8 for c in (30.0, 40.0, 50.0, 60.0, 70.0, 80.0)]
        want = serial_solves(small_trace, caps)
        width(2)
        solver = ParametricCapSolver(small_trace)
        got = self._concurrently(
            lambda: {c: solver.solve(c) for c in caps},
            lambda: solver.solve_many(caps[::-1]),
        )
        assert_identical(got[0], want)
        assert_identical(got[1], {c: want[c] for c in caps[::-1]})

    def test_pool_after_threaded_sweep(self, small_trace, width):
        width(2)
        solve_cap_sweep(small_trace, [c * 8 for c in (30.0, 50.0, 70.0)])
        spec = ScenarioSpec(
            benchmark="synthetic",
            caps_per_socket_w=(35.0, 45.0, 55.0),
            policies=(PolicySpec("static"), PolicySpec("lp")),
            n_ranks=4,
            run_iterations=8,
            lp_iterations=2,
            discard_iterations=2,
            steady_window=4,
        )
        serial = run_scenarios(spec, workers=1)
        parallel = run_scenarios(spec, workers=2)
        for a, b in zip(serial.cells, parallel.cells):
            assert not a.failed and not b.failed
            for name in spec.policy_labels():
                assert a.outcomes[name].time_s == b.outcomes[name].time_s

    def test_forked_child_runs_a_threaded_sweep(self, small_trace, width):
        # A child forked after a threaded sweep inherits the parent's
        # handle but none of its threads; its own threaded sweep must
        # start and join its own helper.
        caps = [c * 8 for c in (30.0, 50.0, 70.0)]
        want = serial_solves(small_trace, caps)
        width(2)
        solve_cap_sweep(small_trace, caps)
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child reports by exit code
            code = 1
            try:
                got = solve_cap_sweep(small_trace, caps).results
                code = 0 if [bits(r) for r in got.values()] == [
                    bits(r) for r in want.values()
                ] else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 120.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("threaded sweep hung in a forked child")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(status) == 0


def _helper_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("repro-lp")]


class TestStructure:
    def test_default_width_is_at_most_two(self):
        cpus = len(os.sched_getaffinity(0))
        assert solver_mod._width(1) == 1
        assert solver_mod._width(25) == min(cpus, 2)

    def test_every_cap_is_recorded_on_the_caller(self, small_trace, width,
                                                 monkeypatch):
        # FrozenProgram.solve runs once per solved cap on the calling
        # thread, so per-call wrappers and context-bound recorders see
        # every solve; ParametricCapSolver.solve is not re-entered.
        calls = []
        solve = solver_mod.FrozenProgram.solve

        def on_caller(self, *args, **kwargs):
            calls.append(threading.get_ident())
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(solver_mod.FrozenProgram, "solve", on_caller)
        monkeypatch.setattr(
            ParametricCapSolver, "solve",
            lambda *a, **k: pytest.fail("solve re-entered"),
        )
        width(3)
        caps = [c * 8 for c in (30.0, 40.0, 50.0, 60.0, 70.0)]
        ParametricCapSolver(small_trace).solve_many(caps)
        assert calls == [threading.get_ident()] * len(caps)

    def test_helpers_end_with_the_sweep(self, small_trace, width):
        width(2)
        solve_cap_sweep(small_trace, [c * 8 for c in (30.0, 50.0, 70.0)])
        assert _helper_threads() == []

    def test_helper_error_reaches_the_caller(self, small_trace, width,
                                             monkeypatch):
        compute = solver_mod.FrozenProgram._compute
        bad_cap = 70.0 * 8

        def failing(self, lo, hi, time_limit_s):
            if bad_cap in hi:
                raise RuntimeError("solver failed")
            return compute(self, lo, hi, time_limit_s)

        monkeypatch.setattr(solver_mod.FrozenProgram, "_compute", failing)
        width(2)
        caps = [c * 8 for c in (30.0, 40.0, 50.0, 60.0, 70.0)]
        with pytest.raises(RuntimeError, match="solver failed"):
            ParametricCapSolver(small_trace).solve_many(caps)
        assert _helper_threads() == []

    def test_wall_time_is_the_solves_own(self, small_trace, width,
                                         monkeypatch):
        # A cap a helper solved is recorded with the helper's solve time,
        # not with how long the caller waited for it.
        solve_lp = solver_mod.FrozenProgram._solve_lp

        def slow(self, *args):
            time.sleep(0.05)
            return solve_lp(self, *args)

        monkeypatch.setattr(solver_mod.FrozenProgram, "_solve_lp", slow)
        width(2)
        audit = SolveAudit()
        with use_audit(audit):
            ParametricCapSolver(small_trace).solve_many(
                [c * 8 for c in (30.0, 40.0, 50.0, 60.0, 70.0, 80.0)]
            )
        assert len(audit.records) == 6
        assert all(r.wall_s >= 0.05 for r in audit.records)


def _observe(trace, caps, cache=None):
    audit, metrics, recorder = SolveAudit(), Metrics(), TraceRecorder()
    with use_audit(audit), use_metrics(metrics), use_recorder(recorder):
        ParametricCapSolver(trace).solve_many(caps, cache=cache)
    records = [
        (r.program, r.backend, r.source, r.rows, r.cols, r.nnz, r.status,
         r.objective)
        for r in audit.records
    ]
    return records, metrics, recorder.snapshot()


class TestObservability:
    def test_records_identical_across_widths(self, small_trace, width):
        caps = [c * 8 for c in (10.0, 30.0, 45.0, 60.0, 75.0)]
        width(1)
        serial = _observe(small_trace, caps)
        width(3)
        threaded = _observe(small_trace, caps)
        assert threaded[0] == serial[0]
        assert [r[2] for r in serial[0]] == ["cold"] + ["resolve"] * 4
        assert threaded[1].to_dict()["counters"]["solve.total"] == len(caps)
        assert json.dumps(
            threaded[1].to_dict(deterministic_only=True), sort_keys=True
        ) == json.dumps(serial[1].to_dict(deterministic_only=True), sort_keys=True)
        assert threaded[2] == serial[2]

    def test_cache_hits_are_not_solved(self, small_trace, width, tmp_path):
        cache = SolverCache(tmp_path)
        warm = [c * 8 for c in (30.0, 60.0)]
        ParametricCapSolver(small_trace).solve_many(warm, cache=cache)
        caps = [c * 8 for c in (30.0, 40.0, 50.0, 60.0, 70.0)]
        width(3)
        records, metrics, _ = _observe(small_trace, caps, cache=cache)
        assert len(records) == 3
        assert metrics.to_dict()["counters"]["solve.total"] == 3


class TestDegenerateInput:
    @pytest.mark.parametrize(
        "caps", [(), (0.0,), (240.0, -5.0), (240.0, float("nan")),
                 (240.0, float("inf"))],
    )
    def test_rejected_before_any_solve(self, small_trace, monkeypatch, caps):
        def no_threads(*args, **kwargs):
            raise AssertionError("a helper started")

        monkeypatch.setattr(solver_mod, "ThreadPoolExecutor", no_threads)
        solver = ParametricCapSolver(small_trace)
        with pytest.raises(ValueError):
            solver.solve_many(caps)
        assert solver.n_solves == 0
        for parametric in (True, False):
            with pytest.raises(ValueError):
                solve_cap_sweep(small_trace, caps, parametric=parametric)

    def test_linprog_fallback_matches_direct(self, small_trace, width, monkeypatch):
        if not solver_mod._HIGHS_DIRECT:
            pytest.skip("scipy build without accessible HiGHS bindings")
        caps = [c * 8 for c in (10.0, 35.0, 55.0, 75.0)]
        width(2)
        audit = SolveAudit()
        with use_audit(audit):
            direct = solve_cap_sweep(small_trace, caps)
        assert {r.backend for r in audit.records} == {"highs-direct"}
        monkeypatch.setattr(solver_mod, "_HIGHS_DIRECT", False)
        audit = SolveAudit()
        with use_audit(audit):
            fallback = solve_cap_sweep(small_trace, caps)
        assert [r.backend for r in audit.records] == ["linprog"] * len(caps)
        # The two backends word an infeasible status differently; every
        # number and the decoded schedule must match.
        assert list(fallback.results) == list(direct.results)
        for cap, a in fallback.results.items():
            b = direct.results[cap]
            assert a.solution.status is b.solution.status
            assert np.array_equal(a.solution.x, b.solution.x)
            assert (a.solution.objective == b.solution.objective) or not a.feasible
            assert json.dumps(lp_result_payload(a)["schedule"]) == json.dumps(
                lp_result_payload(b)["schedule"]
            )
        assert not direct.results[caps[0]].feasible
        assert solve_fixed_order_lp(small_trace, caps[-1]).makespan_s == (
            direct.results[caps[-1]].makespan_s
        )
