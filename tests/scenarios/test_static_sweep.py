"""Serial sweeps run the swept runtimes at every pending cap ahead.

An in-process ``run_scenarios`` runs each sweepable runtime entry (see
``PolicyEntry.sweep``: Static, and the Conductor planner's conductor,
selection-only and adagio, planned one Pcontrol interval at a time) at
every cap its cells will compute, in one
vector-clock DAG walk before the first cell, and each cell takes its
cap's run and extras where it ran its engine before.  Nothing observable
may change: cell payloads, the deterministic metrics snapshot and the
trace export all match a sweep without it (the ``_running_ahead`` block
replaced by a no-op), and each swept point is the scalar run at its cap,
record for record.  The sweep needs no second CPU, so CI also runs this
file under ``taskset -c 0``.
"""

from __future__ import annotations

import dataclasses
import json
from contextlib import nullcontext

import pytest

from repro.exec.cache import SolverCache
from repro.exec.checkpoint import SweepJournal
from repro.exec.faults import FaultInjector, FaultSpec
from repro.exec.options import execution_options
from repro.exec.parallel import ParallelExecutionError
from repro.experiments.figures import benchmark_config
from repro.experiments.runner import comparison_spec
from repro.obs import Metrics, TraceRecorder, use_metrics
from repro.obs.export import chrome_trace
from repro.obs.recorder import use_recorder
from repro.runtime import ConductorConfig
from repro.scenarios import run as run_mod
from repro.scenarios.registry import default_registry
from repro.scenarios.run import cell_payload, run_scenarios
from repro.scenarios.spec import PolicySpec
from repro.simulator.engine import Engine, SimulationResult

from ..runtime.conductor_oracle import ScalarConductor
from ..runtime.selection_oracle import ScalarAdagio, ScalarSelectionOnly

RANKS = 4
#: sp's and lulesh's 30 W caps are below their minimum cap (40 W).
CAPS = {
    "comd": (40.0, 55.0, 70.0),
    "bt": (30.0, 45.0, 60.0),
    "sp": (30.0, 50.0, 70.0),
    "lulesh": (30.0, 50.0, 70.0),
}


def spec_for(bench: str, caps: tuple[float, ...] | None = None, **overrides):
    spec = comparison_spec(benchmark_config(bench, RANKS), caps or CAPS[bench])
    return dataclasses.replace(spec, **overrides)


def payloads(result) -> list[str]:
    return [
        json.dumps(cell_payload(result.spec, cell), sort_keys=True)
        for cell in result.cells
    ]


@pytest.fixture
def sweeps(monkeypatch):
    """The width (sweep points) of every ``Engine.run_sweep`` call."""
    widths = []
    run_sweep = Engine.run_sweep

    def counted(self, app, policy, plan):
        widths.append(plan.n_points)
        return run_sweep(self, app, policy, plan)

    monkeypatch.setattr(Engine, "run_sweep", counted)
    return widths


@pytest.fixture
def unswept(monkeypatch):
    """``unswept(spec, **kwargs)``: the sweep with nothing run ahead."""

    def run(spec, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(run_mod, "_running_ahead", lambda *args: nullcontext())
            return run_scenarios(spec, workers=1, **kwargs)

    return run


def swept(spec, **kwargs):
    return run_scenarios(spec, workers=1, **kwargs)


def points_left(spec) -> dict:
    return run_mod._shared_for(spec).swept


# ----------------------------------------------------------------------
class TestIdenticalCells:
    @pytest.mark.parametrize("bench", ["comd", "bt", "sp", "lulesh"])
    def test_payloads(self, bench, sweeps, unswept):
        spec = spec_for(bench)
        alone = payloads(unswept(spec))
        assert sweeps == []
        assert payloads(swept(spec)) == alone
        schedulable = 2 if bench in ("sp", "lulesh") else 3
        assert sweeps == [schedulable] * 2  # static, then conductor
        assert points_left(spec) == {}

    def test_a_threads_override(self, sweeps, unswept):
        spec = spec_for("comd", policies=(
            PolicySpec("static"),
            PolicySpec("static", name="static-4", config={"threads": 4}),
            PolicySpec("lp"),
        ))
        alone = payloads(unswept(spec))
        assert payloads(swept(spec)) == alone
        assert sweeps == [3, 3]  # one walk per static instance

    def test_caps_below_the_minimum_are_not_swept(self, sweeps, unswept):
        spec = spec_for("sp", (20.0, 30.0, 45.0))
        alone = unswept(spec)
        result = swept(spec)
        assert payloads(result) == payloads(alone)
        assert [c.schedulable for c in result.cells] == [False, False, True]
        assert sweeps == [1, 1]

    def test_no_schedulable_cap_sweeps_nothing(self, sweeps):
        result = swept(spec_for("sp", (20.0, 30.0)))
        assert [c.schedulable for c in result.cells] == [False, False]
        assert sweeps == []

    def test_deterministic_metrics(self, unswept):
        spec = spec_for("bt")

        def snapshot(run) -> str:
            metrics = Metrics()
            with use_metrics(metrics):
                run(spec)
            return json.dumps(
                metrics.to_dict(deterministic_only=True), sort_keys=True
            )

        assert snapshot(swept) == snapshot(unswept)


class TestWindowFromColumns:
    @pytest.mark.parametrize("bench", ["comd", "bt", "sp", "lulesh"])
    def test_equals_the_record_window(self, bench, monkeypatch):
        """A swept point reads its measurement window from the sweep's
        columns, without building its records, and reads what the
        record-based window reads, bit for bit."""
        outcomes = []
        run_sweep = Engine.run_sweep

        def kept(self, app, policy, plan):
            outcomes.append(run_sweep(self, app, policy, plan))
            return outcomes[-1]

        monkeypatch.setattr(Engine, "run_sweep", kept)
        spec = spec_for(bench)
        swept(spec)
        assert outcomes
        firsts = sorted({0, spec.discard_iterations,
                         spec.run_iterations - spec.steady_window})
        for outcome in outcomes:
            for c in range(outcome.n_points):
                point = outcome.result(c)
                got = [point.window(first) for first in firsts]
                assert point._records is None  # still lazy
                want = [SimulationResult.window(point, first) for first in firsts]
                assert got == want
                assert {type(v) for pair in got for v in pair} == {float}


class TestTracing:
    def test_a_recorder_runs_every_cell_on_its_own(
        self, sweeps, unswept, monkeypatch
    ):
        spec = spec_for("comd")
        runs = []
        run_one = Engine.run

        def counted(self, app, policy):
            runs.append(type(policy).__name__)
            return run_one(self, app, policy)

        monkeypatch.setattr(Engine, "run", counted)

        def export(run) -> str:
            recorder = TraceRecorder()
            with use_recorder(recorder):
                result = run(spec)
            events = recorder.snapshot()
            for cap in CAPS["comd"]:
                scope = f"conductor comd cap={cap:g}W"
                kinds = [e["kind"] for e in events if e["run"] == scope]
                assert kinds.count("realloc") > 0
            doc = chrome_trace(events)
            return payloads(result), json.dumps(doc, sort_keys=True)

        assert export(swept) == export(unswept)
        assert sweeps == []
        assert runs.count("ConductorPolicy") == 2 * len(CAPS["comd"])


# ----------------------------------------------------------------------
class TestServedCells:
    def test_a_partly_warm_cache(self, sweeps, unswept, tmp_path):
        spec = spec_for("comd")
        warm = SolverCache(tmp_path)
        swept(spec_for("comd", (55.0,)), cache=warm)
        assert sweeps == [1, 1]
        sweeps.clear()
        result = swept(spec, cache=warm)
        assert sweeps == [2, 2]  # 55 W is served
        assert payloads(result) == payloads(unswept(spec))
        sweeps.clear()
        swept(spec, cache=warm)
        assert sweeps == []  # every cell is served

    def test_a_journal_resume(self, sweeps, unswept, tmp_path):
        spec = spec_for("bt")
        path = tmp_path / "j.jsonl"
        swept(spec, journal=path)
        lines = path.read_text().splitlines()
        path.write_text(lines[0] + "\n")  # died after the first cell
        sweeps.clear()
        resumed = swept(spec, journal=SweepJournal(path))
        assert sweeps == [2, 2]
        assert payloads(resumed) == payloads(unswept(spec))


class TestFailures:
    def test_a_fault_retried_once(self, unswept, tmp_path):
        spec = spec_for("comd")
        alone = payloads(unswept(spec))

        def faulted(run, state: str) -> tuple:
            fault = FaultInjector(FaultSpec(
                mode="raise", rate=1.0, match="cap=55", times=1,
                state_dir=str(tmp_path / state),
            ))
            metrics = Metrics()
            retry_once = execution_options(task_retries=1, task_backoff_s=0.0)
            with retry_once, use_metrics(metrics):
                result = run(spec, faults=fault)
            deterministic = metrics.to_dict(deterministic_only=True)
            return payloads(result), json.dumps(deterministic, sort_keys=True)

        retried = faulted(swept, "a")
        assert retried[0] == alone
        assert retried == faulted(unswept, "b")

    def test_a_cell_that_never_settles(self, unswept):
        # The cell fails on every attempt: its swept point is never
        # taken, so it counts no simulated tasks, as before.
        spec = spec_for("comd")
        fault = FaultInjector(FaultSpec(mode="raise", rate=1.0, match="cap=55"))

        def observe(run) -> tuple:
            metrics = Metrics()
            with use_metrics(metrics):
                result = run(spec, faults=fault, keep_going=True)
            deterministic = metrics.to_dict(deterministic_only=True)
            return (
                payloads(result),
                result.failure_docs(),
                json.dumps(deterministic, sort_keys=True),
            )

        assert observe(swept) == observe(unswept)
        assert points_left(spec) == {}

    def test_a_failed_build_fails_the_cells_as_before(
        self, sweeps, unswept, monkeypatch
    ):
        def broken(*args, **kwargs):
            raise RuntimeError("no trace")

        monkeypatch.setattr(run_mod, "trace_application", broken)
        # A seed no other test uses, so no process-wide shared state
        # for this spec exists yet.
        cfg = dataclasses.replace(benchmark_config("bt", RANKS), seed=4343)
        spec = comparison_spec(cfg, (45.0, 60.0))
        docs = [
            run(spec, keep_going=True).failure_docs() for run in (unswept, swept)
        ]
        assert docs[1] == docs[0]
        assert [d["error_message"] for d in docs[1]] == ["no trace"] * 2
        assert sweeps == []

    def test_a_failed_sweep_runs_each_cell(self, unswept, monkeypatch):
        spec = spec_for("comd")
        alone = payloads(unswept(spec))
        runs = []
        run = Engine.run

        def counted(self, app, policy, *args, **kwargs):
            runs.append(type(policy).__name__)
            return run(self, app, policy, *args, **kwargs)

        def broken(*args, **kwargs):
            raise RuntimeError("no sweep")

        monkeypatch.setattr(Engine, "run_sweep", broken)
        monkeypatch.setattr(Engine, "run", counted)
        assert payloads(swept(spec)) == alone
        assert runs.count("StaticPolicy") == 3
        assert runs.count("ConductorPolicy") == 3

    def test_points_are_dropped_when_a_cell_raises(self, monkeypatch):
        spec = spec_for("comd")
        cell = run_mod._run_scenario_cell
        left = []

        def failing(spec, cap, *args):
            left.append(len(points_left(spec)))
            if cap == 55.0:
                raise RuntimeError("cell failed")
            return cell(spec, cap, *args)

        monkeypatch.setattr(run_mod, "_run_scenario_cell", failing)
        with pytest.raises(ParallelExecutionError, match="cell failed"):
            swept(spec)
        # Every cell settles before the sweep raises: 40 W, both attempts
        # of 55 W, then 70 W, each with the points of both runtimes at
        # all three caps still in place.
        assert left == [6, 6, 6, 6]
        assert points_left(spec) == {}


# ----------------------------------------------------------------------
#: ``ConductorPolicy.oracle``'s regime: noiseless measurements,
#: reallocation at every barrier, unbounded steps.
ORACLE = {
    "exploration_iterations": 1, "realloc_period": 1, "step_w": 1e6,
    "measurement_noise": 0.0, "switch_overhead_s": 0.0,
    "realloc_overhead_s": 0.0, "seed": 0,
}


def conductor_spec(bench, caps=None, n_ranks=RANKS, config=None):
    spec = comparison_spec(benchmark_config(bench, n_ranks), caps or CAPS[bench])
    if config is None:
        return spec
    return dataclasses.replace(spec, policies=(
        PolicySpec("static"), PolicySpec("conductor", config=config),
        PolicySpec("lp"),
    ))


#: The per-task reference runtime of each Conductor-planned entry.
REFERENCES = {
    "conductor": lambda pms, cap, app, cfg, store: ScalarConductor(
        pms, cap, app, config=ConductorConfig(**cfg), frontier_store=store
    ),
    "selection-only": lambda pms, cap, app, cfg, store: ScalarSelectionOnly(
        pms, cap, app, frontier_store=store, **cfg
    ),
    "adagio": lambda pms, cap, app, cfg, store: ScalarAdagio(
        pms, app, frontier_store=store, **cfg
    ),
}


def ablation_spec(bench, caps=None, n_ranks=RANKS):
    """Selection-only and Adagio beside Static, the cells' runtimes."""
    spec = comparison_spec(benchmark_config(bench, n_ranks), caps or CAPS[bench])
    return dataclasses.replace(spec, policies=(
        PolicySpec("static"), PolicySpec("selection-only"),
        PolicySpec("adagio"),
    ))


def swept_points(spec, name="conductor"):
    """The entry's sweep over the spec's schedulable caps, each point
    beside the scalar runs at its cap: the product's ``Engine.run`` and
    the per-task reference runtime."""
    shared = run_mod._shared_for(spec)
    entry = default_registry().get(name)
    pspec = next(p for p in spec.policies if p.policy == name)
    cfg = entry.resolve_config(pspec.config)
    caps = run_mod._schedulable(shared, list(spec.caps_per_socket_w))
    job_caps = [cap * spec.n_ranks for cap in caps]
    ctx = run_mod._policy_context(spec, shared, job_caps[0], cache=None)
    outcome, extras = entry.sweep(ctx, cfg, shared.engine, job_caps)
    for c, job_cap in enumerate(job_caps):
        policy = entry.build(dataclasses.replace(ctx, job_cap_w=job_cap), cfg)
        reference = REFERENCES[name](
            shared.power_models, job_cap, shared.app_run, cfg, shared.frontiers
        )
        runs = [
            shared.engine.run(shared.app_run, p) for p in (policy, reference)
        ]
        yield outcome.result(c), extras[c], runs, policy, reference


def assert_points_are_scalar_runs(spec, name="conductor") -> list:
    points = []
    for point, extra, runs, policy, reference in swept_points(spec, name):
        for run in runs:
            assert point.records == run.records  # in order, equal floats
            assert point.makespan_s == run.makespan_s
            assert point.dvfs_switch_count == run.dvfs_switch_count
            assert point.pcontrol_overhead_s == run.pcontrol_overhead_s
        if name == "conductor":
            assert extra == {"reallocs": policy.realloc_count}
            assert policy.realloc_count == reference.realloc_count > 0
        else:
            assert extra == {} and policy.realloc_count is None
        points.append(point)
    return points


class TestConductorSweep:
    @pytest.mark.parametrize("bench", ["comd", "bt", "sp"])
    def test_points_are_the_scalar_runs(self, bench):
        assert_points_are_scalar_runs(conductor_spec(bench))

    @pytest.mark.parametrize(
        "case",
        ["oracle", "rapl-fallback", "one-rank"],
    )
    def test_cells_and_points(self, case, sweeps, unswept):
        spec = {
            "oracle": lambda: conductor_spec("comd", config=ORACLE),
            # 9 W per socket is below every cheapest hull point (about
            # 10-11 W): RAPL throttles.
            "rapl-fallback": lambda: conductor_spec("comd", (9.0, 55.0)),
            "one-rank": lambda: conductor_spec("bt", n_ranks=1),
        }[case]()
        alone = payloads(unswept(spec))
        assert sweeps == []
        assert payloads(swept(spec)) == alone
        assert sweeps == [len(spec.caps_per_socket_w)] * 2
        points = assert_points_are_scalar_runs(spec)
        if case == "rapl-fallback":
            steady = [r for r in points[0].records if r.iteration >= 3]
            assert steady and all(r.config.duty < 1.0 for r in steady)

    def test_reallocs_are_the_scalar_runs(self, unswept):
        spec = conductor_spec("sp")
        for run in (swept, unswept):
            reallocs = [
                cell.outcomes["conductor"].extra["reallocs"]
                for cell in run(spec).cells if cell.schedulable
            ]
            assert reallocs and all(n > 0 for n in reallocs)
        want = [policy.realloc_count for *_, policy, _ in swept_points(spec)]
        assert reallocs == want


class TestAblationSweep:
    """Selection-only and Adagio, Conductor configurations, sweep too."""

    @pytest.mark.parametrize("name", ["selection-only", "adagio"])
    @pytest.mark.parametrize("bench", ["comd", "bt", "sp", "lulesh"])
    def test_points_are_the_scalar_runs(self, bench, name):
        assert_points_are_scalar_runs(ablation_spec(bench), name)

    @pytest.mark.parametrize(
        "case", ["comd", "rapl-fallback", "one-rank", "lulesh"]
    )
    def test_cells_and_points(self, case, sweeps, unswept):
        spec = {
            "comd": lambda: ablation_spec("comd"),
            # 9 W per socket is below every cheapest hull point: RAPL
            # throttles selection-only (Adagio runs uncapped).
            "rapl-fallback": lambda: ablation_spec("comd", (9.0, 55.0)),
            "one-rank": lambda: ablation_spec("bt", n_ranks=1),
            "lulesh": lambda: ablation_spec("lulesh"),
        }[case]()
        alone = unswept(spec)
        assert sweeps == []
        result = swept(spec)
        assert payloads(result) == payloads(alone)
        schedulable = sum(cell.schedulable for cell in result.cells)
        assert sweeps == [schedulable] * 3  # static, selection-only, adagio
        for cell in result.cells:
            for name in ("selection-only", "adagio"):
                assert "reallocs" not in cell.outcomes[name].extra
        points = {
            name: assert_points_are_scalar_runs(spec, name)
            for name in ("selection-only", "adagio")
        }
        if case == "rapl-fallback":
            first = points["selection-only"][0]
            steady = [r for r in first.records if r.iteration >= 3]
            assert steady and all(r.config.duty < 1.0 for r in steady)
