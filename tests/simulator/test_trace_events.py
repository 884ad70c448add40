"""Engine trace-event emission and simulator metrics counters."""

from __future__ import annotations

from repro.obs.metrics import Metrics, use_metrics
from repro.obs.recorder import TraceRecorder, use_recorder
from repro.simulator import Application, ComputeOp, Engine

from ..conftest import make_p2p_app


class FixedPolicy:
    def __init__(self, config=None):
        from repro.machine import Configuration

        self.config = config or Configuration(2.6, 8)

    def configure(self, ref, kernel, iteration, current):
        return self.config

    def on_pcontrol(self, iteration, records):
        return 0.0

    def switch_cost_s(self):
        return 0.0


class TestEventEmission:
    def test_every_task_record_has_a_task_event(self, kernel, two_rank_models):
        app = make_p2p_app(kernel, iterations=2)
        rec = TraceRecorder()
        with use_recorder(rec):
            res = Engine(two_rank_models).run(app, FixedPolicy())
        tasks = [d for d in rec.snapshot() if d["kind"] == "task"]
        assert len(tasks) == len(res.records)
        sample = tasks[0]
        assert sample["args"]["freq_ghz"] == 2.6
        assert sample["args"]["power_w"] > 0.0

    def test_collectives_emit_one_span_per_rank(self, kernel, two_rank_models):
        app = make_p2p_app(kernel, iterations=1)
        rec = TraceRecorder()
        with use_recorder(rec):
            Engine(two_rank_models).run(app, FixedPolicy())
        names = [d["name"] for d in rec.snapshot() if d["kind"] == "collective"]
        # One allreduce and one pcontrol barrier, each spanning both ranks.
        assert names.count("allreduce") == 2
        assert names.count("pcontrol") == 2

    def test_mpi_waits_emitted_only_when_blocked(self, kernel, two_rank_models):
        app = make_p2p_app(kernel, iterations=1)
        rec = TraceRecorder()
        with use_recorder(rec):
            Engine(two_rank_models).run(app, FixedPolicy())
        for doc in rec.snapshot():
            if doc["kind"] == "mpi_wait":
                assert doc["dur_s"] > 0.0
                assert doc["name"] in ("recv", "wait")

    def test_untraced_run_is_identical(self, kernel, two_rank_models):
        app = make_p2p_app(kernel, iterations=1)
        engine = Engine(two_rank_models)
        bare = engine.run(app, FixedPolicy())
        with use_recorder(TraceRecorder()):
            traced = engine.run(app, FixedPolicy())
        assert traced.makespan_s == bare.makespan_s
        assert traced.records == bare.records


class TestSimulatorCounters:
    def test_run_bumps_sim_counters(self, kernel, two_rank_models):
        app = make_p2p_app(kernel, iterations=2)
        metrics = Metrics()
        with use_metrics(metrics):
            res = Engine(two_rank_models).run(app, FixedPolicy())
        assert metrics.counter("sim.tasks") == len(res.records)
        assert metrics.counter("sim.collectives") == res.collective_count
        assert metrics.counter("sim.mpi_waits") > 0

    def test_compute_only_app_counts_zero_waits(self, kernel, two_rank_models):
        app = Application(
            "t", [[ComputeOp(kernel)], [ComputeOp(kernel)]]
        )
        metrics = Metrics()
        with use_metrics(metrics):
            Engine(two_rank_models).run(app, FixedPolicy())
        assert metrics.counter("sim.tasks") == 2
        assert metrics.counter("sim.mpi_waits") == 0
        assert metrics.counter("sim.collectives") == 0
