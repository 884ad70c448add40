"""Resilient sweeps: keep-going gaps, journaled resume, fault injection."""

from __future__ import annotations

import pytest

from repro.exec.checkpoint import SweepJournal
from repro.exec.faults import FaultInjector, FaultSpec
from repro.exec.options import execution_options
from repro.exec.parallel import ParallelExecutionError
from repro.obs.metrics import Metrics, use_metrics
from repro.obs.progress import ProgressReporter
from repro.obs.recorder import TraceRecorder, use_recorder
from repro.scenarios import run as run_mod
from repro.scenarios.run import run_scenarios
from repro.scenarios.spec import PolicySpec, ScenarioSpec

CAPS = (40.0, 50.0, 60.0)


def small_spec(caps=CAPS) -> ScenarioSpec:
    return ScenarioSpec(
        benchmark="synthetic",
        caps_per_socket_w=caps,
        policies=(PolicySpec("static"), PolicySpec("lp")),
        n_ranks=4,
        run_iterations=8,
        lp_iterations=2,
        discard_iterations=2,
        steady_window=4,
    )


def mid_cap_fault() -> FaultInjector:
    """Deterministically fails exactly the cap=50 cell, every attempt."""
    return FaultInjector(FaultSpec(mode="raise", rate=1.0, match="cap=50"))


def times(result) -> list[tuple]:
    return [
        tuple(cell.outcomes[n].time_s for n in result.policy_names())
        for cell in result.cells
    ]


class TestKeepGoing:
    def test_sweep_completes_around_failed_cell(self):
        result = run_scenarios(small_spec(), keep_going=True, faults=mid_cap_fault())
        assert [c.failed for c in result.cells] == [False, True, False]
        gap = result.cells[1]
        assert gap.failure.error_type == "InjectedFault"
        assert all(o.time_s is None for o in gap.outcomes.values())
        assert all(
            o.time_s is not None
            for c in (result.cells[0], result.cells[2])
            for o in c.outcomes.values()
        )

    def test_failure_docs_are_deterministic(self):
        docs = run_scenarios(
            small_spec(), keep_going=True, faults=mid_cap_fault()
        ).failure_docs()
        again = run_scenarios(
            small_spec(), keep_going=True, faults=mid_cap_fault()
        ).failure_docs()
        assert docs == again
        (doc,) = docs
        assert doc["cap_per_socket_w"] == 50.0
        assert doc["error_type"] == "InjectedFault"
        assert set(doc) == {
            "cap_per_socket_w", "error_type", "error_message", "attempts",
        }

    def test_without_keep_going_a_failure_aborts(self):
        with pytest.raises(ParallelExecutionError, match="cap=50"):
            run_scenarios(small_spec(), faults=mid_cap_fault())

    def test_failure_emits_trace_event(self):
        rec = TraceRecorder()
        with use_recorder(rec):
            run_scenarios(small_spec(), keep_going=True, faults=mid_cap_fault())
        failures = [d for d in rec.snapshot() if d["kind"] == "cell_failure"]
        assert len(failures) == 1
        assert failures[0]["args"]["cap_per_socket_w"] == 50.0

    def test_parallel_matches_serial(self):
        serial = run_scenarios(
            small_spec(), keep_going=True, faults=mid_cap_fault()
        )
        parallel = run_scenarios(
            small_spec(), workers=2, keep_going=True, faults=mid_cap_fault()
        )
        assert times(parallel) == times(serial)
        assert parallel.failure_docs() == serial.failure_docs()


@pytest.fixture
def cell_fails_at_50(monkeypatch):
    """Every attempt of the cap=50 cell raises, with no fault injector
    attached (pool workers fork with the patch in place)."""
    cell = run_mod._run_scenario_cell

    def failing(spec, cap, *args):
        if cap == 50.0:
            raise ValueError("no cell at 50 W")
        return cell(spec, cap, *args)

    monkeypatch.setattr(run_mod, "_run_scenario_cell", failing)


class TestOneFailureContract:
    """A failing cell fails one way, whatever the width and the flags."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("progress", [False, True])
    def test_same_error_at_every_width(self, cell_fails_at_50, workers, progress):
        reporter = ProgressReporter(total=len(CAPS)) if progress else None
        with execution_options(task_backoff_s=0.0), pytest.raises(
            ParallelExecutionError
        ) as info:
            run_scenarios(small_spec(), workers=workers, progress=reporter)
        assert str(info.value) == (
            "cell cap=50 ValueError on all 2 attempt(s): no cell at 50 W"
        )
        assert isinstance(info.value.__cause__, ValueError)
        if reporter is not None:
            assert reporter.done == len(CAPS)  # every cell settled

    def test_serial_sweep_without_retries_tries_once(self, cell_fails_at_50):
        with execution_options(task_retries=0), pytest.raises(
            ParallelExecutionError, match="on all 1 attempt"
        ):
            run_scenarios(small_spec())

    def test_failed_cell_is_counted_without_keep_going(self, cell_fails_at_50):
        metrics = Metrics()
        with execution_options(task_backoff_s=0.0), use_metrics(metrics):
            with pytest.raises(ParallelExecutionError):
                run_scenarios(small_spec())
        assert metrics.counter("cell.failed") == 1
        assert metrics.counter("cells.computed") == 2  # 40 and 60 still ran


class TestJournalResume:
    def test_journal_records_every_settled_cell(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        run_scenarios(
            small_spec(), keep_going=True, journal=journal,
            faults=mid_cap_fault(),
        )
        statuses = sorted(r["status"] for r in journal.load().values())
        assert statuses == ["failed", "ok", "ok"]

    def test_resume_retries_failures_and_matches_clean_run(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        run_scenarios(
            small_spec(), keep_going=True, journal=journal,
            faults=mid_cap_fault(),
        )
        metrics = Metrics()
        with use_metrics(metrics):
            resumed = run_scenarios(small_spec(), keep_going=True, journal=journal)
        assert metrics.counter("journal.resumed") == 2  # the two ok cells
        assert not resumed.failed_cells()  # the failed cell was retried
        clean = run_scenarios(small_spec())
        assert times(resumed) == times(clean)

    def test_interrupted_journal_resumes_prefix(self, tmp_path):
        path = tmp_path / "j.jsonl"
        run_scenarios(small_spec(), journal=path)
        # Keep only the first journaled cell, as if the process died there.
        first_line = path.read_text().splitlines()[0]
        path.write_text(first_line + "\n")
        metrics = Metrics()
        with use_metrics(metrics):
            resumed = run_scenarios(small_spec(), journal=str(path))
        assert metrics.counter("journal.resumed") == 1
        assert times(resumed) == times(run_scenarios(small_spec()))

    def test_foreign_journal_records_are_recomputed(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        run_scenarios(small_spec(), journal=journal)
        other = small_spec(caps=(40.0, 45.0))  # different grid, different keys
        metrics = Metrics()
        with use_metrics(metrics):
            result = run_scenarios(other, journal=journal)
        assert metrics.counter("journal.resumed") == 1  # only cap=40 is shared
        assert len(result.cells) == 2
        assert not result.failed_cells()

    def test_journal_accepts_plain_path(self, tmp_path):
        path = tmp_path / "nested" / "j.jsonl"
        run_scenarios(small_spec(caps=(40.0, 60.0)), journal=path)
        assert len(SweepJournal(path)) == 2


class TestVectorizedGoldenResume:
    def test_journaled_resume_of_vectorized_sweep_matches_clean_scalar_run(
        self, tmp_path, monkeypatch
    ):
        """Golden: interrupt a (vectorized-default) sweep after its first
        journaled cell, resume it, and compare against a clean run with
        every engine replay forced down the scalar reference oracle.  The
        vectorized fast paths must not be observable in the results, even
        across a checkpoint/resume boundary."""
        from repro.simulator.engine import Engine
        from tests.simulator.oracles import run_scalar

        path = tmp_path / "j.jsonl"
        run_scenarios(small_spec(), journal=path)
        # Keep only the first journaled cell, as if the process died there.
        first_line = path.read_text().splitlines()[0]
        path.write_text(first_line + "\n")
        resumed = run_scenarios(small_spec(), journal=path)

        def no_sweep(self, app, policy, plan):
            raise RuntimeError("sweeps are off for the scalar golden")

        # A failed sweep leaves every cell to run its own engine, and each
        # such run goes through the oracle, with per-task configure calls.
        monkeypatch.setattr(Engine, "run_sweep", no_sweep)
        monkeypatch.setattr(Engine, "run", run_scalar)
        scalar = run_scenarios(small_spec())
        assert times(resumed) == times(scalar)
        assert not resumed.failed_cells()
