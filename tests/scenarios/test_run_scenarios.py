"""The N-way executor: smoke over every runtime, caching, parallelism."""

import json

import pytest

import repro.exec.parallel as parallel_mod
from repro.exec.cache import SolverCache
from repro.exec.faults import FaultInjector, FaultSpec
from repro.exec.keys import canonical_json, scenario_cell_key
from repro.exec.options import execution_options
from repro.experiments.figures import benchmark_config
from repro.experiments.runner import comparison_spec
from repro.obs.metrics import Metrics, use_metrics
from repro.obs.recorder import TraceRecorder, use_recorder
from repro.scenarios.run import cell_payload, run_scenario_cell, run_scenarios
from repro.scenarios.spec import (
    SCENARIO_LAYER_VERSION,
    PolicySpec,
    ScenarioSpec,
)

ALL_FIVE = (
    PolicySpec("static"),
    PolicySpec("conductor"),
    PolicySpec("adagio"),
    PolicySpec("selection-only"),
    PolicySpec("lp"),
)


def small_spec(policies=ALL_FIVE, caps=(40.0, 60.0), **overrides) -> ScenarioSpec:
    kwargs = dict(
        benchmark="synthetic",
        caps_per_socket_w=caps,
        policies=policies,
        n_ranks=4,
        run_iterations=8,
        lp_iterations=2,
        discard_iterations=2,
        steady_window=4,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestNWaySmoke:
    def test_all_five_policies_on_synthetic(self):
        result = run_scenarios(small_spec())
        assert result.policy_names() == [
            "static", "conductor", "adagio", "selection-only", "lp",
        ]
        assert len(result.cells) == 2
        for cell in result.cells:
            assert cell.schedulable
            for name, outcome in cell.outcomes.items():
                assert outcome.time_s is not None and outcome.time_s > 0, name

    def test_outcome_metadata(self):
        cell = run_scenarios(small_spec()).cells[0]
        assert cell.outcomes["lp"].kind == "bound"
        assert cell.outcomes["static"].kind == "runtime"
        assert "reallocs" in cell.outcomes["conductor"].extra
        # The LP bound is at least as fast as every measured runtime.
        lp = cell.outcomes["lp"].time_s
        for name in ("static", "conductor", "selection-only"):
            assert lp <= cell.outcomes[name].time_s + 1e-9, name

    def test_series_and_cell_at(self):
        result = run_scenarios(small_spec())
        assert len(result.series("adagio")) == 2
        assert result.cell_at(40.0).cap_per_socket_w == 40.0
        with pytest.raises(KeyError):
            result.cell_at(99.0)

    def test_duplicate_policy_distinct_configs(self):
        spec = small_spec(policies=(
            PolicySpec("conductor", name="slow", config={"realloc_period": 8}),
            PolicySpec("conductor", name="fast", config={"realloc_period": 2}),
        ))
        cell = run_scenarios(spec).cells[0]
        assert set(cell.outcomes) == {"slow", "fast"}
        assert (
            cell.outcomes["fast"].extra["reallocs"]
            >= cell.outcomes["slow"].extra["reallocs"]
        )

    def test_include_discrete_extra(self):
        spec = small_spec(policies=(
            PolicySpec("lp", config={"include_discrete": True}),
        ))
        outcome = run_scenarios(spec).cells[0].outcomes["lp"]
        assert outcome.extra["feasible"] is True
        assert outcome.extra["discrete_s"] >= outcome.time_s - 1e-9

    def test_unschedulable_cap_marks_all_policies(self):
        spec = small_spec(benchmark="sp", caps=(10.0,), n_ranks=4)
        cell = run_scenarios(spec).cells[0]
        assert not cell.schedulable
        assert all(o.time_s is None for o in cell.outcomes.values())

    def test_unknown_policy_fails_fast(self):
        spec = small_spec(policies=(PolicySpec("magic"),))
        with pytest.raises(KeyError, match="registered"):
            run_scenarios(spec)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "policy, error, match",
        [
            (PolicySpec("magic"), KeyError, "registered"),
            (PolicySpec("lp", config={"bogus": 1}), ValueError, "unknown config keys"),
        ],
    )
    def test_bad_spec_raises_raw_before_any_cell(
        self, workers, policy, error, match
    ):
        spec = small_spec(policies=(PolicySpec("static"), policy))
        metrics = Metrics()
        with use_metrics(metrics), pytest.raises(error, match=match):
            run_scenarios(spec, workers=workers)
        assert metrics.counter("cells.computed") == 0
        assert metrics.counter("task.retry") == 0

    def test_trace_scopes_per_policy_instance(self):
        rec = TraceRecorder()
        spec = small_spec(caps=(40.0,))
        with use_recorder(rec):
            run_scenarios(spec)
        runs = {e["run"] for e in rec.snapshot()}
        for label in spec.policy_labels():
            assert f"{label} synthetic cap=40W" in runs, label


ENERGY_WAY = (
    PolicySpec("static"),
    PolicySpec("dvfs-energy"),
    PolicySpec("config-search"),
    PolicySpec("lp"),
    PolicySpec("energy-lp"),
)


class TestEnergyOutcomes:
    def test_every_outcome_carries_per_iteration_energy(self):
        result = run_scenarios(small_spec(policies=ENERGY_WAY))
        for cell in result.cells:
            for name, outcome in cell.outcomes.items():
                assert outcome.energy_j is not None, name
                assert outcome.energy_j > 0, name

    def test_payload_round_trip_preserves_energy(self):
        from repro.scenarios.run import PolicyOutcome

        cell = run_scenarios(small_spec(policies=ENERGY_WAY)).cells[0]
        for name, outcome in cell.outcomes.items():
            back = PolicyOutcome.from_payload(name, outcome.to_payload())
            assert back.energy_j == outcome.energy_j
        # Pre-energy payloads (no key) rehydrate to None, never KeyError.
        doc = cell.outcomes["lp"].to_payload()
        del doc["energy_j"]
        assert PolicyOutcome.from_payload("lp", doc).energy_j is None

    def test_energy_lp_bound_dominates_time_lp_at_every_cap(self):
        """The frontier invariant (docs/scenarios.md): the time-optimal
        capped schedule is feasible for the capped energy LP at the same
        deadline, so the energy-lp bound never uses more energy — and at
        the same (anchored) time it is Pareto-dominated by nothing."""
        result = run_scenarios(small_spec(policies=ENERGY_WAY))
        for cell in result.cells:
            lp, elp = cell.outcomes["lp"], cell.outcomes["energy-lp"]
            assert elp.energy_j <= lp.energy_j * (1 + 1e-9)
            assert elp.time_s == pytest.approx(lp.time_s)

    def test_uncapped_energy_lp_config(self):
        spec = small_spec(policies=(
            PolicySpec("energy-lp", name="capped"),
            PolicySpec("energy-lp", name="free", config={"capped": False}),
        ))
        cell = run_scenarios(spec).cells[0]
        # Uncapped: deadline anchors at the unconstrained makespan, which
        # is faster than any capped optimum, while the capped variant may
        # spend less energy only via its longer deadline.
        assert cell.outcomes["free"].time_s <= cell.outcomes["capped"].time_s
        assert cell.outcomes["free"].extra["feasible"]

    def test_unschedulable_cap_yields_no_energy(self):
        # SP declares a 40 W/socket floor; below it the cell is skipped.
        result = run_scenarios(
            small_spec(
                policies=ENERGY_WAY[:1] + ENERGY_WAY[-1:],
                caps=(10.0,),
                benchmark="sp",
            )
        )
        cell = result.cells[0]
        assert not cell.schedulable
        for outcome in cell.outcomes.values():
            assert outcome.time_s is None and outcome.energy_j is None

    def test_warm_cell_preserves_energy(self, tmp_path):
        cache = SolverCache(tmp_path)
        spec = small_spec(policies=ENERGY_WAY, caps=(40.0,))
        cold = run_scenarios(spec, cache=cache)
        warm = run_scenarios(spec, cache=cache)
        for name in spec.policy_labels():
            assert (
                warm.cells[0].outcomes[name].energy_j
                == cold.cells[0].outcomes[name].energy_j
            )

    def test_cell_energy_metric_is_deterministic(self):
        from repro.obs.metrics import Metrics, use_metrics

        spec = small_spec(policies=ENERGY_WAY[:2], caps=(40.0,))
        m = Metrics()
        with use_metrics(m):
            run_scenarios(spec)
        hist = m.to_dict(deterministic_only=True)["histograms"]["cell.energy_j"]
        assert hist["count"] == 2  # one observation per outcome
        assert all(isinstance(v, int) for v in (hist["sum"], hist["min"]))


class TestCellCaching:
    def test_warm_cell_is_byte_identical(self, tmp_path):
        cache = SolverCache(tmp_path)
        spec = small_spec()
        cold = run_scenarios(spec, cache=cache)
        warm = run_scenarios(spec, cache=cache)
        for a, b in zip(cold.cells, warm.cells):
            assert a.schedulable == b.schedulable
            for name in spec.policy_labels():
                assert a.outcomes[name].time_s == b.outcomes[name].time_s
                assert a.outcomes[name].extra == b.outcomes[name].extra

    def test_computed_and_cached_cells_carry_plain_floats(self, tmp_path):
        # Conductor's comd times come out of the engine as NumPy scalars;
        # a cell read back from the cache holds plain floats, and so must
        # the cell that was computed.
        cache = SolverCache(tmp_path)
        spec = comparison_spec(benchmark_config("comd", 4), (40.0, 60.0))
        cold = run_scenarios(spec, cache=cache)
        warm = run_scenarios(spec, cache=cache)
        assert cache.hits == 2
        for result in (cold, warm):
            for cell in result.cells:
                for outcome in cell.outcomes.values():
                    assert type(outcome.time_s) is float, outcome
                    assert type(outcome.energy_j) is float, outcome

    def test_sweep_and_single_cap_share_cells(self, tmp_path):
        cache = SolverCache(tmp_path)
        spec = small_spec(caps=(40.0, 60.0))
        run_scenarios(spec, cache=cache)
        hits_before = cache.hits
        single = ScenarioSpec.from_doc(
            {**spec.to_doc(), "caps_per_socket_w": [60.0]}
        )
        run_scenario_cell(single, 60.0, cache=cache)
        assert cache.hits > hits_before  # warm despite the different grid

    def test_different_policy_lists_do_not_collide(self, tmp_path):
        cache = SolverCache(tmp_path)
        three = small_spec(policies=ALL_FIVE[:3], caps=(40.0,))
        five = small_spec(policies=ALL_FIVE, caps=(40.0,))
        run_scenarios(three, cache=cache)
        cell = run_scenario_cell(five, 40.0, cache=cache)
        assert set(cell.outcomes) == set(five.policy_labels())

    def test_stale_payload_recomputed_not_mismapped(self, tmp_path):
        cache = SolverCache(tmp_path)
        spec = small_spec(caps=(40.0,))
        key = scenario_cell_key(
            spec.cell_hash(), 40.0, SCENARIO_LAYER_VERSION
        )
        # A pre-scenario-layer payload under the very same key (e.g. a
        # version rollback) must miss, not be mis-mapped into outcomes.
        cache.put(key, {"static_s": 1.0, "conductor_s": 2.0, "lp_s": 0.5})
        cell = run_scenario_cell(spec, 40.0, cache=cache)
        assert set(cell.outcomes) == set(spec.policy_labels())
        assert cell.outcomes["static"].time_s not in (1.0, 2.0, 0.5)

    def test_layer_version_namespaces_keys(self):
        a = scenario_cell_key("abc", 40.0, 1)
        b = scenario_cell_key("abc", 40.0, 2)
        assert a != b


class TestWithinRunDedup:
    def test_duplicate_caps_compute_once_and_fan_out(self):
        from repro.obs.metrics import Metrics, use_metrics

        spec = small_spec(
            policies=ALL_FIVE[:2], caps=(40.0, 60.0, 40.0, 40.0)
        )
        metrics = Metrics()
        with use_metrics(metrics):
            result = run_scenarios(spec)
        assert metrics.counter("cells.deduped") == 2
        # Deterministic: it lands in the manifest-safe view too.
        det = metrics.to_dict(deterministic_only=True)
        assert det["counters"]["cells.deduped"] == 2
        # The result still fans out to every grid occurrence...
        assert [c.cap_per_socket_w for c in result.cells] == [
            40.0, 60.0, 40.0, 40.0,
        ]
        # ...and the duplicates are the *same* computed cell.
        assert result.cells[0] is result.cells[2] is result.cells[3]

    def test_dedup_matches_a_unique_grid(self):
        spec_dup = small_spec(policies=ALL_FIVE[:2], caps=(40.0, 60.0, 40.0))
        spec_uniq = small_spec(policies=ALL_FIVE[:2], caps=(40.0, 60.0))
        dup = run_scenarios(spec_dup)
        uniq = run_scenarios(spec_uniq)
        for cap in (40.0, 60.0):
            a, b = dup.cell_at(cap), uniq.cell_at(cap)
            for name in spec_uniq.policy_labels():
                assert a.outcomes[name].time_s == b.outcomes[name].time_s

    def test_progress_still_reaches_the_full_total(self):
        from repro.obs.progress import ProgressReporter

        spec = small_spec(policies=ALL_FIVE[:2], caps=(40.0, 60.0, 40.0))
        progress = ProgressReporter(total=len(spec.caps_per_socket_w))
        run_scenarios(spec, progress=progress)
        assert progress.done == 3 and progress.failed == 0


class TestParallel:
    def test_parallel_matches_serial_exactly(self, tmp_path):
        spec = small_spec(caps=(35.0, 45.0, 55.0))
        serial = run_scenarios(spec, workers=1)
        parallel = run_scenarios(spec, workers=2)
        for a, b in zip(serial.cells, parallel.cells):
            assert a.cap_per_socket_w == b.cap_per_socket_w
            for name in spec.policy_labels():
                assert a.outcomes[name].time_s == b.outcomes[name].time_s
                assert a.outcomes[name].extra == b.outcomes[name].extra

    def test_parallel_with_cache(self, tmp_path):
        cache = SolverCache(tmp_path)
        spec = small_spec(caps=(35.0, 45.0))
        cold = run_scenarios(spec, workers=2, cache=cache)
        warm = run_scenarios(spec, workers=1, cache=cache)
        for a, b in zip(cold.cells, warm.cells):
            for name in spec.policy_labels():
                assert a.outcomes[name].time_s == b.outcomes[name].time_s


class _BlindCache(SolverCache):
    """A cache that reports every entry absent to the sweep's sizing, so
    every cell goes to the pool, whose workers still read the entries."""

    def __contains__(self, key: str) -> bool:
        return False


def _refuse_pools(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", refuse)


def _payloads(spec, result) -> list[str]:
    return [canonical_json(cell_payload(spec, c)) for c in result.cells]


def _journal_rows(path) -> list[dict]:
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    for row in rows:
        row.pop("wall_s")  # the one wall-clock diagnostic in a row
    return rows


class TestPoolSizing:
    """The pool is sized by the cells that need computing."""

    SPEC = small_spec(policies=(PolicySpec("static"), PolicySpec("lp")),
                      caps=(35.0, 45.0, 55.0))

    def _cold(self, root, **kwargs):
        metrics = Metrics()
        with use_metrics(metrics):
            result = run_scenarios(
                self.SPEC, workers=2, cache=SolverCache(root), **kwargs
            )
        assert metrics.counter("pool.started") == 1
        return result

    def test_warm_sweep_settles_in_process(self, tmp_path, monkeypatch):
        cold = self._cold(tmp_path)
        _refuse_pools(monkeypatch)
        metrics = Metrics()
        with use_metrics(metrics):
            warm = run_scenarios(self.SPEC, workers=2, cache=SolverCache(tmp_path))
        assert _payloads(self.SPEC, warm) == _payloads(self.SPEC, cold)
        assert metrics.counter("cells.cached") == 3
        assert metrics.counter("cells.computed") == 0

    def test_warm_metrics_and_journal_match_the_pool(self, tmp_path,
                                                     monkeypatch):
        root = tmp_path / "cache"
        self._cold(root)
        pooled, inline = Metrics(), Metrics()
        with use_metrics(pooled):
            run_scenarios(self.SPEC, workers=2, cache=_BlindCache(root),
                          journal=tmp_path / "pooled.jsonl")
        assert pooled.counter("pool.started") == 1
        _refuse_pools(monkeypatch)
        with use_metrics(inline):
            run_scenarios(self.SPEC, workers=2, cache=SolverCache(root),
                          journal=tmp_path / "inline.jsonl")
        assert inline.to_dict(deterministic_only=True) == pooled.to_dict(
            deterministic_only=True
        )
        assert _journal_rows(tmp_path / "inline.jsonl") == _journal_rows(
            tmp_path / "pooled.jsonl"
        )

    def test_one_miss_keeps_the_pool_deadline(self, tmp_path):
        # A lone miss among cached cells still runs in a worker, where
        # --task-timeout applies: the delayed cell times out.
        self._cold(tmp_path)
        wider = small_spec(policies=self.SPEC.policies,
                           caps=(35.0, 45.0, 55.0, 65.0))
        hang = FaultInjector(FaultSpec(mode="delay", match="cap=65",
                                       delay_s=3.0))
        metrics = Metrics()
        with execution_options(task_timeout_s=0.5, task_retries=0):
            with use_metrics(metrics):
                result = run_scenarios(wider, workers=2,
                                       cache=SolverCache(tmp_path),
                                       faults=hang, keep_going=True)
        assert metrics.counter("pool.started") == 1
        assert metrics.counter("cells.cached") == 3
        failure = result.cells[-1].failure
        assert failure is not None and failure.error_type == "TimeoutError"

    def test_the_pool_is_sized_by_the_misses(self, tmp_path, monkeypatch):
        self._cold(tmp_path)
        wider = small_spec(policies=self.SPEC.policies,
                           caps=(35.0, 45.0, 55.0, 65.0, 75.0))
        want = run_scenarios(small_spec(policies=self.SPEC.policies,
                                        caps=(65.0, 75.0)))
        widths = []
        pool = parallel_mod.ProcessPoolExecutor

        def sized(max_workers):
            widths.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", sized)
        metrics = Metrics()
        with use_metrics(metrics):
            got = run_scenarios(wider, workers=4, cache=SolverCache(tmp_path))
        assert widths == [2]
        assert metrics.counter("cells.cached") == 3
        assert metrics.counter("cells.computed") == 2
        assert _payloads(wider, got)[3:] == _payloads(wider, want)

    def test_damaged_entries_are_recomputed(self, tmp_path, monkeypatch):
        # Every entry is torn after its cell, so all three are present
        # (no pool) and none can be read (all recomputed).
        tear = FaultInjector(FaultSpec(mode="corrupt", rate=1.0))
        cold = self._cold(tmp_path, faults=tear)
        _refuse_pools(monkeypatch)
        metrics = Metrics()
        with use_metrics(metrics):
            warm = run_scenarios(self.SPEC, workers=2, cache=SolverCache(tmp_path))
        assert metrics.counter("cells.computed") == 3
        assert _payloads(self.SPEC, warm) == _payloads(self.SPEC, cold)
