"""SolverCache: key stability, exact round trips, versioned invalidation."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core.fixed_order_lp import solve_fixed_order_lp
from repro.core.serialize import schedule_to_dict
from repro.core.sweep import ParametricCapSolver
from repro.core.energy_lp import solve_energy_lp
from repro.exec.cache import (
    CACHE_SCHEMA_VERSION,
    SolverCache,
    cached_solve_energy_lp,
    solution_from_dict,
    solution_to_dict,
)
from repro.exec.keys import (
    canonical_json,
    fixed_order_lp_key,
    machine_fingerprint,
    solver_key,
    trace_fingerprint,
)
from repro.experiments.runner import make_power_models
from repro.simulator import trace_application
from repro.workloads import WorkloadSpec, make_comd, two_rank_exchange

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _small_trace(phases: int = 1, cpu_seconds: float = 0.6):
    app = two_rank_exchange(phases=phases, cpu_seconds=cpu_seconds)
    pm = make_power_models(2, efficiency_seed=7, sigma=0.02)
    return trace_application(app, pm)


@pytest.fixture(scope="module")
def trace():
    return _small_trace()


# ----------------------------------------------------------------------
# Key stability
# ----------------------------------------------------------------------
class TestKeys:
    def test_canonical_json_is_sorted_and_compact(self):
        doc = {"b": 1, "a": [1.5, {"z": None, "y": True}]}
        assert canonical_json(doc) == '{"a":[1.5,{"y":true,"z":null}],"b":1}'

    def test_solver_key_deterministic_within_process(self, trace):
        k1 = solver_key(trace, 50.0)
        k2 = solver_key(_small_trace(), 50.0)
        assert k1 == k2
        assert len(k1) == 64

    def test_solver_key_changes_with_each_input(self, trace):
        base = solver_key(trace, 50.0)
        assert solver_key(trace, 60.0) != base
        assert solver_key(trace, 50.0, formulation="flow_ilp") != base
        assert solver_key(trace, 50.0, params={"discrete": True}) != base
        assert solver_key(_small_trace(cpu_seconds=0.7), 50.0) != base

    def test_machine_fingerprint_sees_efficiency(self):
        pm_a = make_power_models(2, efficiency_seed=7, sigma=0.02)
        pm_b = make_power_models(2, efficiency_seed=8, sigma=0.02)
        assert machine_fingerprint(pm_a) == machine_fingerprint(pm_a)
        assert machine_fingerprint(pm_a) != machine_fingerprint(pm_b)

    def test_fixed_order_lp_key_is_pinned(self):
        """Digests pinned from the keys caches were filled under: a
        fixed-order entry written before must still hit."""
        app = make_comd(WorkloadSpec(n_ranks=4, iterations=2, seed=2015))
        trace = trace_application(app, make_power_models(4, 11))
        keys = [
            fixed_order_lp_key(trace, 200.0),
            fixed_order_lp_key(trace, 200.0, power_tiebreak=0.0, time_limit_s=30.0),
        ]
        assert keys == [
            "02329635850a6c47ea801613dee89a3c136960c01d485af4cb6035517731bc07",
            "55062dbddab4a9f3cf70674bf8af142c28f757de9815ec3cc6cf3c2da83d6aa2",
        ]

    def test_solved_schedule_document_is_pinned(self, trace):
        """Digest of a solved schedule's document, pinned from the layout
        caches and journals were written under: a legacy operating point
        serializes as freq/threads/duty and nothing more."""
        doc = json.dumps(
            schedule_to_dict(solve_fixed_order_lp(trace, 50.0).schedule),
            sort_keys=True,
        )
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "3ab49f629e23e2d224390eb1fcecedbf1f78efc84bedfb574a502d09863a301d"
        )

    def test_key_stable_across_processes(self, trace):
        """The same model hashes identically in a fresh interpreter with a
        different PYTHONHASHSEED — keys never depend on hash ordering."""
        script = textwrap.dedent(
            """
            from repro.exec.keys import solver_key, trace_fingerprint
            from repro.experiments.runner import make_power_models
            from repro.simulator import trace_application
            from repro.workloads import two_rank_exchange

            app = two_rank_exchange(phases=1, cpu_seconds=0.6)
            pm = make_power_models(2, efficiency_seed=7, sigma=0.02)
            trace = trace_application(app, pm)
            print(trace_fingerprint(trace))
            print(solver_key(trace, 50.0))
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "12345"
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        child_fp, child_key = out.stdout.split()
        assert child_fp == trace_fingerprint(trace)
        assert child_key == solver_key(trace, 50.0)


# ----------------------------------------------------------------------
# The store itself
# ----------------------------------------------------------------------
class TestSolverCache:
    def test_get_miss_then_put_then_hit(self, tmp_path):
        cache = SolverCache(tmp_path)
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, {"answer": 42})
        assert cache.get("ab" * 32) == {"answer": 42}
        assert cache.stats() == {
            "hits": 1, "misses": 1, "stores": 1, "hit_rate": 0.5,
        }
        assert len(cache) == 1

    def test_hit_rate_is_none_before_any_lookup(self, tmp_path):
        cache = SolverCache(tmp_path)
        assert cache.hit_rate is None
        assert cache.stats()["hit_rate"] is None
        cache.get("cd" * 32)
        assert cache.hit_rate == 0.0

    def test_entries_carry_provenance(self, tmp_path):
        from repro.core.model import MODEL_LAYER_VERSION

        cache = SolverCache(tmp_path)
        key = "ab" * 32
        cache.put(key, {"answer": 42})
        doc = json.loads(cache._path(key).read_text())
        prov = doc["provenance"]
        assert prov["model_layer_version"] == MODEL_LAYER_VERSION
        assert len(prov["config_hash"]) == 64
        # Readers key on schema+key only: provenance never affects hits.
        assert cache.get(key) == {"answer": 42}

    def test_cache_traffic_reaches_the_audit_ledger(self, tmp_path):
        # One count per lookup, in metrics; the audit table reads it there.
        from repro.obs.audit import SolveAudit
        from repro.obs.metrics import Metrics, use_metrics

        cache = SolverCache(tmp_path)
        metrics = Metrics()
        with use_metrics(metrics):
            cache.get("ab" * 32)
            cache.put("ab" * 32, {"v": 1})
            cache.get("ab" * 32)
        assert (metrics.counter("cache.hit"), metrics.counter("cache.miss")) == (
            1, 1,
        )
        assert "cache: 1 hit(s), 1 miss(es)" in SolveAudit().table(
            metrics.counters
        )

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = SolverCache(tmp_path)
        key = "cd" * 32
        cache.put(key, {"v": 1})
        path = cache._path(key)
        path.write_text("{not json")
        assert cache.get(key) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = SolverCache(tmp_path)
        key = "ef" * 32
        cache.put(key, {"v": 1})
        path = cache._path(key)
        doc = json.loads(path.read_text())
        doc["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(doc))
        assert cache.get(key) is None

    def test_wrong_key_in_file_is_a_miss(self, tmp_path):
        """A file whose recorded key disagrees with its address is ignored."""
        cache = SolverCache(tmp_path)
        key_a, key_b = "aa" * 32, "bb" * 32
        cache.put(key_a, {"v": 1})
        path_b = cache._path(key_b)
        path_b.parent.mkdir(parents=True, exist_ok=True)
        path_b.write_text(cache._path(key_a).read_text())
        assert cache.get(key_b) is None

    def test_no_tmp_files_left_behind(self, tmp_path):
        cache = SolverCache(tmp_path)
        for i in range(5):
            cache.put(f"{i:02x}" * 32, {"i": i})
        assert not list(tmp_path.rglob("*.tmp"))

    def test_stale_tmp_swept_on_construction(self, tmp_path):
        """A worker killed mid-put leaks a temp file; construction reaps it."""
        cache = SolverCache(tmp_path)
        cache.put("ab" * 32, {"v": 1})
        orphan = cache._path("ab" * 32).parent / "orphanXYZ.tmp"
        orphan.write_text("{half a wri")
        old = os.stat(orphan).st_mtime - 7200
        os.utime(orphan, (old, old))
        fresh = SolverCache(tmp_path)
        assert fresh.tmp_swept == 1
        assert not orphan.exists()
        assert fresh.get("ab" * 32) == {"v": 1}  # real entries untouched

    def test_live_tmp_survives_sweep(self, tmp_path):
        """A recent temp file may belong to a live writer: never reaped."""
        cache = SolverCache(tmp_path)
        cache.put("cd" * 32, {"v": 1})
        live = cache._path("cd" * 32).parent / "liveXYZ.tmp"
        live.write_text("{half a wri")
        fresh = SolverCache(tmp_path)
        assert fresh.tmp_swept == 0
        assert live.exists()


# ----------------------------------------------------------------------
# Solver memoization round trips
# ----------------------------------------------------------------------
class TestCachedSolve:
    """``ParametricCapSolver.solve(cache=...)``, the one cached path of
    the fixed-order LP."""

    def test_hit_is_bit_identical(self, tmp_path, trace):
        cache = SolverCache(tmp_path)
        cold = ParametricCapSolver(trace).solve(50.0, cache=cache)
        warm = ParametricCapSolver(trace).solve(50.0, cache=cache)
        assert cache.hits == 1 and cache.stores == 1
        assert warm.solution.status == cold.solution.status
        assert warm.solution.objective == cold.solution.objective
        assert np.array_equal(warm.solution.x, cold.solution.x)
        assert schedule_to_dict(warm.schedule) == schedule_to_dict(cold.schedule)

    def test_hit_matches_uncached_solve(self, tmp_path, trace):
        cache = SolverCache(tmp_path)
        ParametricCapSolver(trace).solve(50.0, cache=cache)
        solver = ParametricCapSolver(trace)
        warm = solver.solve(50.0, cache=cache)
        assert solver.n_solves == 0
        fresh = solve_fixed_order_lp(trace, 50.0)
        assert warm.solution.objective == fresh.solution.objective
        assert np.array_equal(warm.solution.x, fresh.solution.x)

    def test_infeasible_result_is_cached(self, tmp_path, trace):
        cache = SolverCache(tmp_path)
        cold = ParametricCapSolver(trace).solve(1.0, cache=cache)
        solver = ParametricCapSolver(trace)
        warm = solver.solve(1.0, cache=cache)
        assert not cold.feasible
        assert not warm.feasible
        assert warm.schedule is None
        assert cache.hits == 1
        assert solver.n_solves == 0

    def test_none_cache_is_a_pass_through(self, trace):
        result = ParametricCapSolver(trace).solve(50.0, cache=None)
        fresh = solve_fixed_order_lp(trace, 50.0)
        assert result.solution.objective == fresh.solution.objective
        assert np.array_equal(result.solution.x, fresh.solution.x)

    def test_different_params_do_not_collide(self, tmp_path, trace):
        cache = SolverCache(tmp_path)
        tied = ParametricCapSolver(trace)
        untied = ParametricCapSolver(trace, power_tiebreak=0.0)
        first = tied.solve(50.0, cache=cache)
        limited = tied.solve(50.0, cache=cache, time_limit_s=60.0)
        other = untied.solve(50.0, cache=cache)
        assert cache.hits == 0 and cache.stores == 3
        assert limited.makespan_s == first.makespan_s
        assert other.makespan_s == pytest.approx(first.makespan_s, rel=1e-6)


class TestCachedEnergySolve:
    def test_hit_is_bit_identical(self, tmp_path, trace):
        cache = SolverCache(tmp_path)
        cold = cached_solve_energy_lp(trace, slowdown=0.1, cache=cache)
        warm = cached_solve_energy_lp(trace, slowdown=0.1, cache=cache)
        assert cache.hits == 1 and cache.stores == 1
        assert warm.energy_j == cold.energy_j
        assert warm.time_budget_s == cold.time_budget_s
        assert np.array_equal(warm.solution.x, cold.solution.x)
        assert schedule_to_dict(warm.schedule) == schedule_to_dict(cold.schedule)

    def test_hit_matches_uncached_solve(self, tmp_path, trace):
        cache = SolverCache(tmp_path)
        cached_solve_energy_lp(trace, cache=cache)
        warm = cached_solve_energy_lp(trace, cache=cache)
        fresh = solve_energy_lp(trace)
        assert warm.energy_j == fresh.energy_j
        assert np.array_equal(warm.solution.x, fresh.solution.x)

    def test_cap_and_deadline_shape_the_key(self, tmp_path, trace):
        cache = SolverCache(tmp_path)
        plain = cached_solve_energy_lp(trace, cache=cache)
        roomy = cached_solve_energy_lp(trace, cache=cache, cap_w=1e6)
        late = cached_solve_energy_lp(
            trace, cache=cache, cap_w=1e6,
            deadline_s=plain.time_budget_s * 2,
        )
        assert cache.hits == 0 and cache.stores == 3
        assert late.energy_j <= roomy.energy_j + 1e-9

    def test_infeasible_capped_result_is_cached(self, tmp_path, trace):
        cache = SolverCache(tmp_path)
        cold = cached_solve_energy_lp(trace, cache=cache, cap_w=1.0)
        warm = cached_solve_energy_lp(trace, cache=cache, cap_w=1.0)
        assert not cold.feasible and not warm.feasible
        assert warm.schedule is None and warm.energy_j is None
        assert cache.hits == 1

    def test_none_cache_is_a_pass_through(self, trace):
        result = cached_solve_energy_lp(trace, cache=None)
        fresh = solve_energy_lp(trace)
        assert result.energy_j == fresh.energy_j


def test_solution_dict_round_trip(trace):
    solution = solve_fixed_order_lp(trace, 50.0).solution
    back = solution_from_dict(json.loads(json.dumps(solution_to_dict(solution))))
    assert back.status == solution.status
    assert back.objective == solution.objective
    assert np.array_equal(back.x, solution.x)
    assert back.message == solution.message
