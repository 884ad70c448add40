"""Tests for standalone Adagio (uncapped energy-saving runtime)."""

import pytest

from repro.machine import sample_socket_efficiencies, SocketPowerModel
from repro.runtime import AdagioPolicy
from repro.simulator import Engine, MaxPerformancePolicy
from repro.workloads import imbalanced_collective_app

from .apps import kernel_app


@pytest.fixture
def models():
    eff = sample_socket_efficiencies(4, seed=9)
    return [SocketPowerModel(efficiency=float(e)) for e in eff]


@pytest.fixture
def app():
    return imbalanced_collective_app(n_ranks=4, iterations=10, spread=1.5)


class TestAdagioPolicy:
    def test_validation(self, models, app):
        with pytest.raises(ValueError):
            AdagioPolicy(models, app, safety=1.5)

    def test_saves_energy_with_negligible_slowdown(self, models, app):
        """The related-work premise: non-critical ranks slow into slack,
        cutting energy while the (critical-path) makespan barely moves."""
        engine = Engine(models)
        base = engine.run(app, MaxPerformancePolicy())
        adagio = engine.run(app, AdagioPolicy(models, app))
        assert adagio.total_energy_j() < base.total_energy_j() * 0.99
        assert adagio.makespan_s <= base.makespan_s * 1.02

    def test_critical_rank_stays_fast(self, models, app):
        """The heaviest rank (zero slack) keeps near-fastest configs."""
        engine = Engine(models)
        res = engine.run(app, AdagioPolicy(models, app))
        import numpy as np

        busy = np.zeros(4)
        for r in res.records:
            busy[r.ref.rank] += r.duration_s
        heavy = int(np.argmax(busy))
        late = [
            r for r in res.records
            if r.ref.rank == heavy and r.iteration >= 5
        ]
        assert all(r.config.freq_ghz >= 2.4 for r in late)

    def test_light_ranks_downshift(self, models, app):
        engine = Engine(models)
        res = engine.run(app, AdagioPolicy(models, app))
        import numpy as np

        busy = np.zeros(4)
        for r in res.records:
            busy[r.ref.rank] += r.duration_s
        light = int(np.argmin(busy))
        late = [
            r for r in res.records
            if r.ref.rank == light and r.iteration >= 5
        ]
        assert any(r.config.freq_ghz < 2.6 for r in late)

    def test_first_iteration_runs_fastest(self, models, kernel):
        """No slack estimates yet: everything at the fastest config."""
        policy = AdagioPolicy(models, kernel_app(kernel))
        from repro.simulator import TaskRef

        cfg = policy.configure(TaskRef(0, 0), kernel, 0, None)
        assert cfg.freq_ghz == 2.6


class TestEnergyComparisonExhibit:
    def test_orderings(self):
        from repro.experiments import energy_comparison

        result = energy_comparison(n_ranks=4, iterations=6)
        t_max, e_max = result.row("MaxPerformance")[1:]
        t_ada, e_ada = result.row("Adagio")[1:]
        t_lp, e_lp = result.row("Energy LP (0% slowdown)")[1:]
        # Adagio saves energy vs MaxPerformance at ~no slowdown; the
        # energy LP bounds what any such runtime can save.
        assert e_ada < e_max
        assert e_lp <= e_ada * 1.001
        assert t_ada <= t_max * 1.02
        assert t_lp <= t_max * 1.001

    def test_render(self):
        from repro.experiments import energy_comparison

        text = energy_comparison(n_ranks=4, iterations=4).render()
        assert "Energy vs power objectives" in text
