"""Unit tests for schedule JSON serialization.

The solver cache writes ``schedule_to_dict`` documents as JSON text and
reads them back through ``schedule_from_dict``; the file round trips
below do the same.
"""

import json

import numpy as np
import pytest

from repro.core import (
    round_schedule,
    schedule_from_dict,
    schedule_to_dict,
    solve_fixed_order_lp,
)
from repro.machine import SocketPowerModel, TaskKernel
from repro.simulator import replay_schedule, trace_application

from ..conftest import make_p2p_app


def save_schedule(schedule, path):
    path.write_text(json.dumps(schedule_to_dict(schedule), indent=1))


def load_schedule(path):
    return schedule_from_dict(json.loads(path.read_text()))


@pytest.fixture(scope="module")
def setup():
    kernel = TaskKernel(cpu_seconds=1.0, mem_seconds=0.2,
                        parallel_fraction=0.98, mem_parallel_fraction=0.9,
                        bw_saturation_threads=4, mem_intensity=0.3)
    models = [SocketPowerModel(), SocketPowerModel(efficiency=1.05)]
    app = make_p2p_app(kernel, iterations=2)
    trace = trace_application(app, models)
    lp = solve_fixed_order_lp(trace, 58.0)
    return app, models, trace, lp.schedule


class TestRoundtrip:
    def test_dict_roundtrip(self, setup):
        *_, sched = setup
        back = schedule_from_dict(schedule_to_dict(sched))
        assert back.kind == sched.kind
        assert back.cap_w == sched.cap_w
        assert back.objective_s == pytest.approx(sched.objective_s)
        np.testing.assert_allclose(back.vertex_times, sched.vertex_times)
        assert set(back.assignments) == set(sched.assignments)
        for ref, a in sched.assignments.items():
            b = back.assignments[ref]
            assert b.duration_s == pytest.approx(a.duration_s)
            assert b.power_w == pytest.approx(a.power_w)
            assert b.configuration == a.configuration

    def test_file_roundtrip(self, setup, tmp_path):
        *_, sched = setup
        path = tmp_path / "schedule.json"
        save_schedule(sched, path)
        back = load_schedule(path)
        assert back.config_map() == sched.config_map()

    def test_json_is_plain(self, setup, tmp_path):
        *_, sched = setup
        path = tmp_path / "schedule.json"
        save_schedule(sched, path)
        data = json.loads(path.read_text())
        assert data["format_version"] == 1
        assert isinstance(data["assignments"], list)

    def test_discrete_schedule_roundtrip(self, setup, tmp_path):
        _, _, trace, sched = setup
        disc = round_schedule(trace, sched, mode="floor")
        path = tmp_path / "discrete.json"
        save_schedule(disc, path)
        back = load_schedule(path)
        assert back.kind == "discrete"
        assert all(a.is_discrete for a in back.assignments.values())

    def test_loaded_schedule_replays(self, setup, tmp_path):
        """The offline workflow: solve, save, ship, load, replay."""
        app, models, trace, sched = setup
        disc = round_schedule(trace, sched, mode="floor")
        path = tmp_path / "ship.json"
        save_schedule(disc, path)
        shipped = load_schedule(path)
        out = replay_schedule(app, shipped.config_map(), models, cap_w=58.0)
        assert out.cap_respected

    def test_version_guard(self, setup):
        *_, sched = setup
        data = schedule_to_dict(sched)
        data["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            schedule_from_dict(data)
