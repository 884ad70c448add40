"""Unit tests for Adagio slack reclamation."""

import numpy as np
import pytest

from repro.machine import Configuration, ConfigPoint, TaskKernel
from repro.runtime import SlackEstimator, task_key
from repro.simulator import TaskRecord, TaskRef

from .selection_oracle import slowest_fitting_point


def record(rank, seq, start, duration, power=30.0, kernel=None):
    return TaskRecord(
        ref=TaskRef(rank, seq),
        iteration=0,
        label="",
        config=Configuration(2.6, 8),
        start_s=start,
        duration_s=duration,
        power_w=power,
        kernel=kernel or TaskKernel(cpu_seconds=duration),
    )


class TestTaskKey:
    def test_wraps_by_iteration(self):
        r = record(2, 7, 0.0, 1.0)
        assert task_key(r, tasks_per_iteration=3) == (2, 1)

    def test_invalid_tpi(self):
        with pytest.raises(ValueError):
            task_key(record(0, 0, 0, 1), 0)


class TestSlackEstimator:
    def test_slack_from_gap_to_next_task(self):
        est = SlackEstimator(tasks_per_iteration={0: 2, 1: 2})
        recs = [
            record(0, 0, 0.0, 1.0),   # gap of 0.5 before next
            record(0, 1, 1.5, 1.0),
            record(1, 0, 0.0, 2.0),   # no gap
            record(1, 1, 2.0, 0.5),   # ends at 2.5, barrier at 2.5
        ]
        est.update(recs)
        assert est.slack_s[(0, 0)] == pytest.approx(0.5)
        assert est.slack_s[(1, 0)] == pytest.approx(0.0)
        assert est.slack_s[(0, 1)] == pytest.approx(0.0)  # ends at barrier
        assert est.slack_s[(1, 1)] == pytest.approx(0.0)

    def test_smoothing(self):
        est = SlackEstimator(tasks_per_iteration={0: 1, 1: 1}, smoothing=0.5)
        # Rank 1 sets the barrier; rank 0's single task has 1.0s slack.
        est.update([record(0, 0, 0.0, 1.0), record(1, 0, 0.0, 2.0)])
        assert est.slack_s[(0, 0)] == pytest.approx(1.0)
        # Next iteration the slack observed is 3.0 -> smoothed halfway.
        est.update([record(0, 1, 0.0, 1.0), record(1, 1, 0.0, 4.0)])
        assert est.slack_s[(0, 0)] == pytest.approx(0.5 * 3.0 + 0.5 * 1.0)

    def test_empty_update_noop(self):
        est = SlackEstimator(tasks_per_iteration={})
        est.update([])
        assert est.slack_s == {}

    def test_noise_perturbs_but_stays_nonnegative(self):
        rng = np.random.default_rng(0)
        est = SlackEstimator(tasks_per_iteration={0: 1})
        est.update([record(0, 0, 0.0, 1.0)], rng=rng, noise=0.5)
        assert est.slack_s[(0, 0)] >= 0.0

    def test_allowed_duration(self):
        est = SlackEstimator(tasks_per_iteration={0: 1})
        assert est.allowed_duration((0, 0)) is None
        est.update([record(0, 0, 0.0, 1.0), record(1, 0, 0.0, 2.0)])
        # hmm rank 1 not in tpi map: defaults fine
        allowed = est.allowed_duration((0, 0), safety=0.9)
        assert allowed == pytest.approx(1.0 + 0.9 * 1.0)

    def test_slack_estimate_accessor(self):
        est = SlackEstimator(tasks_per_iteration={0: 1})
        assert est.slack_estimate((0, 0)) is None
        est.update([record(0, 0, 0.0, 1.0), record(1, 0, 0.0, 1.5)])
        assert est.slack_estimate((0, 0)) == pytest.approx(0.5)


class TestSlowestFittingPoint:
    def frontier(self):
        mk = lambda p, d: ConfigPoint(Configuration(2.0, 4), d, p)  # noqa
        return [mk(10, 4.0), mk(20, 2.0), mk(30, 1.0)]

    def test_picks_lowest_power_that_fits(self):
        front = self.frontier()
        assert slowest_fitting_point(front, 5.0).power_w == 10
        assert slowest_fitting_point(front, 2.5).power_w == 20
        assert slowest_fitting_point(front, 1.5).power_w == 30

    def test_critical_task_gets_fastest(self):
        front = self.frontier()
        assert slowest_fitting_point(front, 0.5).power_w == 30

    def test_empty_frontier(self):
        with pytest.raises(ValueError):
            slowest_fitting_point([], 1.0)
