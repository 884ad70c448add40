"""Property tests: vectorized replay == scalar replay, bit for bit.

Random deadlock-free DAGs, random per-task configuration assignments,
and random cap grids; the plan-based engine run and the sweep-batched
DAG walk must reproduce the scalar reference oracles
(``tests/simulator/oracles.py``) exactly — same floats, same record
order, same schedules.  Deterministic worker-count identity (which
needs real process pools) lives in ``tests/exec/test_parallel.py``.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.machine import Configuration, SocketPowerModel
from repro.simulator import (
    Engine,
    ReplayPolicy,
    TaskRef,
    job_power_timeline,
    replay_schedule,
    replay_schedule_sweep,
)
from repro.workloads import random_application
from tests.simulator.oracles import job_power_timeline_reference, run_scalar

apps = st.builds(
    random_application,
    n_ranks=st.integers(1, 4),
    iterations=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    p_p2p=st.floats(0.0, 1.0),
)

#: Valid operating points to assign (frequencies on the Xeon grid, one
#: clock-modulated point the Static fallback can produce).
PALETTE = (
    Configuration(2.6, 8),
    Configuration(2.0, 4),
    Configuration(1.2, 8),
    Configuration(1.8, 2, duty=0.75),
)


def models_for(app):
    return [
        SocketPowerModel(efficiency=1.0 + 0.02 * r) for r in range(app.n_ranks)
    ]


def random_assignment(app, seed):
    """Configuration per task, drawn from the palette; ~30% of non-first
    tasks are left absent to exercise the carry-current rule."""
    rng = random.Random(seed)
    assignment = {}
    for r in range(app.n_ranks):
        for s in range(len(app.compute_ops(r))):
            if s == 0 or rng.random() < 0.7:
                assignment[TaskRef(r, s)] = rng.choice(PALETTE)
    return assignment


def assert_identical(ref, vec):
    assert ref.makespan_s == vec.makespan_s
    assert ref.dvfs_switch_count == vec.dvfs_switch_count
    assert ref.mpi_call_count == vec.mpi_call_count
    assert ref.collective_count == vec.collective_count
    assert len(ref.records) == len(vec.records)
    for a, b in zip(ref.records, vec.records):
        assert (a.ref, a.iteration, a.label, a.config) == (
            b.ref, b.iteration, b.label, b.config
        )
        assert a.start_s == b.start_s
        assert a.duration_s == b.duration_s
        assert a.power_w == b.power_w


class TestVectorizedReplayProperties:
    @given(app=apps, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_vectorized_run_bitwise_equals_scalar(self, app, seed):
        models = models_for(app)
        policy = ReplayPolicy(random_assignment(app, seed))
        vec = Engine(models).run(app, policy)
        ref = run_scalar(Engine(models), app, policy)
        assert_identical(ref, vec)

    @given(
        app=apps,
        seed=st.integers(0, 2**31 - 1),
        caps=st.lists(st.floats(20.0, 2000.0), min_size=1, max_size=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_sweep_bitwise_equals_per_cap_scalar(self, app, seed, caps):
        """One vectorized walk over a random cap grid == that many
        scalar replays, including the power verification verdicts."""
        models = models_for(app)
        assignments = [
            random_assignment(app, seed + c) for c in range(len(caps))
        ]
        vec = replay_schedule_sweep(app, assignments, models, caps)
        for (assignment, cap), b in zip(zip(assignments, caps), vec):
            a = replay_schedule(app, assignment, models, cap)
            assert a.cap_w == b.cap_w
            assert a.peak_power_w == b.peak_power_w
            assert a.cap_respected == b.cap_respected
            assert_identical(a.result, b.result)
            oracle = run_scalar(Engine(models), app, ReplayPolicy(assignment))
            assert_identical(oracle, b.result)

    @given(app=apps, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_timeline_accounting_bitwise_equals_reference(self, app, seed):
        """Array-built job power timelines == the per-event Python
        accumulation, breakpoint for breakpoint."""
        models = models_for(app)
        result = Engine(models).run(app, ReplayPolicy(random_assignment(app, seed)))
        for slack_mode in ("task", "idle"):
            vec = job_power_timeline(result, models, slack_mode=slack_mode)
            ref = job_power_timeline_reference(
                result, models, slack_mode=slack_mode
            )
            assert np.array_equal(ref.times, vec.times)
            assert np.array_equal(ref.power, vec.power)
