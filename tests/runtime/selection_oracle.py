"""Selection-only and Adagio as they decided before they were Conductor.

The product runs both as configurations of the Conductor planner
(:meth:`~repro.runtime.ConductorPolicy.selection_only` and
:meth:`~repro.runtime.ConductorPolicy.adagio`): no exploration, no
measurement noise, budgets that never move, and for Adagio no cap.
These are the per-task runtimes they replaced, kept as the reference:
one ``configure`` call per task reading the uniform budget, the task's
hull and its slack estimate (a per-record :class:`SlackEstimator`), with
the hull picks made by :func:`first_fitting`.  The identity suites hold
the planner, at one cap and across a sweep, to their records and trace
events bit for bit.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.machine.configuration import ConfigPoint, Configuration
from repro.machine.frontiers import FrontierStore
from repro.machine.performance import TaskKernel
from repro.machine.power import SocketPowerModel
from repro.machine.rapl import RaplController
from repro.runtime import SlackEstimator
from repro.runtime.adagio import FrontierTable
from repro.runtime.conductor import task_key_for
from repro.simulator.engine import TaskRecord
from repro.simulator.program import Application, TaskRef

__all__ = [
    "ScalarAdagio",
    "ScalarSelectionOnly",
    "first_fitting",
    "slowest_fitting_point",
]


def first_fitting(durations: list[float], n: int, max_duration_s: float) -> int:
    """Position of the first of ``durations[:n]`` within a budget.

    ``durations`` is a frontier's, in increasing-power order, so this is
    the lowest-power point whose duration fits; when none of the first
    ``n`` fits, the last of them (the fastest) is returned.
    """
    for i in range(n):
        if durations[i] <= max_duration_s:
            return i
    return n - 1


def slowest_fitting_point(
    frontier: list[ConfigPoint], max_duration_s: float
) -> ConfigPoint:
    """Lowest-power frontier point not exceeding a duration budget.

    The frontier is sorted by ascending power / descending duration, so
    this is the *first* point whose duration fits; when even the fastest
    point misses the budget the fastest is returned (the task is critical —
    Adagio never slows it further).
    """
    if not frontier:
        raise ValueError("empty frontier")
    durations = [p.duration_s for p in frontier]
    return frontier[first_fitting(durations, len(frontier), max_duration_s)]


class ScalarSelectionOnly:
    """Pareto configuration selection under uniform, immovable budgets."""

    def __init__(
        self,
        power_models: list[SocketPowerModel],
        job_cap_w: float,
        app: Application,
        adagio_safety: float = 0.9,
        switch_overhead_s: float = 145e-6,
        min_switch_duration_s: float = 1e-3,
        frontier_store: FrontierStore | None = None,
    ) -> None:
        if job_cap_w <= 0:
            raise ValueError(f"job cap must be positive, got {job_cap_w}")
        self.power_models = power_models
        self.budget_w = job_cap_w / len(power_models)
        self.rapl = [RaplController(pm) for pm in power_models]
        self.adagio_safety = adagio_safety
        self.switch_overhead_s = switch_overhead_s
        self.min_switch_duration_s = min_switch_duration_s
        self.tasks_per_iteration = app.tasks_per_iteration()
        self.slack = SlackEstimator(self.tasks_per_iteration)
        self.frontiers = (
            frontier_store
            if frontier_store is not None
            else FrontierStore(power_models)
        )
        self.table = FrontierTable(self.frontiers, app)

    def configure(
        self,
        ref: TaskRef,
        kernel: TaskKernel,
        iteration: int,
        current: Configuration | None,
    ) -> Configuration:
        """Fastest frontier point under the fixed uniform budget (with
        Adagio slack absorption and the 1 ms switch rule)."""
        prof = self.table.profile(ref, kernel)
        n_fit = bisect_right(prof.hull_powers, self.budget_w)
        if not n_fit:
            threads = prof.hull_configs[0].threads
            return self.rapl[ref.rank].decide(
                kernel, threads, self.budget_w
            ).config
        durations = prof.hull_durations
        chosen = n_fit - 1
        slack_s = self.slack.slack_estimate(
            task_key_for(ref, self.tasks_per_iteration[ref.rank])
        )
        if slack_s is not None:
            allowed = durations[chosen] + self.adagio_safety * slack_s
            chosen = first_fitting(durations, n_fit, allowed)
        config = prof.hull_configs[chosen]
        if (
            current is not None
            and config != current
            and durations[chosen] < self.min_switch_duration_s
        ):
            return current
        return config

    def on_pcontrol(self, iteration: int, records: list[TaskRecord]) -> float:
        self.slack.update(records)
        return 0.0  # no reallocation step, no 566 us

    def switch_cost_s(self) -> float:
        return self.switch_overhead_s


class ScalarAdagio:
    """Uncapped slack reclamation: fastest configs, slowed into slack."""

    def __init__(
        self,
        power_models: list[SocketPowerModel],
        app: Application,
        safety: float = 0.9,
        switch_overhead_s: float = 145e-6,
        min_switch_duration_s: float = 1e-3,
        frontier_store: FrontierStore | None = None,
    ) -> None:
        if not (0.0 <= safety <= 1.0):
            raise ValueError(f"safety must be in [0,1], got {safety}")
        self.power_models = power_models
        self.safety = safety
        self.switch_overhead_s = switch_overhead_s
        self.min_switch_duration_s = min_switch_duration_s
        self.tasks_per_iteration = app.tasks_per_iteration()
        self.slack = SlackEstimator(self.tasks_per_iteration)
        self.frontiers = (
            frontier_store
            if frontier_store is not None
            else FrontierStore(power_models)
        )
        self.table = FrontierTable(self.frontiers, app)

    def configure(
        self,
        ref: TaskRef,
        kernel: TaskKernel,
        iteration: int,
        current: Configuration | None,
    ) -> Configuration:
        """Fastest configuration, slowed into the task's measured slack."""
        prof = self.table.profile(ref, kernel)
        durations = prof.hull_durations
        chosen = len(durations) - 1  # the fastest
        slack_s = self.slack.slack_estimate(
            task_key_for(ref, self.tasks_per_iteration[ref.rank])
        )
        if slack_s is not None:
            allowed = durations[chosen] + self.safety * slack_s
            chosen = first_fitting(durations, len(durations), allowed)
        config = prof.hull_configs[chosen]
        if (
            current is not None
            and config != current
            and durations[chosen] < self.min_switch_duration_s
        ):
            return current
        return config

    def on_pcontrol(self, iteration: int, records: list[TaskRecord]) -> float:
        self.slack.update(records)
        return 0.0

    def switch_cost_s(self) -> float:
        return self.switch_overhead_s
