"""Configuration selection *without* power reallocation (paper §6).

    "If only the configuration selection is performed (but not power
    reallocation), there is less overhead than Conductor, but also lower
    performance due to the use of uniform power allocation."

This policy is that ablation: per-task Pareto-optimal configuration
selection under a fixed uniform per-socket budget, with Adagio slack
reclamation, but the budgets never move between ranks.  It isolates how
much of Conductor's gain comes from selection vs from reallocation —
virtually all of LULESH's (thread-count mismatch) and almost none of BT's
(load imbalance).
"""

from __future__ import annotations

from bisect import bisect_right

from ..machine.configuration import Configuration
from ..machine.cpu import CpuSpec, XEON_E5_2670
from ..machine.frontiers import FrontierStore, NodeFrontierStore
from ..machine.performance import TaskKernel
from ..machine.power import SocketPowerModel
from ..machine.rapl import RaplController
from ..simulator.engine import TaskRecord
from ..simulator.program import Application, ComputeOp, TaskRef
from .adagio import FrontierTable, SlackEstimator, first_fitting
from .conductor import task_key_for

__all__ = ["SelectionOnlyPolicy"]


class SelectionOnlyPolicy:
    """Pareto configuration selection under uniform, immovable budgets."""

    def __init__(
        self,
        power_models: list[SocketPowerModel],
        job_cap_w: float,
        app: Application,
        spec: CpuSpec = XEON_E5_2670,
        adagio_safety: float = 0.9,
        switch_overhead_s: float = 145e-6,
        min_switch_duration_s: float = 1e-3,
        frontier_store: FrontierStore | NodeFrontierStore | None = None,
    ) -> None:
        if job_cap_w <= 0:
            raise ValueError(f"job cap must be positive, got {job_cap_w}")
        self.power_models = power_models
        self.spec = spec
        self.budget_w = job_cap_w / len(power_models)
        self.rapl = [RaplController(pm) for pm in power_models]
        self.adagio_safety = adagio_safety
        self.switch_overhead_s = switch_overhead_s
        self.min_switch_duration_s = min_switch_duration_s
        tpi = {
            r: max(
                1,
                sum(
                    1
                    for op in app.programs[r]
                    if isinstance(op, ComputeOp) and op.iteration == 0
                ),
            )
            for r in range(len(power_models))
        }
        self.tasks_per_iteration = tpi
        self.slack = SlackEstimator(tpi)
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
