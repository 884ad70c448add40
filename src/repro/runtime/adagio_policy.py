"""Standalone Adagio: the energy-saving runtime of the related work.

Adagio (Rountree et al., ICS'09 — paper §7) runs on *fully provisioned*
systems: no power cap, every task free to run at the fastest
configuration, with slack-bearing tasks slowed just enough to absorb their
measured slack.  The paper's Conductor embeds it as step one; this
standalone policy reproduces the original system so the related work's
premise — "save energy without increasing execution time" — can be
measured against the energy-LP bound (:func:`repro.core.solve_energy_lp`).
"""

from __future__ import annotations

from ..machine.configuration import Configuration
from ..machine.cpu import CpuSpec, XEON_E5_2670
from ..machine.frontiers import FrontierStore
from ..machine.performance import TaskKernel
from ..machine.power import SocketPowerModel
from ..simulator.engine import TaskRecord
from ..simulator.program import Application, TaskRef
from .adagio import FrontierTable, SlackEstimator, first_fitting
from .conductor import task_key_for

__all__ = ["AdagioPolicy"]


class AdagioPolicy:
    """Uncapped slack reclamation: fastest configs, slowed into slack."""

    def __init__(
        self,
        power_models: list[SocketPowerModel],
        app: Application,
        spec: CpuSpec = XEON_E5_2670,
        safety: float = 0.9,
        switch_overhead_s: float = 145e-6,
        min_switch_duration_s: float = 1e-3,
        frontier_store: FrontierStore | None = None,
    ) -> None:
        if not (0.0 <= safety <= 1.0):
            raise ValueError(f"safety must be in [0,1], got {safety}")
        self.power_models = power_models
        self.spec = spec
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
