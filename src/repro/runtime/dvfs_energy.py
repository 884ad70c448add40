"""Slack-driven energy-minimizing DVFS (Guermouche et al., arXiv:1502.06733).

Guermouche et al. save energy in MPI programs by lowering the *frequency*
of ranks whose tasks are followed by MPI wait time: stretching computation
into the wait costs no makespan but drops power quadratically.  Unlike
Adagio — which picks the *slowest* configuration that fits the slack
(maximal slack absorption) — this runtime picks the *minimum-energy*
frequency among those that fit, and it scales frequency only: thread
width stays at the socket's full core count, matching the MPI-process
model of the original system (one process per core set, no concurrency
throttling).

Both runtimes are fully-provisioned (no cap enforcement); the scenario
layer evaluates them against the capped LP bounds on the energy axis.
"""

from __future__ import annotations

from ..machine.configuration import ConfigPoint, Configuration, measure_task
from ..machine.cpu import CpuSpec, XEON_E5_2670
from ..machine.performance import TaskKernel, TaskTimeModel
from ..machine.power import SocketPowerModel
from ..simulator.engine import TaskRecord
from ..simulator.program import Application, TaskRef
from .adagio import SlackEstimator
from .conductor import task_key_for

__all__ = ["DvfsEnergyPolicy", "min_energy_fitting_point"]


def min_energy_fitting_point(
    ladder: list[ConfigPoint], max_duration_s: float
) -> ConfigPoint:
    """Lowest-energy ladder point not exceeding a duration budget.

    The ladder is sorted by descending duration (ascending frequency), so
    the fastest point is last; when even it misses the budget the task is
    critical and runs fastest, exactly as Adagio treats critical tasks.
    """
    if not ladder:
        raise ValueError("empty frequency ladder")
    fitting = [p for p in ladder if p.duration_s <= max_duration_s]
    if not fitting:
        return ladder[-1]
    return min(fitting, key=lambda p: (p.duration_s * p.power_w, p.duration_s))


class DvfsEnergyPolicy:
    """Per-rank frequency scaling into MPI wait, minimizing task energy."""

    def __init__(
        self,
        power_models: list[SocketPowerModel],
        app: Application,
        spec: CpuSpec = XEON_E5_2670,
        safety: float = 0.9,
        switch_overhead_s: float = 145e-6,
        min_switch_duration_s: float = 1e-3,
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
        self._time_models = [TaskTimeModel(pm.spec) for pm in power_models]
        self._ladders: dict[tuple[int, TaskKernel], list[ConfigPoint]] = {}

    def _ladder(self, rank: int, kernel: TaskKernel) -> list[ConfigPoint]:
        """The rank's frequency-only ladder for a kernel (full threads).

        One measured point per P-state at the socket's core count, sorted
        fastest-last; memoized — kernels recur every iteration.
        """
        key = (rank, kernel)
        ladder = self._ladders.get(key)
        if ladder is None:
            pm = self.power_models[rank]
            tm = self._time_models[rank]
            points = [
                measure_task(kernel, Configuration(f, pm.spec.cores), pm, tm)
                for f in pm.spec.pstates
            ]
            points.sort(key=lambda p: -p.duration_s)
            self._ladders[key] = ladder = points
        return ladder

    def configure(
        self,
        ref: TaskRef,
        kernel: TaskKernel,
        iteration: int,
        current: Configuration | None,
    ) -> Configuration:
        """Fastest frequency, trimmed to the min-energy point in the slack."""
        ladder = self._ladder(ref.rank, kernel)
        fastest = ladder[-1]
        chosen = fastest
        slack_s = self.slack.slack_estimate(
            task_key_for(ref, self.tasks_per_iteration[ref.rank])
        )
        if slack_s is not None:
            chosen = min_energy_fitting_point(
                ladder, fastest.duration_s + self.safety * slack_s
            )
        if (
            current is not None
            and chosen.config != current
            and chosen.duration_s < self.min_switch_duration_s
        ):
            return current
        return chosen.config

    def on_pcontrol(self, iteration: int, records: list[TaskRecord]) -> float:
        self.slack.update(records)
        return 0.0

    def switch_cost_s(self) -> float:
        return self.switch_overhead_s
