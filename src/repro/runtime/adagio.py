"""Adagio-style slack reclamation (Rountree et al., ICS'09; paper §4.2).

Adagio observes, per recurring task, how much *slack* followed the task in
the previous iteration (time the rank idled in MPI before the next event
could complete) and slows the task just enough to absorb that slack —
freeing power without perturbing the critical path.  Conductor deploys it
as its first step; it is also usable standalone as an energy-saving policy.

Tasks recur across iterations, so the per-iteration position of a task on
its rank, :func:`task_key`, is the identity slack estimates attach to.
The runtimes read each task's frontier from a :class:`FrontierTable`, by
task position, and pick points off its hull lists with
:func:`first_fitting`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..machine.configuration import ConfigPoint
from ..machine.frontiers import FrontierProfile, FrontierStore, NodeFrontierStore
from ..machine.performance import TaskKernel, rank_kernel_arrays
from ..simulator.engine import TaskRecord
from ..simulator.program import Application, TaskRef

__all__ = [
    "task_key",
    "SlackEstimator",
    "FrontierTable",
    "first_fitting",
    "slowest_fitting_point",
]


def task_key(record: TaskRecord, tasks_per_iteration: int) -> tuple[int, int]:
    """Recurring-task identity: (rank, position within the iteration)."""
    if tasks_per_iteration <= 0:
        raise ValueError("tasks_per_iteration must be positive")
    return (record.ref.rank, record.ref.seq % tasks_per_iteration)


@dataclass
class SlackEstimator:
    """Exponentially-smoothed per-task slack estimates from iteration records.

    ``update`` consumes one iteration's task records (all ranks) and
    refreshes the per-task slack: the gap between a task's end and the next
    task's start on the same rank, with the final task of each rank slacked
    against the iteration's global end (the Pcontrol barrier).
    """

    tasks_per_iteration: dict[int, int]
    smoothing: float = 0.5
    slack_s: dict[tuple[int, int], float] = field(default_factory=dict)
    duration_s: dict[tuple[int, int], float] = field(default_factory=dict)

    def update(
        self,
        records: list[TaskRecord],
        rng=None,
        noise: float = 0.0,
    ) -> None:
        """Refresh estimates from one iteration's records.

        ``noise`` models measurement error as an additive perturbation of
        each observed slack, proportional to the task duration — on a
        well-balanced application this is what makes Adagio occasionally
        slow a critical task (the paper's SP pathology).
        """
        if not records:
            return
        iteration_end = max(r.end_s for r in records)
        by_rank: dict[int, list[TaskRecord]] = {}
        for r in records:
            by_rank.setdefault(r.ref.rank, []).append(r)
        for rank, recs in by_rank.items():
            recs.sort(key=lambda r: r.start_s)
            tpi = self.tasks_per_iteration.get(rank, len(recs))
            for i, rec in enumerate(recs):
                nxt = recs[i + 1].start_s if i + 1 < len(recs) else iteration_end
                slack = max(0.0, nxt - rec.end_s)
                if rng is not None and noise > 0:
                    slack = max(
                        0.0, slack + rec.duration_s * float(rng.normal(0.0, noise))
                    )
                key = task_key(rec, tpi)
                old = self.slack_s.get(key)
                if old is None:
                    self.slack_s[key] = slack
                    self.duration_s[key] = rec.duration_s
                else:
                    a = self.smoothing
                    self.slack_s[key] = a * slack + (1 - a) * old
                    self.duration_s[key] = (
                        a * rec.duration_s + (1 - a) * self.duration_s[key]
                    )

    def allowed_duration(self, key: tuple[int, int], safety: float = 0.9) -> float | None:
        """Duration budget for a task: last duration plus reclaimable slack.

        ``safety`` < 1 leaves a guard band so noise does not push the task
        past the critical path.  None when the task has not been seen yet.
        """
        if key not in self.slack_s:
            return None
        return self.duration_s[key] + safety * self.slack_s[key]

    def slack_estimate(self, key: tuple[int, int]) -> float | None:
        """Smoothed slack for a task, or None before the first observation.

        Callers that know a faster achievable duration should budget
        ``fastest + safety * slack`` rather than :meth:`allowed_duration` —
        anchoring to the *last measured* duration ratchets: a task slowed
        yesterday measures no slack today and never speeds back up.
        """
        return self.slack_s.get(key)


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


class FrontierTable:
    """An application's task profiles, read by task position.

    Built once per policy from a shared store's
    :meth:`~repro.machine.frontiers.FrontierStore.profile_table`; the
    runtimes then pick configurations from each profile's hull lists
    (``hull_powers``, ``hull_durations``, ``hull_configs``).
    """

    def __init__(self, store: FrontierStore | NodeFrontierStore, app: Application):
        arrays = rank_kernel_arrays(app)
        self._kernels = [ka.kernels for ka in arrays]
        self._profiles = store.profile_table(arrays)

    def profile(self, ref: TaskRef, kernel: TaskKernel) -> FrontierProfile:
        """The profile of task ``ref``; raises ``ValueError`` unless the
        table's application runs ``kernel`` there."""
        try:
            mine = self._kernels[ref.rank][ref.seq]
        except IndexError:
            mine = None
        if mine is not kernel and mine != kernel:
            raise ValueError(
                f"task {ref} runs kernel {kernel.name or kernel!r}, but the "
                "policy's frontier table was built for another application"
            )
        return self._profiles[ref.rank][ref.seq]
