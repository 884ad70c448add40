"""Adagio-style slack reclamation (Rountree et al., ICS'09; paper §4.2).

Adagio observes, per recurring task, how much *slack* followed the task in
the previous iteration (time the rank idled in MPI before the next event
could complete) and slows the task just enough to absorb that slack —
freeing power without perturbing the critical path.  Conductor deploys it
as its first step; uncapped, that step alone is the standalone
energy-saving policy (:meth:`~repro.runtime.ConductorPolicy.adagio`).

Tasks recur across iterations, so the per-iteration position of a task on
its rank, :func:`task_key`, is the identity slack estimates attach to.
The runtimes read each task's frontier from a :class:`FrontierTable`, by
task position, and pick points off its hull lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..machine.frontiers import FrontierProfile, FrontierStore
from ..machine.performance import TaskKernel, rank_kernel_arrays
from ..simulator.engine import TaskRecord
from ..simulator.program import Application, TaskRef

__all__ = [
    "task_key",
    "observed_slack",
    "smooth",
    "SlackEstimator",
    "FrontierTable",
]


def task_key(record: TaskRecord, tasks_per_iteration: int) -> tuple[int, int]:
    """Recurring-task identity: (rank, position within the iteration)."""
    if tasks_per_iteration <= 0:
        raise ValueError("tasks_per_iteration must be positive")
    return (record.ref.rank, record.ref.seq % tasks_per_iteration)


def observed_slack(
    starts: np.ndarray,
    durations: np.ndarray,
    last: np.ndarray,
    draws: np.ndarray | None = None,
) -> np.ndarray:
    """The slack each task of one iteration left, for every sweep point.

    Rows are the iteration's tasks grouped by rank, each rank's in start
    order, and columns sweep points (a 1-D input is one point).  A task's
    slack is the gap from its end to the next task's start on its rank,
    or, where ``last`` marks the rank's final task, to the iteration's
    end (the Pcontrol barrier, the latest end of any task).  ``draws``
    are standard measurement errors, one per row shared by every point:
    each perturbs its task's slack by that many task durations.
    """
    ends = starts + durations
    nxt = np.empty_like(starts)
    nxt[:-1] = starts[1:]
    last = last.reshape(last.shape + (1,) * (starts.ndim - 1))
    nxt = np.where(last, ends.max(axis=0), nxt)
    slack = np.maximum(0.0, nxt - ends)
    if draws is not None:
        draws = draws.reshape(draws.shape + (1,) * (starts.ndim - 1))
        slack = np.maximum(0.0, slack + durations * draws)
    return slack


def smooth(old, new, smoothing: float):
    """Exponential smoothing of an estimate toward a new observation."""
    return smoothing * new + (1 - smoothing) * old


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
        slow a critical task (the paper's SP pathology).  The errors are
        drawn from ``rng``, one per record, rank by rank in order of each
        rank's first record, each rank's in start order.
        """
        if not records:
            return
        by_rank: dict[int, list[TaskRecord]] = {}
        for r in records:
            by_rank.setdefault(r.ref.rank, []).append(r)
        ordered: list[TaskRecord] = []
        last = np.zeros(len(records), dtype=bool)
        for recs in by_rank.values():
            recs.sort(key=lambda r: r.start_s)
            ordered.extend(recs)
            last[len(ordered) - 1] = True
        draws = (
            rng.normal(0.0, noise, len(ordered))
            if rng is not None and noise > 0
            else None
        )
        slacks = observed_slack(
            np.array([r.start_s for r in ordered]),
            np.array([r.duration_s for r in ordered]),
            last,
            draws,
        ).tolist()
        for rec, slack in zip(ordered, slacks):
            rank = rec.ref.rank
            tpi = self.tasks_per_iteration.get(rank, len(by_rank[rank]))
            key = task_key(rec, tpi)
            old = self.slack_s.get(key)
            if old is None:
                self.slack_s[key] = slack
                self.duration_s[key] = rec.duration_s
            else:
                a = self.smoothing
                self.slack_s[key] = smooth(old, slack, a)
                self.duration_s[key] = smooth(
                    self.duration_s[key], rec.duration_s, a
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


class FrontierTable:
    """An application's task profiles, read by task position.

    Built once per policy from a shared store's
    :meth:`~repro.machine.frontiers.FrontierStore.profile_table`; the
    runtimes then pick configurations from each profile's hull lists
    (``hull_powers``, ``hull_durations``, ``hull_configs``).
    """

    def __init__(self, store: FrontierStore, app: Application):
        arrays = rank_kernel_arrays(app)
        self._kernels = [ka.kernels for ka in arrays]
        self._profiles = store.profile_table(arrays)

    def rows(self) -> list[list[FrontierProfile]]:
        """Every task's profile, ``[rank][seq]``."""
        return self._profiles

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
