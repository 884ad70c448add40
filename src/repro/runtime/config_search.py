"""Energy-optimal configuration search (Silva et al., arXiv:1805.00998).

Silva et al. find, per application phase, the single-node (frequency,
thread count) configuration that minimizes energy subject to a bounded
slowdown: measure the whole configuration space once, discard points that
exceed the node's power budget, then take the cheapest point within the
allowed slowdown of the fastest admissible one.  This runtime reproduces
that search against the repo's power/perf models, one search per distinct
kernel per rank (kernels recur every iteration, so the search amortizes
to nothing).

The chosen configuration is history-free — the search depends only on the
kernel and the machine — so the policy also offers the vectorized
``plan_run`` whole-run path, like :class:`~repro.runtime.static.StaticPolicy`.
"""

from __future__ import annotations

import numpy as np

from ..machine.configuration import ConfigPoint, Configuration, task_space
from ..machine.cpu import CpuSpec, XEON_E5_2670
from ..machine.performance import TaskKernel
from ..machine.power import SocketPowerModel
from ..simulator.engine import (
    Engine,
    RunPlan,
    TaskRecord,
    plan_from_configs,
    rank_kernel_arrays,
)
from ..simulator.program import Application, TaskRef

__all__ = ["ConfigSearchPolicy", "energy_optimal_point"]


def energy_optimal_point(
    points: list[ConfigPoint],
    power_budget_w: float | None = None,
    max_slowdown: float = 0.1,
) -> ConfigPoint:
    """The min-energy point within a slowdown bound of the fastest.

    Points above ``power_budget_w`` are inadmissible; when *every* point
    is, the least-power point is returned (the budget is unreachable and
    nothing admissible exists to slow down from).  Among admissible
    points, candidates run within ``(1 + max_slowdown)`` of the fastest
    admissible duration, and the cheapest (duration x power) wins, ties
    broken toward the faster point.
    """
    if not points:
        raise ValueError("empty configuration space")
    if max_slowdown < 0:
        raise ValueError(f"max_slowdown must be >= 0, got {max_slowdown}")
    admissible = (
        points
        if power_budget_w is None
        else [p for p in points if p.power_w <= power_budget_w]
    )
    if not admissible:
        return min(points, key=lambda p: (p.power_w, p.duration_s))
    fastest_s = min(p.duration_s for p in admissible)
    budget_s = (1.0 + max_slowdown) * fastest_s
    candidates = [p for p in admissible if p.duration_s <= budget_s]
    return min(candidates, key=lambda p: (p.duration_s * p.power_w, p.duration_s))


def _energy_optimal_index(
    durations: np.ndarray,
    powers: np.ndarray,
    power_budget_w: float | None = None,
    max_slowdown: float = 0.1,
) -> int:
    """Position of :func:`energy_optimal_point`'s pick in a measured scatter.

    The same rules over ``(durations, powers)`` arrays as one masked
    argmin: budget filter, least-power fallback, slowdown window, then the
    least ``(energy, duration)``.  Stable sorts keep the scalar ties: the
    first point in array order wins.
    """
    if not len(powers):
        raise ValueError("empty configuration space")
    admissible = (
        np.ones(len(powers), dtype=bool)
        if power_budget_w is None
        else powers <= power_budget_w
    )
    if not admissible.any():
        return int(np.lexsort((durations, powers))[0])
    budget_s = (1.0 + max_slowdown) * durations[admissible].min()
    candidates = np.flatnonzero(admissible & (durations <= budget_s))
    d, p = durations[candidates], powers[candidates]
    return int(candidates[np.lexsort((d, d * p))[0]])


class ConfigSearchPolicy:
    """Exhaustive per-kernel (freq, threads) search for minimal energy.

    Parameters
    ----------
    power_models:
        One per rank; each rank searches its own socket's space.
    job_cap_w:
        Total job power budget; each rank's search is bounded by an equal
        share, mirroring the uniform-division baseline.  ``None`` runs the
        search fully provisioned (pure energy minimization).
    max_slowdown:
        Allowed relative slowdown over the fastest admissible
        configuration (Silva et al.'s performance constraint).
    """

    def __init__(
        self,
        power_models: list[SocketPowerModel],
        job_cap_w: float | None,
        spec: CpuSpec = XEON_E5_2670,
        max_slowdown: float = 0.1,
    ) -> None:
        if job_cap_w is not None and job_cap_w <= 0:
            raise ValueError(f"job cap must be positive, got {job_cap_w}")
        if max_slowdown < 0:
            raise ValueError(f"max_slowdown must be >= 0, got {max_slowdown}")
        self.power_models = power_models
        self.spec = spec
        self.max_slowdown = max_slowdown
        self.cap_per_socket_w = (
            None if job_cap_w is None else job_cap_w / len(power_models)
        )
        self._memo: dict[tuple[int, TaskKernel], Configuration] = {}

    def _search(self, rank: int, kernel: TaskKernel) -> Configuration:
        key = (rank, kernel)
        chosen = self._memo.get(key)
        if chosen is None:
            space = task_space(kernel, self.power_models[rank])
            best = _energy_optimal_index(
                space.durations, space.powers, self.cap_per_socket_w,
                self.max_slowdown,
            )
            chosen = space.configs[best]
            self._memo[key] = chosen
        return chosen

    def configure(
        self,
        ref: TaskRef,
        kernel: TaskKernel,
        iteration: int,
        current: Configuration | None,
    ) -> Configuration:
        """The kernel's searched optimum (memoized, history-free)."""
        return self._search(ref.rank, kernel)

    def plan_run(self, app: Application, engine: Engine) -> RunPlan:
        """Whole-run plan: the search is history-free, so each rank's
        optimum per distinct kernel is found once and batch-applied.
        Bit-identical to the scalar per-task path."""
        per_rank = []
        for rank, ka in enumerate(rank_kernel_arrays(app)):
            per_rank.append([self._search(rank, kernel) for kernel in ka.kernels])
        return plan_from_configs(app, engine, per_rank)

    def on_pcontrol(self, iteration: int, records: list[TaskRecord]) -> float:
        return 0.0  # the searched configuration is static

    def switch_cost_s(self) -> float:
        return 0.0  # configurations are pinned before the run starts
