"""Measurement-based tracing: build frontiers from executed runs.

:func:`repro.simulator.trace.trace_application` profiles tasks by
evaluating the machine model directly — the oracle path.  Real systems
(and the paper) must *measure*: run the application some number of times
with deliberately varied configurations and assemble each task's
power/time profile from the observations.  This module implements that
path against the simulator:

* a :class:`RotatingExplorationPolicy` assigns every task a different
  configuration each round (round-robin over the admissible space, offset
  per task so a rank's tasks don't all sample the same point);
* :func:`trace_from_exploration` executes ``rounds`` runs, collects the
  per-task :class:`TaskRecord` observations, reduces them to Pareto and
  convex frontiers, and returns a :class:`Trace` interchangeable with the
  oracle one.

With few rounds the frontiers are sparse and the LP bound is pessimistic;
as rounds grow the measured bound converges to the oracle bound — the
"bound quality vs profiling effort" trade-off quantified in
``benchmarks/test_bench_exploration.py``.
"""

from __future__ import annotations

from ..machine.configuration import ConfigPoint, Configuration, enumerate_configurations
from ..machine.cpu import CpuSpec, XEON_E5_2670
from ..machine.frontiers import FrontierStore
from ..machine.performance import TaskKernel
from ..machine.power import SocketPowerModel
from .engine import Engine, TaskRecord
from .network import IB_QDR, NetworkModel
from .program import Application, TaskRef
from .trace import Trace, build_dag

__all__ = ["RotatingExplorationPolicy", "trace_from_exploration"]


class RotatingExplorationPolicy:
    """Assign each task a distinct configuration per round.

    The configuration index for task (rank, seq) in round r is
    ``(seq * stride + rank + r) mod n_configs`` — tasks cover the space in
    interleaved arithmetic progressions, so ``rounds ~= n_configs`` visits
    every configuration for every task exactly once.
    """

    def __init__(self, round_index: int, spec: CpuSpec = XEON_E5_2670,
                 stride: int = 7) -> None:
        if round_index < 0:
            raise ValueError("round_index must be >= 0")
        self.round_index = round_index
        self.configs = enumerate_configurations(spec)
        self.stride = stride

    def configure(
        self,
        ref: TaskRef,
        kernel: TaskKernel,
        iteration: int,
        current: Configuration | None,
    ) -> Configuration:
        """This round's sample point for the task (round-robin)."""
        idx = (
            ref.seq * self.stride + ref.rank + self.round_index
        ) % len(self.configs)
        return self.configs[idx]

    def on_pcontrol(self, iteration: int, records: list[TaskRecord]) -> float:
        return 0.0

    def switch_cost_s(self) -> float:
        return 0.0  # exploration timing is discarded; only profiles matter


def trace_from_exploration(
    app: Application,
    power_models: list[SocketPowerModel],
    rounds: int,
    network: NetworkModel = IB_QDR,
    spec: CpuSpec = XEON_E5_2670,
) -> Trace:
    """Trace an application from ``rounds`` heterogeneous executions.

    Each round executes the whole application once under a
    :class:`RotatingExplorationPolicy`; every task contributes one
    (configuration, duration, power) observation per round.  Frontiers are
    built per task from its own observations only — no model evaluation,
    no cross-task sharing — so this is the "pure measurement" worst case
    (the paper additionally shares profiles across ranks at Pcontrol,
    which converges faster).
    """
    if rounds < 1:
        raise ValueError("need at least one exploration round")
    if len(power_models) != app.n_ranks:
        raise ValueError(
            f"need {app.n_ranks} power models, got {len(power_models)}"
        )
    graph, task_edges = build_dag(app, network)
    engine = Engine(power_models, network=network)

    observations: dict[TaskRef, dict[Configuration, ConfigPoint]] = {
        ref: {} for ref in task_edges
    }
    for r in range(rounds):
        result = engine.run(app, RotatingExplorationPolicy(r, spec))
        for rec in result.records:
            observations[rec.ref][rec.config] = ConfigPoint(
                config=rec.config,
                duration_s=rec.duration_s,
                power_w=rec.power_w,
            )

    pareto: dict[int, list[ConfigPoint]] = {}
    frontiers: dict[int, list[ConfigPoint]] = {}
    for ref, edge_id in task_edges.items():
        points = list(observations[ref].values())
        if not points:
            raise RuntimeError(f"task {ref} was never observed")
        pareto[edge_id], frontiers[edge_id] = FrontierStore.reduce(points)

    edge_refs = {eid: ref for ref, eid in task_edges.items()}
    return Trace(
        app=app,
        graph=graph,
        task_edges=task_edges,
        edge_refs=edge_refs,
        pareto=pareto,
        frontiers=frontiers,
    )
