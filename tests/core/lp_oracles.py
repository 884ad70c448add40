"""Row-by-row LP assembly and per-task decode oracles.

The product compiles the fixed-order model with bulk CSR blocks
(:func:`repro.core.model.base_model`,
:func:`repro.core.fixed_order_lp.compile_fixed_order`) and decodes a
primal vector with whole-solution gathers
(:func:`repro.core.model.extract_schedule`).  This module keeps the
original build and decode they replaced, one row and one task at a time,
so the tests can assert that both produce the same model and the same
schedule:

* :func:`base_model_reference` — shared vertex/fraction columns, simplex
  rows and precedence rows;
* :func:`compile_fixed_order_reference` — plus the event-power, tie and
  order rows and the objective;
* :func:`extract_assignments_reference` and
  :func:`solve_fixed_order_lp_reference` — the per-task decode and the
  whole reference solve path: a model rebuilt and solved at one cap,
  the twin of the product's parametric re-solve.

The paper's discrete variant (eq. 5: each task runs one configuration
for its whole duration) lives here too, as an exact reference for the
rounding heuristic: ``discrete=True`` compiles the model over the full
Pareto sets (:func:`frontier_family`) with binary fraction columns and
solves it as a MILP, on at most :data:`MAX_DISCRETE_TASKS` tasks.
"""

from __future__ import annotations

import numpy as np

from repro.core.fixed_order_lp import FixedOrderLpResult
from repro.core.model import (
    CAP_ROW_TAG,
    CompiledModel,
    ProblemInstance,
    TaskFrontier,
    _as_frontiers,
    build_problem_instance,
)
from repro.core.schedule import PowerSchedule, TaskAssignment
from repro.core.solver import LinearProgram, LpStatus
from repro.simulator import TaskRef, Trace

__all__ = [
    "MAX_DISCRETE_TASKS",
    "frontier_family",
    "base_model_reference",
    "compile_fixed_order_reference",
    "extract_assignments_reference",
    "solve_fixed_order_lp_reference",
]


#: Discrete (binary-configuration) instances beyond this many tasks are
#: rejected — "a significantly less efficient solution method, which
#: prohibits us from solving realistic problems" (paper §3.2).
MAX_DISCRETE_TASKS = 64


def frontier_family(
    instance: ProblemInstance, discrete: bool = False
) -> dict[int, TaskFrontier]:
    """The frontier set a formulation compiles against: the convex
    frontiers, or for the discrete variant the full Pareto sets (paper
    §3.2: a task that runs one configuration outright can use any
    Pareto-efficient point, not only the hull's)."""
    return _as_frontiers(instance.trace.pareto) if discrete else instance.convex


def base_model_reference(
    instance: ProblemInstance,
    name: str,
    frontiers: dict[int, TaskFrontier] | None = None,
    edge_order: list[int] | None = None,
    integer: bool = False,
) -> tuple[LinearProgram, list[int], dict[int, list[int]]]:
    """Row-by-row twin of :func:`repro.core.model.base_model`."""
    graph = instance.graph
    if frontiers is None:
        frontiers = instance.convex
    order = list(frontiers) if edge_order is None else edge_order
    lp = LinearProgram(name=name)

    v_idx: list[int] = []
    for vertex in graph.vertices:
        ub = 0.0 if vertex.id == instance.init_id else np.inf
        v_idx.append(lp.add_var(f"v{vertex.id}", lb=0.0, ub=ub))

    c_idx: dict[int, list[int]] = {}
    for edge_id in order:
        frontier = frontiers[edge_id]
        cols = [
            lp.add_var(f"c{edge_id}_{j}", lb=0.0, ub=1.0, integer=integer)
            for j in range(len(frontier))
        ]
        c_idx[edge_id] = cols
        lp.add_eq({col: 1.0 for col in cols}, 1.0, label=f"onehot{edge_id}")

    for e in graph.edges:
        if e.is_compute:
            terms = {v_idx[e.dst]: 1.0, v_idx[e.src]: -1.0}
            for col, duration in zip(c_idx[e.id], frontiers[e.id].durations):
                terms[col] = terms.get(col, 0.0) - duration
            lp.add_ge(terms, 0.0, label=f"prec-task{e.id}")
        else:
            lp.add_ge(
                {v_idx[e.dst]: 1.0, v_idx[e.src]: -1.0},
                e.duration_s,
                label=f"prec-msg{e.id}",
            )
    return lp, v_idx, c_idx


def compile_fixed_order_reference(
    instance: ProblemInstance,
    cap_w: float,
    power_tiebreak: float = 1e-9,
    discrete: bool = False,
) -> CompiledModel:
    """Row-by-row twin of :func:`repro.core.compile_fixed_order`;
    ``discrete=True`` builds the eq. 5 MILP instead."""
    frontiers = frontier_family(instance, discrete)
    lp, v_idx, c_idx = base_model_reference(
        instance,
        name=f"fixed-order-{instance.trace.app.name}",
        frontiers=frontiers,
        integer=discrete,
    )
    events = instance.events

    # Event power: one row per distinct, non-empty activity set, in the
    # order the event groups first reach it.
    seen_sets: set[frozenset[int]] = set()
    for group in events.groups:
        act = frozenset(events.active[group[0]])
        if not act or act in seen_sets:
            continue
        seen_sets.add(act)
        terms: dict[int, float] = {}
        for edge_id in act:
            for col, power in zip(c_idx[edge_id], frontiers[edge_id].powers):
                terms[col] = terms.get(col, 0.0) + power
        lp.add_le(terms, cap_w, label="power", tag=CAP_ROW_TAG)

    # Event order: ties within a group, then order between groups.
    for group in events.groups:
        rep = group[0]
        for other in group[1:]:
            lp.add_eq(
                {v_idx[other]: 1.0, v_idx[rep]: -1.0}, 0.0, label=f"tie{other}"
            )
    for prev, nxt in zip(events.groups, events.groups[1:]):
        lp.add_ge(
            {v_idx[nxt[0]]: 1.0, v_idx[prev[0]]: -1.0},
            0.0,
            label=f"order{prev[0]}-{nxt[0]}",
        )

    objective: dict[int, float] = {v_idx[instance.fin_id]: 1.0}
    if power_tiebreak > 0:
        for edge_id, cols in c_idx.items():
            for col, power in zip(cols, frontiers[edge_id].powers):
                objective[col] = objective.get(col, 0.0) + power_tiebreak * power
    lp.set_objective(objective)

    return CompiledModel(
        instance=instance,
        lp=lp,
        v_idx=v_idx,
        c_idx=c_idx,
        frontiers=frontiers,
        formulation="fixed-order",
        kind="discrete" if discrete else "continuous",
        cap_w=float(cap_w),
    )


def extract_assignments_reference(
    compiled: CompiledModel, x: np.ndarray, frac_tol: float = 1e-7
) -> dict[TaskRef, TaskAssignment]:
    """Per-task twin of the vectorized decode in ``extract_schedule``."""
    cols = compiled.column_arrays()
    assignments: dict[TaskRef, TaskAssignment] = {}
    for ref, edge_id in compiled.instance.trace.task_edges.items():
        frontier = compiled.frontiers[edge_id]
        fracs = x[cols.tasks[edge_id]].clip(0.0, 1.0)
        keep = fracs > frac_tol
        if not keep.any():
            keep[int(np.argmax(fracs))] = True
        kept = np.flatnonzero(keep)
        kept_fracs = fracs[kept]
        kept_fracs = kept_fracs / kept_fracs.sum()
        duration = power = 0.0
        for j, f in zip(kept, kept_fracs):
            duration += frontier.durations[j] * f
            power += frontier.powers[j] * f
        assignments[ref] = TaskAssignment(
            ref=ref,
            edge_id=edge_id,
            mixture=tuple(
                (frontier.points[j], float(f)) for j, f in zip(kept, kept_fracs)
            ),
            duration_s=float(duration),
            power_w=float(power),
        )
    return assignments


def solve_fixed_order_lp_reference(
    trace: Trace,
    cap_w: float,
    power_tiebreak: float = 1e-9,
    discrete: bool = False,
) -> FixedOrderLpResult:
    """Rebuild, solve and decode one cap with both oracles.

    The twin of ``solve_fixed_order_lp(trace, cap_w)``: a fresh problem
    instance, the row-by-row model and the per-task decode.
    ``discrete=True`` solves the eq. 5 MILP, and raises ``ValueError``
    for a trace of more than :data:`MAX_DISCRETE_TASKS` tasks.
    """
    if discrete and len(trace.task_edges) > MAX_DISCRETE_TASKS:
        raise ValueError(
            f"discrete formulation limited to {MAX_DISCRETE_TASKS} tasks "
            f"(got {len(trace.task_edges)}); solve continuously and round"
        )
    instance = build_problem_instance(trace)
    compiled = compile_fixed_order_reference(
        instance, cap_w, power_tiebreak=power_tiebreak, discrete=discrete
    )
    solution = compiled.lp.solve()
    if solution.status is not LpStatus.OPTIMAL:
        return FixedOrderLpResult(
            schedule=None, solution=solution, events=instance.events
        )
    x = solution.x
    schedule = PowerSchedule(
        kind=compiled.kind,
        cap_w=float(cap_w),
        objective_s=float(x[compiled.v_idx[compiled.fin_id]]),
        assignments=extract_assignments_reference(compiled, x),
        vertex_times=x[compiled.column_arrays().vertices],
        solver_info={
            "n_vars": compiled.lp.n_vars,
            "n_constraints": compiled.lp.n_constraints,
            "objective_raw": solution.objective,
            **compiled.solver_info,
        },
    )
    return FixedOrderLpResult(
        schedule=schedule, solution=solution, events=instance.events
    )
