"""The shared problem-instance IR all LP/ILP formulations compile from.

The paper's three optimization problems — the fixed-vertex-order LP, the
flow ILP, and the energy-bounding LP — pose different objectives over the
*same* trace-derived structure: vertex-time variables, per-task
configuration simplices over convex frontiers, and precedence rows.
Before this module each formulation re-derived that structure privately
(and ``energy_lp`` reached into ``fixed_order_lp`` for schedule
extraction).  Now a :class:`ProblemInstance` is built **once per trace**
and every formulation compiles its :class:`~.solver.LinearProgram` from
it:

* :func:`build_problem_instance` — trace → IR (event structure, per-task
  frontiers as dense ``(duration, power)`` arrays, vertex anchors);
* :func:`base_model` — the ~80% of rows/columns every formulation shares
  (vertex times, configuration simplex, precedence);
* :func:`extract_schedule` — the public primal-vector → PowerSchedule
  decoder, replacing the former cross-module private import.

``MODEL_LAYER_VERSION`` is part of every solver cache key: bump it when
compilation changes in any way that could alter solutions, and all stale
cached solutions are invalidated automatically.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..dag.graph import VertexKind
from ..machine.configuration import ConfigPoint
from ..machine.cpu import XEON_E5_2670
from ..machine.performance import TaskTimeModel
from ..simulator.trace import Trace
from .events import EventStructure, build_event_structure
from .schedule import PowerSchedule, TaskArrays
from .solver import LinearProgram, LpSolution

__all__ = [
    "MODEL_LAYER_VERSION",
    "CAP_ROW_TAG",
    "TaskFrontier",
    "ProblemInstance",
    "CompiledModel",
    "build_problem_instance",
    "base_model",
    "extract_schedule",
]

#: Version of the model-compilation layer.  Participates in solver cache
#: keys (see :func:`repro.exec.keys.solver_key`): any change to how
#: formulations compile from the IR must bump this so previously cached
#: solutions can never be served against the new model.
#: v3: device-qualified operating points (typed-device nodes, since
#: retired) — frontier documents gained a device column, which stays,
#: always empty, so existing keys keep hitting.
#: v4: the energy LP gained optional event-power cap rows (min-energy
#: subject to deadline *and* cap), so energy-lp cache entries keyed
#: against the capless compilation must never satisfy capped solves.
MODEL_LAYER_VERSION = 4

#: Row tag on constraints whose RHS is the job power cap.  Rows carrying
#: this tag are the only part of the fixed-order model that changes
#: between caps, which is what makes parametric cap sweeps possible.
CAP_ROW_TAG = "cap"


@dataclass(frozen=True)
class TaskFrontier:
    """One task's frontier as parallel point/array views.

    ``points`` preserves the full :class:`ConfigPoint` objects (schedule
    extraction needs the configurations); ``durations``/``powers`` are the
    dense coefficient arrays compilation loops consume.
    """

    edge_id: int
    points: tuple[ConfigPoint, ...]
    durations: np.ndarray
    powers: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ProblemInstance:
    """Everything the formulations need, derived once from a trace.

    Attributes
    ----------
    trace:
        The traced application (kept for TaskRef correspondence and
        fingerprinting; formulations should consume the fields below).
    events:
        Fixed event order + activity sets (also carries the
        power-unconstrained initial schedule in ``events.initial``).
    convex:
        Per-compute-edge convex frontiers — the formulations'
        configuration sets.
    init_id / fin_id:
        Vertex ids of MPI_Init and MPI_Finalize (objective anchors).
    """

    trace: Trace
    events: EventStructure
    convex: dict[int, TaskFrontier]
    init_id: int
    fin_id: int
    version: int = MODEL_LAYER_VERSION

    @property
    def graph(self):
        return self.trace.graph

    def unconstrained_makespan_s(self) -> float:
        """Makespan of the power-unconstrained initial schedule."""
        return float(self.events.initial.makespan)


def _task_frontier(edge_id: int, points: Sequence[ConfigPoint]) -> TaskFrontier:
    if not points:
        raise ValueError(f"task edge {edge_id} has an empty frontier")
    return TaskFrontier(
        edge_id=edge_id,
        points=tuple(points),
        durations=np.array([p.duration_s for p in points]),
        powers=np.array([p.power_w for p in points]),
    )


def _as_frontiers(raw: Mapping[int, Sequence[ConfigPoint]]) -> dict[int, TaskFrontier]:
    """One frontier per edge, converted once per distinct point list: the
    edges of one profile share its list, so they share the tuple and
    arrays too."""
    shared: dict[int, tuple[Sequence[ConfigPoint], TaskFrontier]] = {}
    out: dict[int, TaskFrontier] = {}
    for edge_id, points in raw.items():
        if id(points) not in shared:  # holding the list keeps its id unique
            shared[id(points)] = (points, _task_frontier(edge_id, points))
        f = shared[id(points)][1]
        out[edge_id] = TaskFrontier(edge_id, f.points, f.durations, f.powers)
    return out


def build_problem_instance(
    trace: Trace,
    events: EventStructure | None = None,
    time_model: TaskTimeModel | None = None,
) -> ProblemInstance:
    """Build the shared IR for a traced application.

    ``events`` lets callers that already derived the (trace-only) event
    structure share it; otherwise it is computed from the paper's default
    power-unconstrained initial schedule.
    """
    graph = trace.graph
    if events is None:
        tm = time_model if time_model is not None else TaskTimeModel(XEON_E5_2670)
        events = build_event_structure(graph, tm)
    return ProblemInstance(
        trace=trace,
        events=events,
        convex=_as_frontiers(trace.frontiers),
        init_id=graph.find_vertex(VertexKind.INIT).id,
        fin_id=graph.find_vertex(VertexKind.FINALIZE).id,
    )


@dataclass(frozen=True)
class _ColumnArrays:
    """Variable layout of a compiled model as ready-to-index arrays."""

    vertices: np.ndarray
    tasks: dict[int, np.ndarray]


@dataclass(frozen=True)
class _ExtractLayout:
    """Flattened per-task decode layout (cached; extraction hot path).

    Task ``t`` (``refs[t]`` on edge ``edge_ids[t]``, in trace task order)
    owns the slice ``indptr[t]:indptr[t+1]`` of the concatenated arrays:
    its solution columns, and the frontier points (``pool``) and their
    duration/power coefficients aligned with them.  Lets
    :func:`extract_schedule` decode every task with a handful of
    whole-solution gathers instead of per-task indexing.
    """

    refs: tuple
    edge_ids: np.ndarray
    all_cols: np.ndarray
    indptr: np.ndarray
    durations: np.ndarray
    powers: np.ndarray
    pool: tuple


@dataclass
class CompiledModel:
    """A formulation compiled from the IR, ready to solve and decode.

    Ties the :class:`~.solver.LinearProgram` to the variable layout the
    compilation chose, so :func:`extract_schedule` can decode any solution
    of this model (including parametric re-solves at other caps).
    """

    instance: ProblemInstance
    lp: LinearProgram
    v_idx: list[int]
    c_idx: dict[int, list[int]]
    frontiers: dict[int, TaskFrontier]
    formulation: str
    kind: str = "continuous"
    cap_w: float | None = None
    solver_info: dict = field(default_factory=dict)
    _columns: "_ColumnArrays | None" = field(
        default=None, repr=False, compare=False
    )
    _layout: "_ExtractLayout | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def fin_id(self) -> int:
        return self.instance.fin_id

    def column_arrays(self) -> "_ColumnArrays":
        """The variable layout as index arrays (cached; decode hot path)."""
        if self._columns is None:
            self._columns = _ColumnArrays(
                vertices=np.asarray(self.v_idx),
                tasks={e: np.asarray(c) for e, c in self.c_idx.items()},
            )
        return self._columns

    def extract_layout(self) -> "_ExtractLayout":
        """Flattened task decode layout (cached; see :class:`_ExtractLayout`)."""
        if self._layout is None:
            cols = self.column_arrays()
            task_edges = self.instance.trace.task_edges
            fronts = [self.frontiers[e] for e in task_edges.values()]
            per_task = [cols.tasks[e] for e in task_edges.values()]
            widths = np.array([len(a) for a in per_task], dtype=np.int64)
            # A trace has at least one task per rank, so nothing is empty.
            self._layout = _ExtractLayout(
                refs=tuple(task_edges),
                edge_ids=np.array(list(task_edges.values()), dtype=np.int64),
                all_cols=np.concatenate(per_task),
                indptr=np.concatenate([[0], np.cumsum(widths)]),
                durations=np.concatenate([f.durations for f in fronts]),
                powers=np.concatenate([f.powers for f in fronts]),
                pool=tuple(p for f in fronts for p in f.points),
            )
        return self._layout

    def freeze(self):
        """Assemble once for parametric re-solve (see FrozenProgram)."""
        return self.lp.freeze()


def base_model(
    instance: ProblemInstance,
    name: str,
    edge_order: list[int] | None = None,
) -> tuple[LinearProgram, list[int], dict[int, list[int]]]:
    """Compile the rows/columns every formulation shares.

    * vertex time variables ``v_k`` with Init pinned at 0 (eq. 2);
    * per-task configuration fractions ``c_{ij}`` over the convex
      frontiers, with the simplex row (eqs. 6, 9);
    * precedence rows (eqs. 3-4, 7) for compute and message edges.

    Returns ``(lp, v_idx, c_idx)``; the caller adds its objective and its
    formulation-specific rows on top.

    Whole constraint blocks are appended as CSR batches.  The tests hold
    this build to a row-by-row oracle (``tests/core/lp_oracles.py``): same
    variables, same row order, same assembled matrix.
    """
    graph = instance.graph
    frontiers = instance.convex
    order = list(frontiers) if edge_order is None else edge_order

    lp = LinearProgram(name=name)
    vert_ub = np.full(len(graph.vertices), np.inf)
    for i, vertex in enumerate(graph.vertices):
        if vertex.id == instance.init_id:
            vert_ub[i] = 0.0
    v_idx = lp.add_vars(
        [f"v{v.id}" for v in graph.vertices], lb=0.0, ub=vert_ub
    )

    # Configuration-fraction columns for every task edge, then the one-hot
    # simplex rows as a single block (one row per edge, in ``order``).
    c_idx: dict[int, list[int]] = {}
    for edge_id in order:
        frontier = frontiers[edge_id]
        c_idx[edge_id] = lp.add_vars(
            [f"c{edge_id}_{j}" for j in range(len(frontier))],
            lb=0.0,
            ub=1.0,
        )
    c_arr = {e: np.asarray(cols, dtype=np.int64) for e, cols in c_idx.items()}
    if order:
        widths = np.array([len(frontiers[e]) for e in order], dtype=np.int64)
        onehot_cols = np.concatenate([c_arr[e] for e in order])
        lp.add_block(
            indptr=np.concatenate([[0], np.cumsum(widths)]),
            cols=onehot_cols,
            vals=np.ones(len(onehot_cols)),
            lo=1.0,
            hi=1.0,
            label="onehot",
        )

    # Precedence rows in graph.edges order (compute and message edges
    # interleaved).
    col_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    widths: list[int] = []
    rhs: list[float] = []
    for e in graph.edges:
        if e.is_compute:
            frontier = frontiers[e.id]
            col_parts.append(
                np.array([v_idx[e.dst], v_idx[e.src]], dtype=np.int64)
            )
            col_parts.append(c_arr[e.id])
            val_parts.append(np.array([1.0, -1.0]))
            val_parts.append(-frontier.durations)
            widths.append(2 + len(frontier))
            rhs.append(0.0)
        else:
            col_parts.append(
                np.array([v_idx[e.dst], v_idx[e.src]], dtype=np.int64)
            )
            val_parts.append(np.array([1.0, -1.0]))
            widths.append(2)
            rhs.append(e.duration_s)
    if widths:
        lp.add_block(
            indptr=np.concatenate(
                [[0], np.cumsum(np.asarray(widths, dtype=np.int64))]
            ),
            cols=np.concatenate(col_parts),
            vals=np.concatenate(val_parts),
            lo=np.asarray(rhs),
            hi=np.inf,
            label="prec",
        )
    return lp, v_idx, c_idx


def extract_schedule(
    compiled: CompiledModel,
    solution: LpSolution,
    cap_w: float | None = None,
    kind: str | None = None,
    frac_tol: float = 1e-7,
) -> PowerSchedule:
    """Decode a primal vector into a :class:`PowerSchedule`.

    The public replacement for the formulations' former private
    extraction helpers.  ``cap_w`` defaults to the cap the model was
    compiled at; parametric re-solves pass the cap actually solved.

    The decode gathers every task's fractions from the whole solution at
    once; the tests hold it bit for bit to a per-task oracle
    (``tests/core/lp_oracles.py``).
    """
    if cap_w is None:
        cap_w = compiled.cap_w
    if cap_w is None:
        raise ValueError("extract_schedule needs a cap (model compiled without)")
    x = solution.x
    cols = compiled.column_arrays()
    return PowerSchedule(
        kind=kind if kind is not None else compiled.kind,
        cap_w=float(cap_w),
        objective_s=float(x[compiled.v_idx[compiled.fin_id]]),
        assignments=None,
        vertex_times=x[cols.vertices],
        solver_info={
            "n_vars": compiled.lp.n_vars,
            "n_constraints": compiled.lp.n_constraints,
            "objective_raw": solution.objective,
            **compiled.solver_info,
        },
        tasks=_extract_tasks(compiled, x, frac_tol),
    )


def _extract_tasks(
    compiled: CompiledModel, x: np.ndarray, frac_tol: float
) -> TaskArrays:
    """Vectorized decode: gather/clip/normalize all tasks at once.

    The normalizing denominators are each task's ``.sum()`` of its kept
    fractions, and its duration and power are ``0.0`` plus its weighted
    terms one by one, as a per-task decode adds them.
    ``np.add.reduceat`` gives the same bits for one or two terms (the
    usual mix of two adjacent hull points) but associates three or more
    differently, so those rare tasks are summed one by one.
    """
    lay = compiled.extract_layout()
    fracs = x[lay.all_cols].clip(0.0, 1.0)
    keep = fracs > frac_tol
    starts = lay.indptr[:-1]
    counts = np.add.reduceat(keep.astype(np.int64), starts)
    for t in np.flatnonzero(counts == 0):
        lo, hi = int(lay.indptr[t]), int(lay.indptr[t + 1])
        keep[lo + int(np.argmax(fracs[lo:hi]))] = True
        counts[t] = 1
    kept_idx = np.flatnonzero(keep)
    kept_ptr = np.concatenate([[0], np.cumsum(counts)])
    kept_starts = kept_ptr[:-1]
    long_runs = np.flatnonzero(counts > 2)
    kept_fracs = fracs[kept_idx]
    sums = np.add.reduceat(kept_fracs, kept_starts)
    for t in long_runs:
        sums[t] = kept_fracs[kept_ptr[t]:kept_ptr[t + 1]].sum()
    norm = kept_fracs / np.repeat(sums, counts)
    d_terms = lay.durations[kept_idx] * norm
    p_terms = lay.powers[kept_idx] * norm
    durations = 0.0 + np.add.reduceat(d_terms, kept_starts)
    powers = 0.0 + np.add.reduceat(p_terms, kept_starts)
    for t in long_runs:
        lo, hi = kept_ptr[t], kept_ptr[t + 1]
        durations[t] = _added(d_terms[lo:hi])
        powers[t] = _added(p_terms[lo:hi])
    return TaskArrays(
        refs=lay.refs,
        edge_ids=lay.edge_ids,
        durations=durations,
        powers=powers,
        mix_ptr=kept_ptr,
        mix_index=kept_idx,
        mix_fracs=norm,
        pool=lay.pool,
    )


def _added(terms: np.ndarray) -> float:
    """``0.0`` plus ``terms`` one by one, left to right."""
    total = 0.0
    for v in terms.tolist():
        total += v
    return total
