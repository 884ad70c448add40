"""Sparse LP/MILP assembly and solution on SciPy's HiGHS backend.

A thin, explicit layer between the paper's formulations and
``scipy.optimize.linprog`` / ``scipy.optimize.milp``: named variables with
bounds and optional integrality, two-sided sparse constraints, minimize
objective.  Keeping assembly in COO triplets and converting once keeps the
build linear in the number of nonzeros (the event-power constraints of a
32-rank trace contribute hundreds of thousands of entries).
"""

from __future__ import annotations

import ctypes
import enum
import itertools
import os
import threading
import time
import types
from collections.abc import Iterator
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.optimize as sopt
import scipy.sparse as sp

from ..obs.audit import SolveRecord, current_audit
from ..obs.events import SolveEvent
from ..obs.metrics import ITERATION_BUCKETS, current_metrics
from ..obs.recorder import current_recorder

try:  # SciPy's bundled HiGHS bindings; internal layout varies by version.
    from scipy.optimize._highspy import _core as _hcore
    from scipy.optimize._highspy._core import simplex_constants as _hsimplex
    from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

    _HIGHS_DIRECT = True
except Exception:  # pragma: no cover - exercised only on other scipy builds
    _hcore = _hsimplex = _highs_to_scipy_status_message = None
    _HIGHS_DIRECT = False

__all__ = [
    "LpStatus",
    "LpSolution",
    "LinearProgram",
    "FrozenProgram",
    "InfeasibleError",
]


class LpStatus(enum.Enum):
    """Solver termination states (mapped from HiGHS status codes)."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


class InfeasibleError(RuntimeError):
    """Raised by callers that require a feasible model (e.g. tight caps)."""


@dataclass
class LpSolution:
    """Solver outcome: status, objective, and the primal vector."""

    status: LpStatus
    objective: float
    x: np.ndarray
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status is LpStatus.OPTIMAL


@dataclass
class _Constraint:
    idx: list
    coeff: list
    lb: float
    ub: float
    tag: str = ""

    @property
    def n_rows(self) -> int:
        return 1


@dataclass
class _RowBlock:
    """Many constraint rows appended as one CSR-layout batch.

    Bulk assembly keeps the per-row Python overhead out of model builds:
    row ``i`` of the block spans ``cols[indptr[i]:indptr[i+1]]`` with the
    matching ``vals`` slice, bounded by ``lo[i] <= row <= hi[i]``.  The
    assembled matrix is identical to adding the same rows one by one.
    """

    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    tag: str = ""

    @property
    def n_rows(self) -> int:
        return int(self.lo.shape[0])


class LinearProgram:
    """Incrementally built minimize-c·x linear (or mixed-integer) program."""

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._integrality: list[int] = []
        self._names: dict[str, int] = {}
        self._objective: dict[int, float] = {}
        self._objective_dense: np.ndarray | None = None
        self._rows: list[_Constraint | _RowBlock] = []
        self._n_rows = 0

    # ------------------------------------------------------------------
    @property
    def n_vars(self) -> int:
        return len(self._lb)

    @property
    def n_constraints(self) -> int:
        return self._n_rows

    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = np.inf,
        integer: bool = False,
    ) -> int:
        """Register a variable; returns its column index."""
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r}")
        if lb > ub:
            raise ValueError(f"variable {name}: lb {lb} > ub {ub}")
        idx = len(self._lb)
        self._names[name] = idx
        self._lb.append(lb)
        self._ub.append(ub)
        self._integrality.append(1 if integer else 0)
        return idx

    def add_vars(
        self,
        names: list[str],
        lb: float | np.ndarray = 0.0,
        ub: float | np.ndarray = np.inf,
        integer: bool = False,
    ) -> list[int]:
        """Register many variables at once; returns their column indices.

        ``lb``/``ub`` broadcast against ``names`` — pass arrays for
        per-variable bounds.  Equivalent to calling :meth:`add_var` in a
        loop, without the per-call overhead.
        """
        n = len(names)
        start = len(self._lb)
        lbs = np.broadcast_to(np.asarray(lb, dtype=float), (n,))
        ubs = np.broadcast_to(np.asarray(ub, dtype=float), (n,))
        if np.any(lbs > ubs):
            bad = int(np.flatnonzero(lbs > ubs)[0])
            raise ValueError(
                f"variable {names[bad]}: lb {lbs[bad]} > ub {ubs[bad]}"
            )
        for i, name in enumerate(names):
            if name in self._names:
                raise ValueError(f"duplicate variable name {name!r}")
            self._names[name] = start + i
        self._lb.extend(lbs.tolist())
        self._ub.extend(ubs.tolist())
        self._integrality.extend([1 if integer else 0] * n)
        return list(range(start, start + n))

    def var(self, name: str) -> int:
        return self._names[name]

    def var_bounds(self, idx: int) -> tuple[float, float]:
        """(lower, upper) bounds of a variable by column index."""
        return self._lb[idx], self._ub[idx]

    def add_constraint(
        self,
        terms: dict[int, float],
        lb: float = -np.inf,
        ub: float = np.inf,
        label: str = "",
        tag: str = "",
    ) -> None:
        """Add ``lb <= sum(coeff * x) <= ub`` (duplicate indices accumulate).

        ``tag`` marks rows whose bounds are a *parameter* of the model
        rather than trace structure (e.g. the power-cap RHS); tagged rows
        can be re-bounded between solves via :meth:`FrozenProgram.solve`
        without reassembling the constraint matrix.
        """
        if not terms:
            raise ValueError(f"empty constraint {label!r}")
        if lb > ub:
            raise ValueError(f"constraint {label!r}: lb {lb} > ub {ub}")
        self._rows.append(
            _Constraint(list(terms.keys()), list(terms.values()), lb, ub, tag)
        )
        self._n_rows += 1

    def add_block(
        self,
        indptr: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        lo: float | np.ndarray,
        hi: float | np.ndarray,
        label: str = "",
        tag: str = "",
    ) -> None:
        """Add a batch of rows in CSR layout (bulk assembly).

        Row ``i`` is ``lo[i] <= sum(vals[k] * x[cols[k]]
        for k in indptr[i]:indptr[i+1]) <= hi[i]``; scalar ``lo``/``hi``
        broadcast.  Assembles to exactly the same matrix as the equivalent
        sequence of :meth:`add_constraint` calls.  ``tag`` applies to every
        row of the block (see :meth:`add_constraint`).
        """
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        vals = np.ascontiguousarray(vals, dtype=float)
        n = int(indptr.shape[0]) - 1
        if n < 0 or indptr[0] != 0 or indptr[-1] != cols.shape[0]:
            raise ValueError(f"block {label!r}: malformed indptr")
        if cols.shape != vals.shape:
            raise ValueError(f"block {label!r}: cols/vals length mismatch")
        widths = np.diff(indptr)
        if np.any(widths < 0):
            raise ValueError(f"block {label!r}: indptr must be non-decreasing")
        if np.any(widths == 0):
            raise ValueError(f"empty constraint in block {label!r}")
        lo_arr = np.array(np.broadcast_to(np.asarray(lo, dtype=float), (n,)))
        hi_arr = np.array(np.broadcast_to(np.asarray(hi, dtype=float), (n,)))
        if np.any(lo_arr > hi_arr):
            raise ValueError(f"block {label!r}: lb > ub")
        if n == 0:
            return
        self._rows.append(_RowBlock(indptr, cols, vals, lo_arr, hi_arr, tag))
        self._n_rows += n

    def add_eq(
        self, terms: dict[int, float], rhs: float, label: str = "", tag: str = ""
    ) -> None:
        """Add ``sum(coeff * x) == rhs``."""
        self.add_constraint(terms, lb=rhs, ub=rhs, label=label, tag=tag)

    def add_ge(
        self, terms: dict[int, float], rhs: float, label: str = "", tag: str = ""
    ) -> None:
        """Add ``sum(coeff * x) >= rhs``."""
        self.add_constraint(terms, lb=rhs, label=label, tag=tag)

    def add_le(
        self, terms: dict[int, float], rhs: float, label: str = "", tag: str = ""
    ) -> None:
        """Add ``sum(coeff * x) <= rhs``."""
        self.add_constraint(terms, ub=rhs, label=label, tag=tag)

    def set_objective(self, terms: dict[int, float]) -> None:
        """Minimization objective (replaces any previous one)."""
        self._objective = dict(terms)
        self._objective_dense = None

    def set_objective_dense(self, c: np.ndarray) -> None:
        """Minimization objective as a dense coefficient vector.

        The bulk-assembly twin of :meth:`set_objective`: callers that
        already hold per-column coefficients as an array hand it over
        directly instead of round-tripping through a dict.
        """
        c = np.asarray(c, dtype=float)
        if c.shape != (self.n_vars,):
            raise ValueError(
                f"objective length {c.shape} != n_vars {self.n_vars}"
            )
        self._objective_dense = c.copy()
        self._objective = {}

    # ------------------------------------------------------------------
    def _assemble(self) -> tuple[np.ndarray, sp.csr_matrix, np.ndarray, np.ndarray]:
        if self._objective_dense is not None:
            c = self._objective_dense.copy()
            if c.shape != (self.n_vars,):
                raise ValueError("dense objective set before final variables")
        else:
            c = np.zeros(self.n_vars)
            for idx, coeff in self._objective.items():
                c[idx] += coeff
        row_parts: list[np.ndarray] = []
        col_parts: list[np.ndarray] = []
        val_parts: list[np.ndarray] = []
        lo = np.empty(self.n_constraints)
        hi = np.empty(self.n_constraints)
        r = 0
        for seg in self._rows:
            if isinstance(seg, _RowBlock):
                k = seg.n_rows
                row_parts.append(
                    np.repeat(np.arange(r, r + k), np.diff(seg.indptr))
                )
                col_parts.append(seg.cols)
                val_parts.append(seg.vals)
                lo[r:r + k] = seg.lo
                hi[r:r + k] = seg.hi
                r += k
            else:
                m = len(seg.idx)
                row_parts.append(np.full(m, r, dtype=np.int64))
                col_parts.append(np.asarray(seg.idx, dtype=np.int64))
                val_parts.append(np.asarray(seg.coeff, dtype=float))
                lo[r] = seg.lb
                hi[r] = seg.ub
                r += 1
        if row_parts:
            rows = np.concatenate(row_parts)
            cols = np.concatenate(col_parts)
            vals = np.concatenate(val_parts)
        else:
            rows = cols = np.empty(0, dtype=np.int64)
            vals = np.empty(0)
        a = sp.coo_matrix(
            (vals, (rows, cols)), shape=(self.n_constraints, self.n_vars)
        ).tocsr()
        a.sum_duplicates()
        return c, a, lo, hi

    @property
    def is_mip(self) -> bool:
        return any(self._integrality)

    def freeze(self) -> "FrozenProgram":
        """Assemble once into a re-solvable sparse model.

        The expensive work — COO triplet collection, CSR conversion, the
        one-sided row split ``linprog`` wants — happens here exactly once;
        the returned :class:`FrozenProgram` then solves any number of
        times, optionally overriding the bounds of tagged rows (parametric
        re-solve).
        """
        c, a, lo, hi = self._assemble()
        tag_rows: dict[str, list[int]] = {}
        r = 0
        for seg in self._rows:
            if seg.tag:
                tag_rows.setdefault(seg.tag, []).extend(
                    range(r, r + seg.n_rows)
                )
            r += seg.n_rows
        return FrozenProgram(
            c=c,
            a=a,
            lo=lo,
            hi=hi,
            var_lb=list(self._lb),
            var_ub=list(self._ub),
            integrality=list(self._integrality),
            tag_rows={t: np.asarray(rs) for t, rs in tag_rows.items()},
            name=self.name,
        )

    def solve(self, time_limit_s: float | None = None) -> LpSolution:
        """Solve with HiGHS; dispatches to the MIP solver when needed."""
        return self.freeze().solve(time_limit_s=time_limit_s)


class FrozenProgram:
    """An assembled LP/MILP supporting parametric RHS re-solve.

    Holds the objective, the CSR constraint matrix, variable bounds, and —
    for the pure-LP path — the precomputed one-sided split, so repeated
    solves skip everything but the HiGHS call itself.  Rows tagged at
    :meth:`LinearProgram.add_constraint` time can have their finite bounds
    replaced per solve: a row built as ``... <= cap`` re-solves with a new
    cap by updating one entry of the RHS vector.  The matrix handed to the
    solver is identical to what a from-scratch build at the new parameter
    would produce, so parametric solutions match rebuild solutions exactly.

    When SciPy's bundled HiGHS bindings are importable, LP solves go
    through a persistent per-thread HiGHS handle: a program's model is
    passed once per thread, re-solves update only the rows whose RHS
    moved, and the solver state is cleared before each run so every
    solve starts cold — bit-identical to ``scipy.optimize.linprog`` on
    the same data (the tests assert this) while skipping its per-call
    model rebuild.  On builds where the bindings are unavailable the
    code falls back to ``linprog``/``milp`` transparently.
    A batch of overrides can be solved on several threads at once
    (:meth:`_solving_ahead`); cold solves do not depend on each other,
    so the results are the same bits as one :meth:`solve` after another.
    """

    def __init__(
        self,
        c: np.ndarray,
        a: sp.csr_matrix,
        lo: np.ndarray,
        hi: np.ndarray,
        var_lb: list[float],
        var_ub: list[float],
        integrality: list[int],
        tag_rows: dict[str, np.ndarray],
        name: str = "lp",
    ) -> None:
        self.name = name
        self._c = c
        self._a = a
        self._lo = lo
        self._hi = hi
        self._var_lb = var_lb
        self._var_ub = var_ub
        self._integrality = integrality
        self._tag_rows = tag_rows
        self.n_solves = 0
        self._token = next(_PROGRAM_TOKENS)  # names this program in a _Slot
        # One-sided split for linprog, computed once.  The finiteness
        # pattern is part of the model *structure*: RHS overrides replace
        # finite bounds with finite values, so the split never changes.
        self._ub_rows = np.isfinite(hi)
        self._lb_rows = np.isfinite(lo)
        if self._ub_rows.any() or self._lb_rows.any():
            self._a_ub = sp.vstack(
                [a[self._ub_rows], -a[self._lb_rows]], format="csr"
            )
        else:
            self._a_ub = None

    # ------------------------------------------------------------------
    @property
    def n_vars(self) -> int:
        return len(self._var_lb)

    @property
    def n_constraints(self) -> int:
        return int(self._lo.shape[0])

    @property
    def is_mip(self) -> bool:
        return any(self._integrality)

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(sorted(self._tag_rows))

    def rows_for(self, tag: str) -> np.ndarray:
        """Row indices carrying ``tag`` (empty array for unknown tags)."""
        return self._tag_rows.get(tag, np.empty(0, dtype=int))

    def _check_rhs(self, rhs: dict[str, float] | None) -> None:
        for tag, value in (rhs or {}).items():
            if tag not in self._tag_rows:
                raise KeyError(
                    f"no constraint rows tagged {tag!r} "
                    f"(known tags: {list(self._tag_rows)})"
                )
            if not np.isfinite(value):
                raise ValueError(f"tag {tag!r}: RHS must be finite, got {value}")

    def _bounds_with(self, rhs: dict[str, float] | None) -> tuple[
        np.ndarray, np.ndarray
    ]:
        self._check_rhs(rhs)
        if not rhs:
            return self._lo, self._hi
        lo, hi = self._lo.copy(), self._hi.copy()
        for tag, value in rhs.items():
            rows = self._tag_rows[tag]
            hi[rows[self._ub_rows[rows]]] = value
            lo[rows[self._lb_rows[rows]]] = value
        return lo, hi

    def solve(
        self,
        time_limit_s: float | None = None,
        rhs: dict[str, float] | None = None,
        *,
        ahead: Future | None = None,
    ) -> LpSolution:
        """Solve, optionally re-bounding tagged rows (``{tag: new_rhs}``).

        An override replaces every finite bound of the tagged rows — the
        upper bound of ``<=`` rows, the lower bound of ``>=`` rows, both
        for equalities — leaving the assembled matrix untouched.

        ``ahead`` is this very solve (same ``rhs`` and ``time_limit_s``)
        already handed to helper threads by :meth:`_solving_ahead`: if no
        helper has started it, it is cancelled and solved here; otherwise
        this call waits for the helper's outcome.  Either way it is
        recorded here, on the calling thread.

        Every solve is audited: when a :class:`repro.obs.SolveAudit` is
        active, the model shape, iteration count, status, objective,
        wall time, and provenance (cold first solve vs parametric
        re-solve) are recorded; an active
        :class:`repro.obs.TraceRecorder` additionally gets a solve
        event.  Both are no-ops when disabled.
        """
        if ahead is None or ahead.cancel():
            outcome = self._compute(*self._bounds_with(rhs), time_limit_s)
        else:
            outcome = ahead.result()
        return self._record(*outcome)

    def _record(
        self,
        solution: LpSolution,
        backend: str,
        iterations: int | None,
        wall_s: float,
    ) -> LpSolution:
        """Count, audit, meter and trace one solve; returns ``solution``."""
        self.n_solves += 1
        source = "cold" if self.n_solves == 1 else "resolve"
        metrics = current_metrics()
        if metrics is not None:
            # solve.total is a pure function of the work performed;
            # cold/resolve splits, iteration counts, and wall seconds
            # depend on which worker's warm solver pool a cell landed on,
            # so they are operational (see repro.obs.metrics).
            metrics.inc("solve.total")
            metrics.inc(f"solve.{source}", operational=True)
            if iterations is not None:
                metrics.observe(
                    "solve.iterations", iterations,
                    buckets=ITERATION_BUCKETS, operational=True,
                )
            metrics.observe("solve.wall_s", wall_s, operational=True)
        audit = current_audit()
        if audit is not None:
            audit.record(SolveRecord(
                program=self.name,
                backend=backend,
                source=source,
                rows=self.n_constraints,
                cols=self.n_vars,
                nnz=int(self._a.nnz),
                iterations=iterations,
                status=solution.status.value,
                objective=solution.objective if solution.ok else None,
                wall_s=wall_s,
            ))
        recorder = current_recorder()
        if recorder is not None:
            recorder.emit(SolveEvent(
                program=self.name,
                source=source,
                backend=backend,
                rows=self.n_constraints,
                cols=self.n_vars,
                nnz=int(self._a.nnz),
                status=solution.status.value,
            ))
        return solution

    @contextmanager
    def _solving_ahead(
        self,
        rhs_list: list[dict[str, float] | None],
        time_limit_s: float | None = None,
    ) -> Iterator[list[Future | None]]:
        """One future per override of ``rhs_list``, for :meth:`solve`'s
        ``ahead``; every override is checked before any thread starts.

        ``_width(len(rhs_list)) - 1`` helper threads, started for this
        block and joined when it ends, solve the overrides from the last
        one backwards on their own HiGHS handles, while the caller passes
        each future to :meth:`solve` in list order and so solves, from
        the front, the ones no helper has started.  Every solve is cold,
        so the bits are those of one :meth:`solve` after another.  At
        width 1 there are no helpers and every future is None.
        """
        for rhs in rhs_list:
            self._check_rhs(rhs)
        n_helpers = _width(len(rhs_list)) - 1
        if not n_helpers:
            yield [None] * len(rhs_list)
            return

        def solve_at(rhs):
            return self._compute(*self._bounds_with(rhs), time_limit_s)

        pool = ThreadPoolExecutor(n_helpers, thread_name_prefix="repro-lp")
        try:
            ahead: list[Future | None] = [None] * len(rhs_list)
            for i in reversed(range(len(rhs_list))):
                ahead[i] = pool.submit(solve_at, rhs_list[i])
            yield ahead
        finally:
            # The helpers' threads end here, and with them their handles.
            pool.shutdown(cancel_futures=True)
            if _malloc_trim is not None:
                # The heap pages a helper's handle used stay mapped after
                # it is freed; without handing them back, peak RSS creeps
                # up by a few MB over repeated sweeps.
                _malloc_trim(0)

    def _compute(
        self, lo, hi, time_limit_s
    ) -> tuple[LpSolution, str, int | None, float]:
        """The solver call itself: (solution, backend, iterations, wall s)."""
        t0 = time.perf_counter()
        if self.is_mip:
            outcome = self._solve_milp(lo, hi, time_limit_s)
        else:
            outcome = self._solve_lp(lo, hi, time_limit_s)
        return (*outcome, time.perf_counter() - t0)

    def _solve_lp(self, lo, hi, time_limit_s) -> tuple[LpSolution, str, int | None]:
        if _HIGHS_DIRECT and self._a_ub is not None:
            return self._solve_lp_direct(lo, hi, time_limit_s)
        b_ub = (
            np.concatenate([hi[self._ub_rows], -lo[self._lb_rows]])
            if self._a_ub is not None
            else None
        )
        options = {"presolve": True}
        if time_limit_s is not None:
            options["time_limit"] = time_limit_s
        res = sopt.linprog(
            self._c,
            A_ub=self._a_ub,
            b_ub=b_ub,
            bounds=list(zip(self._var_lb, self._var_ub)),
            method="highs",
            options=options,
        )
        iterations = getattr(res, "nit", None)
        return _wrap_result(res), "linprog", (
            int(iterations) if iterations is not None else None
        )

    def _highs_model(self, b_ub: np.ndarray):
        """This program as a HiGHS model with row upper bounds ``b_ub``.

        Mirrors exactly what ``scipy.optimize.linprog(method="highs")``
        feeds HiGHS for this problem — same column-wise matrix, same
        bounds — so the direct path returns bit-identical solutions.
        Built only when a thread's handle first takes this program; the
        handle keeps its own copy.
        """
        a = sp.csc_matrix(self._a_ub)
        m, n = self._a_ub.shape
        model = _hcore.HighsLp()
        model.num_col_ = n
        model.num_row_ = m
        model.col_cost_ = self._c
        model.col_lower_ = np.asarray(self._var_lb, dtype=float)
        model.col_upper_ = np.asarray(self._var_ub, dtype=float)
        model.row_lower_ = np.full(m, -np.inf)
        model.row_upper_ = b_ub
        model.a_matrix_.num_col_ = n
        model.a_matrix_.num_row_ = m
        model.a_matrix_.format_ = _hcore.MatrixFormat.kColwise
        model.a_matrix_.start_ = a.indptr
        model.a_matrix_.index_ = a.indices
        model.a_matrix_.value_ = a.data
        return model

    def _solve_lp_direct(
        self, lo, hi, time_limit_s
    ) -> tuple[LpSolution, str, int | None]:
        slot = _SLOT
        if slot.highs is None:
            slot.highs = _new_highs()
        highs = slot.highs
        b_ub = np.concatenate([hi[self._ub_rows], -lo[self._lb_rows]])
        limit = float(time_limit_s) if time_limit_s is not None else np.inf
        if limit != slot.time_limit:
            highs.setOptionValue("time_limit", limit)
            slot.time_limit = limit
        if slot.program != self._token:
            # This thread's first solve of this program: hand HiGHS the
            # whole model (dropping the one the handle held).
            slot.program = None
            highs.passModel(self._highs_model(b_ub))
            slot.program = self._token
        else:
            # Re-solve: only parametric RHS entries moved; update those
            # rows in place and drop any solver state so the run starts
            # cold — same model, same start, bit-identical to a fresh
            # passModel at this RHS.
            for row in np.nonzero(b_ub != slot.b_ub)[0]:
                highs.changeRowBounds(int(row), -np.inf, float(b_ub[row]))
            highs.clearSolver()
        slot.b_ub = b_ub
        highs.run()
        model_status = highs.getModelStatus()
        cached = _STATUS_MESSAGES.get(model_status)
        if cached is None:
            cached = _highs_to_scipy_status_message(
                model_status, highs.modelStatusToString(model_status)
            )
            _STATUS_MESSAGES[model_status] = cached
        status, message = cached
        info = highs.getInfo()
        if model_status == _hcore.HighsModelStatus.kOptimal:
            x = np.asarray(highs.getSolution().col_value)
            fun = info.objective_function_value
        else:
            x = fun = None
        solution = _wrap_result(
            types.SimpleNamespace(status=status, x=x, fun=fun, message=message)
        )
        return solution, "highs-direct", int(info.simplex_iteration_count)

    def _solve_milp(
        self, lo, hi, time_limit_s
    ) -> tuple[LpSolution, str, int | None]:
        constraints = sopt.LinearConstraint(self._a, lo, hi)
        bounds = sopt.Bounds(np.array(self._var_lb), np.array(self._var_ub))
        options = {}
        if time_limit_s is not None:
            options["time_limit"] = time_limit_s
        res = sopt.milp(
            self._c,
            constraints=constraints,
            bounds=bounds,
            integrality=np.array(self._integrality),
            options=options,
        )
        iterations = getattr(res, "nit", None)
        return _wrap_result(res), "milp", (
            int(iterations) if iterations is not None else None
        )


#: A fresh token per FrozenProgram, so a _Slot can tell which program its
#: handle holds (an ``id`` may be reused once a program is freed).
_PROGRAM_TOKENS = itertools.count()

#: HighsModelStatus -> scipy's (status code, message).
_STATUS_MESSAGES: dict = {}


def _new_highs():
    """A silent HiGHS handle with ``linprog(method="highs")``'s options
    (dual simplex, presolve on)."""
    highs = _hcore._Highs()
    options = _hcore.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = _hcore.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = _hsimplex.SimplexStrategy.kSimplexStrategyDual
    highs.passOptions(options)
    return highs


class _Slot(threading.local):
    """Per-thread solver state: the thread's HiGHS handle and the program
    and RHS it holds."""

    highs = None
    program: int | None = None  # _token of the program the handle holds
    b_ub: np.ndarray | None = None
    time_limit = np.inf


_SLOT = _Slot()

try:  # glibc's malloc_trim: return freed heap pages to the OS
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):  # pragma: no cover - other libcs
    _malloc_trim = None

#: Most threads one batch of solves runs on, the caller's included.  Each
#: helper holds its own copy of the model while it solves; two is the
#: width whose memory and CPU cost has been measured (docs/performance.md).
_MAX_WIDTH = 2


def _width(n_jobs: int) -> int:
    """Threads to solve ``n_jobs`` independent LPs on, the caller's
    included: one per CPU this process may run on, at most one per job
    and at most ``_MAX_WIDTH``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, _MAX_WIDTH, n_jobs))


def _wrap_result(res) -> LpSolution:
    """Map a scipy OptimizeResult onto :class:`LpSolution`.

    HiGHS status codes: 0 optimal, 1 iteration/time limit, 2 infeasible,
    3 unbounded, 4 numerical trouble — everything that is neither solved
    nor a definite certificate maps to :attr:`LpStatus.ERROR`.
    """
    if res.status == 0:
        status = LpStatus.OPTIMAL
    elif res.status == 2:
        status = LpStatus.INFEASIBLE
    elif res.status == 3:
        status = LpStatus.UNBOUNDED
    else:
        status = LpStatus.ERROR
    x = res.x if res.x is not None else np.array([])
    obj = float(res.fun) if res.fun is not None else float("nan")
    return LpSolution(
        status=status, objective=obj, x=np.asarray(x), message=str(res.message)
    )
