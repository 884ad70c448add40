"""Solver audit ledger: one record per LP/MILP solve.

The LP bound is only as trustworthy as the solves behind it.  The audit
ledger records, for every :class:`~repro.core.solver.FrozenProgram`
solve, the model shape (rows, columns, nonzeros), the simplex iteration
count, termination status, objective, wall time, and *provenance* — a
cold first solve versus a parametric RHS re-solve versus a
content-addressed cache hit that skipped the solver entirely.  Cache
traffic itself is counted once, by the ``cache.hit`` / ``cache.miss``
metrics counters; :meth:`SolveAudit.table` and the ``--timings-json``
view (:func:`repro.obs.metrics.timings_doc`) read it from there.

A :class:`SolveRecord` is the one per-solve fact: the ledger stores it,
and the trace's :class:`~repro.obs.events.SolveEvent` is a view of it.
Instrumented code calls :func:`record_solve`, a no-op unless a
:class:`SolveAudit` is active in the current context via
:func:`use_audit`.  Parallel workers activate fresh ledgers and ship
:meth:`SolveAudit.to_dicts` back; the parent folds them in submission
order with :meth:`SolveAudit.extend` (see :class:`repro.obs.sinks.Sinks`).

Stdlib-only: ``repro.core.solver`` imports this module, so it must not
import anything from ``repro`` or third-party packages.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

__all__ = [
    "SolveRecord",
    "SolveAudit",
    "current_audit",
    "use_audit",
    "record_solve",
]


@dataclass(frozen=True)
class SolveRecord:
    """Everything worth knowing about one solver invocation."""

    program: str
    backend: str  # "highs-direct" | "linprog" | "milp"
    source: str  # "cold" | "resolve"
    rows: int
    cols: int
    nnz: int
    iterations: int | None
    status: str
    objective: float | None
    wall_s: float

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "backend": self.backend,
            "source": self.source,
            "rows": self.rows,
            "cols": self.cols,
            "nnz": self.nnz,
            "iterations": self.iterations,
            "status": self.status,
            "objective": self.objective,
            "wall_s": self.wall_s,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SolveRecord":
        return cls(
            program=str(doc["program"]),
            backend=str(doc["backend"]),
            source=str(doc["source"]),
            rows=int(doc["rows"]),
            cols=int(doc["cols"]),
            nnz=int(doc["nnz"]),
            iterations=(
                int(doc["iterations"]) if doc.get("iterations") is not None else None
            ),
            status=str(doc["status"]),
            objective=(
                float(doc["objective"]) if doc.get("objective") is not None else None
            ),
            wall_s=float(doc["wall_s"]),
        )


class SolveAudit:
    """Ordered ledger of solve records."""

    def __init__(self) -> None:
        self.records: list[SolveRecord] = []

    # ------------------------------------------------------------------
    def record(self, record: SolveRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def total_wall_s(self) -> float:
        return sum(r.wall_s for r in self.records)

    # ------------------------------------------------------------------
    def to_dicts(self) -> dict:
        """JSON-safe snapshot (embedded in ``--timings-json`` payloads)."""
        return {"solves": [r.to_dict() for r in self.records]}

    def extend(self, snapshot: dict) -> None:
        """Fold a :meth:`to_dicts` snapshot (e.g. from a worker) in."""
        for doc in snapshot.get("solves", []):
            self.records.append(SolveRecord.from_dict(doc))

    def table(self, counters: dict | None = None) -> str:
        """Human-readable audit table (the ``repro-exp audit`` output).

        ``counters`` — a metrics snapshot's counters — adds the run's
        ``cache.hit`` / ``cache.miss`` traffic as the last line.
        """
        lines = ["solver audit", "------------"]
        if not self.records:
            lines.append("(no solves recorded)")
        else:
            header = (
                f"{'program':<28} {'src':<7} {'backend':<12} "
                f"{'rows':>7} {'cols':>7} {'nnz':>9} {'iters':>6} "
                f"{'status':<10} {'objective':>12} {'wall':>9}"
            )
            lines.append(header)
            for r in self.records:
                iters = "-" if r.iterations is None else str(r.iterations)
                obj = "-" if r.objective is None else f"{r.objective:.6g}"
                lines.append(
                    f"{r.program:<28.28} {r.source:<7} {r.backend:<12} "
                    f"{r.rows:>7} {r.cols:>7} {r.nnz:>9} {iters:>6} "
                    f"{r.status:<10} {obj:>12} {r.wall_s:>8.3f}s"
                )
            lines.append(
                f"{len(self.records)} solve(s), "
                f"{self.total_wall_s():.3f}s in the solver"
            )
        if counters is not None:
            lines.append(
                f"cache: {counters.get('cache.hit', 0)} hit(s), "
                f"{counters.get('cache.miss', 0)} miss(es)"
            )
        return "\n".join(lines)


#: The active audit ledger (None = auditing disabled).
_current: ContextVar[SolveAudit | None] = ContextVar(
    "repro_solve_audit", default=None
)


def current_audit() -> SolveAudit | None:
    """The ledger active in this context, or None when auditing is off."""
    return _current.get()


@contextmanager
def use_audit(audit: SolveAudit):
    """Activate ``audit`` for the duration of the with-block."""
    token = _current.set(audit)
    try:
        yield audit
    finally:
        _current.reset(token)


def record_solve(record: SolveRecord) -> None:
    """Append to the active ledger (no-op when auditing is disabled)."""
    audit = _current.get()
    if audit is not None:
        audit.record(record)
