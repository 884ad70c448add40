"""SolveAudit ledger: recording, merging, the table, solver integration."""

from __future__ import annotations

import pytest

from repro.core.solver import LinearProgram
from repro.obs.audit import (
    SolveAudit,
    SolveRecord,
    current_audit,
    record_solve,
    use_audit,
)
from repro.obs.recorder import TraceRecorder, use_recorder


def _record(program: str = "lp", source: str = "cold") -> SolveRecord:
    return SolveRecord(
        program=program, backend="highs-direct", source=source,
        rows=10, cols=20, nnz=40, iterations=7, status="optimal",
        objective=1.25, wall_s=0.004,
    )


class TestLedger:
    def test_record_and_totals(self):
        audit = SolveAudit()
        audit.record(_record())
        audit.record(_record(source="resolve"))
        assert len(audit) == 2
        assert audit.total_wall_s() == pytest.approx(0.008)

    def test_snapshot_roundtrip(self):
        audit = SolveAudit()
        audit.record(_record())
        audit.record(_record(source="resolve"))
        other = SolveAudit()
        other.extend(audit.to_dicts())
        assert other.records == audit.records

    def test_record_none_fields_survive_roundtrip(self):
        record = SolveRecord(
            program="milp", backend="milp", source="cold", rows=1, cols=1,
            nnz=1, iterations=None, status="infeasible", objective=None,
            wall_s=0.001,
        )
        assert SolveRecord.from_dict(record.to_dict()) == record

    def test_table_lists_solves_and_cache(self):
        audit = SolveAudit()
        audit.record(_record(program="fixed-order-comd"))
        # Cache traffic is read from the metrics counters, not tallied
        # on the ledger.
        table = audit.table({"cache.hit": 1})
        assert "solver audit" in table
        assert "fixed-order-comd" in table
        assert "cache: 1 hit(s), 0 miss(es)" in table
        assert "cache:" not in audit.table()

    def test_empty_table(self):
        assert "(no solves recorded)" in SolveAudit().table()


class TestActivation:
    def test_helpers_are_noops_when_disabled(self):
        assert current_audit() is None
        record_solve(_record())

    def test_helpers_target_active_audit(self):
        audit = SolveAudit()
        with use_audit(audit):
            record_solve(_record())
        assert len(audit) == 1 and current_audit() is None


def _toy_program() -> LinearProgram:
    lp = LinearProgram(name="toy")
    x = lp.add_var("x")
    y = lp.add_var("y")
    lp.add_ge({x: 1.0, y: 1.0}, 1.0, tag="budget")
    lp.set_objective({x: 2.0, y: 3.0})
    return lp


class TestSolverIntegration:
    def test_every_solve_is_audited(self):
        frozen = _toy_program().freeze()
        audit = SolveAudit()
        with use_audit(audit):
            assert frozen.solve().ok
            assert frozen.solve().ok
        assert [r.source for r in audit.records] == ["cold", "resolve"]
        record = audit.records[0]
        assert record.program == "toy"
        assert (record.rows, record.cols) == (1, 2)
        assert record.status == "optimal"
        assert record.objective == pytest.approx(2.0)
        assert record.wall_s >= 0.0

    def test_solve_events_reach_the_recorder(self):
        frozen = _toy_program().freeze()
        rec = TraceRecorder()
        with use_recorder(rec):
            frozen.solve()
        docs = [d for d in rec.snapshot() if d["kind"] == "solve"]
        assert len(docs) == 1
        assert docs[0]["name"] == "solve:toy"
        assert docs[0]["args"]["source"] == "cold"

    def test_solve_event_is_a_view_of_the_audit_record(self):
        frozen = _toy_program().freeze()
        audit, rec = SolveAudit(), TraceRecorder()
        with use_audit(audit), use_recorder(rec):
            frozen.solve()
        (record,) = audit.records
        (doc,) = [d for d in rec.snapshot() if d["kind"] == "solve"]
        assert doc["name"] == f"solve:{record.program}"
        assert doc["args"] == {
            "source": record.source, "backend": record.backend,
            "rows": record.rows, "cols": record.cols, "nnz": record.nnz,
            "status": record.status,
        }

    def test_unaudited_solve_is_silent(self):
        frozen = _toy_program().freeze()
        assert frozen.solve().ok  # no audit, no recorder: nothing to trip on
