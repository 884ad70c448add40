"""Content-addressed cache keys: canonical serialization + SHA-256.

A cache key is the SHA-256 digest of a canonical JSON document describing
*everything the solver's answer depends on*: the traced DAG with its
per-task frontiers, the formulation and its parameters, the power cap,
and (where relevant) the machine configuration.  Two runs — in different
processes, on different days — that would pose the same model therefore
hash to the same key, and *any* change to any model input changes it.

Canonical form: JSON with sorted keys, no whitespace, and floats rendered
by Python's shortest-round-trip ``repr`` (via ``json``), which is
deterministic and exact for identical binary values.  Nothing here may
depend on ``PYTHONHASHSEED`` (no iteration over unordered sets/dicts
without sorting).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

from ..core.model import MODEL_LAYER_VERSION
from ..machine.configuration import ConfigPoint
from ..machine.performance import TaskKernel
from ..machine.power import SocketPowerModel
from ..simulator.trace import Trace

__all__ = [
    "KEY_VERSION",
    "canonical_json",
    "digest",
    "trace_fingerprint",
    "machine_fingerprint",
    "solver_key",
    "fixed_order_lp_key",
    "energy_lp_key",
    "scenario_cell_key",
]

#: Bump to invalidate every existing key when the canonical documents or
#: the semantics of a cached payload change.
KEY_VERSION = 1


def canonical_json(doc: Any) -> str:
    """Serialize a document to its canonical (sorted, compact) JSON form."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(doc: Any) -> str:
    """SHA-256 hex digest of a document's canonical JSON form."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
def _kernel_doc(kernel: TaskKernel | None) -> list | None:
    if kernel is None:
        return None
    return [
        kernel.cpu_seconds,
        kernel.mem_seconds,
        kernel.parallel_fraction,
        kernel.mem_parallel_fraction,
        kernel.bw_saturation_threads,
        kernel.contention_threshold,
        kernel.contention_penalty,
        kernel.activity,
        kernel.mem_intensity,
    ]


#: The device column of every fingerprinted point.  Operating points once
#: carried a device id, the empty string naming the one homogeneous
#: socket; the column stays, always empty, so the keys of caches filled
#: before keep hitting.
_SOCKET_DEVICE_ID = ""


def _frontier_doc(points: list[ConfigPoint]) -> list[list]:
    return [
        [
            p.config.freq_ghz,
            p.config.threads,
            p.config.duty,
            _SOCKET_DEVICE_ID,
            p.duration_s,
            p.power_w,
        ]
        for p in points
    ]


def trace_fingerprint(trace: Trace) -> str:
    """Digest of a traced application: DAG structure + task measurements.

    Covers the graph (vertices, edges, message durations, kernels), the
    TaskRef-to-edge correspondence, and both frontier families (convex
    frontiers feed the LP; the full Pareto sets stay in the document so
    that existing keys keep hitting).
    The machine configuration enters implicitly: frontier durations and
    powers are the machine models evaluated on each task's owning socket.
    Hashed on first use and kept on the trace (a trace's data does not
    change once traced), so keying many solves of one trace hashes it
    once.
    """
    fingerprint = trace.__dict__.get("_fingerprint")
    if fingerprint is None:
        fingerprint = trace._fingerprint = digest(_trace_doc(trace))
    return fingerprint


def _trace_doc(trace: Trace) -> dict:
    """The canonical document :func:`trace_fingerprint` hashes."""
    graph = trace.graph
    return {
        "app": trace.app.name,
        "n_ranks": graph.n_ranks,
        "vertices": [[v.id, v.kind.value, v.rank] for v in graph.vertices],
        "edges": [
            [
                e.id,
                e.src,
                e.dst,
                e.kind.value,
                e.rank,
                e.duration_s,
                e.size_bytes,
                _kernel_doc(e.kernel),
            ]
            for e in graph.edges
        ],
        "tasks": sorted(
            [ref.rank, ref.seq, edge_id]
            for ref, edge_id in trace.task_edges.items()
        ),
        "frontiers": [
            [edge_id, _frontier_doc(trace.frontiers[edge_id])]
            for edge_id in sorted(trace.frontiers)
        ],
        "pareto": [
            [edge_id, _frontier_doc(trace.pareto[edge_id])]
            for edge_id in sorted(trace.pareto)
        ],
    }


def machine_fingerprint(power_models: list[SocketPowerModel]) -> str:
    """Digest of a machine: per-socket spec, power params, and efficiency."""
    doc = [
        [
            dataclasses.asdict(pm.spec),
            dataclasses.asdict(pm.params),
            pm.efficiency,
        ]
        for pm in power_models
    ]
    return digest(doc)


# ----------------------------------------------------------------------
def solver_key(
    trace: Trace,
    cap_w: float,
    formulation: str = "fixed_order_lp",
    params: dict[str, Any] | None = None,
) -> str:
    """Cache key for one solver invocation on one traced application.

    The model-layer version is part of the key: cached solutions are
    answers of a *compiled model*, so any change to how formulations
    compile from the :class:`~repro.core.model.ProblemInstance` IR
    (a ``MODEL_LAYER_VERSION`` bump) invalidates them wholesale.
    """
    doc = {
        "key_version": KEY_VERSION,
        "model_layer": MODEL_LAYER_VERSION,
        "formulation": formulation,
        "cap_w": float(cap_w),
        "params": dict(sorted((params or {}).items())),
        "trace": trace_fingerprint(trace),
    }
    return digest(doc)


def fixed_order_lp_key(
    trace: Trace,
    cap_w: float,
    power_tiebreak: float = 1e-9,
    time_limit_s: float | None = None,
) -> str:
    """The canonical fixed-order-LP solver key.

    Shared by every caller that caches fixed-order solutions through
    :class:`~repro.core.sweep.ParametricCapSolver` — one-cap solves,
    sweeps, bisections and scenario cells — so a cap solved by any of
    them is a warm hit for all of them.  ``"discrete": False`` stays in
    the document so that keys written before the discrete variant left
    the product still hit.
    """
    return solver_key(
        trace,
        cap_w,
        formulation="fixed_order_lp",
        params={
            "power_tiebreak": power_tiebreak,
            "time_limit_s": time_limit_s,
            "discrete": False,
        },
    )


def energy_lp_key(
    trace: Trace,
    slowdown: float = 0.0,
    time_limit_s: float | None = None,
    cap_w: float | None = None,
    deadline_s: float | None = None,
) -> str:
    """The canonical energy-LP solver key.

    ``cap_w`` and ``deadline_s`` are ``None`` for the classic
    fully-provisioned formulation; they ride in ``params`` (JSON ``null``
    is canonical) so capless and capped solves of the same trace can
    never collide, while the positional cap slot stays 0.0 for both.
    """
    return solver_key(
        trace,
        0.0,
        formulation="energy_lp",
        params={
            "slowdown": float(slowdown),
            "time_limit_s": time_limit_s,
            "cap_w": None if cap_w is None else float(cap_w),
            "deadline_s": None if deadline_s is None else float(deadline_s),
        },
    )


def scenario_cell_key(
    cell_hash: str, cap_w: float, scenario_layer: int, **extra: Any
) -> str:
    """Cache key for one (scenario spec, cap) cell.

    ``cell_hash`` is the spec's cap-grid-independent digest (see
    ``ScenarioSpec.cell_hash``), so a single-cap run and a wider sweep of
    the same scenario share cells; ``scenario_layer`` versions the cell
    *semantics* (payload layout, measurement protocol), so a layer bump
    turns every stale cell into a miss rather than a mis-read.  The
    scenario layer sits above this module, so the hash and version arrive
    as plain arguments.
    """
    doc = {
        "key_version": KEY_VERSION,
        "model_layer": MODEL_LAYER_VERSION,
        "scenario_layer": int(scenario_layer),
        "kind": "scenario-cell",
        "spec": str(cell_hash),
        "cap_w": float(cap_w),
        "extra": dict(sorted(extra.items())),
    }
    return digest(doc)
