"""Schedule (de)serialization: LP/ILP results as JSON-safe dictionaries.

The solver cache (:mod:`repro.exec.cache`) stores each solved schedule
as the dictionary :func:`schedule_to_dict` returns: the cap, the
objective, the vertex times and the per-task configuration mixtures.
:func:`schedule_from_dict` loads it back into a
:class:`~repro.core.schedule.PowerSchedule` whose ``config_map()`` feeds
the replay policy directly.
"""

from __future__ import annotations

import numpy as np

from ..machine.configuration import ConfigPoint, Configuration
from ..simulator.program import TaskRef
from .schedule import PowerSchedule, TaskAssignment

__all__ = ["schedule_to_dict", "schedule_from_dict"]

_FORMAT_VERSION = 1


def schedule_to_dict(schedule: PowerSchedule) -> dict:
    """A JSON-safe dictionary representation of a schedule."""
    return {
        "format_version": _FORMAT_VERSION,
        "kind": schedule.kind,
        "cap_w": schedule.cap_w,
        "objective_s": schedule.objective_s,
        "vertex_times": [float(t) for t in schedule.vertex_times],
        "solver_info": {
            k: v for k, v in schedule.solver_info.items()
            if isinstance(v, (str, int, float, bool))
        },
        "assignments": [
            {
                "rank": a.ref.rank,
                "seq": a.ref.seq,
                "edge_id": a.edge_id,
                "duration_s": a.duration_s,
                "power_w": a.power_w,
                # Legacy (homogeneous) mixtures omit the device key so the
                # serialized document is byte-identical to format v1 files.
                "mixture": [
                    {
                        "freq_ghz": p.config.freq_ghz,
                        "threads": p.config.threads,
                        "duty": p.config.duty,
                        **({"device": p.config.device} if p.config.device else {}),
                        "duration_s": p.duration_s,
                        "power_w": p.power_w,
                        "fraction": f,
                    }
                    for p, f in a.mixture
                ],
            }
            for a in schedule.assignments.values()
        ],
    }


def schedule_from_dict(data: dict) -> PowerSchedule:
    """Rebuild a schedule from :func:`schedule_to_dict` output."""
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported schedule format version {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    assignments: dict[TaskRef, TaskAssignment] = {}
    for entry in data["assignments"]:
        ref = TaskRef(entry["rank"], entry["seq"])
        mixture = tuple(
            (
                ConfigPoint(
                    Configuration(
                        m["freq_ghz"],
                        m["threads"],
                        m["duty"],
                        m.get("device", ""),
                    ),
                    m["duration_s"],
                    m["power_w"],
                ),
                float(m["fraction"]),
            )
            for m in entry["mixture"]
        )
        assignments[ref] = TaskAssignment(
            ref=ref,
            edge_id=entry["edge_id"],
            mixture=mixture,
            duration_s=entry["duration_s"],
            power_w=entry["power_w"],
        )
    return PowerSchedule(
        kind=data["kind"],
        cap_w=data["cap_w"],
        objective_s=data["objective_s"],
        assignments=assignments,
        vertex_times=np.asarray(data["vertex_times"], dtype=float),
        solver_info=dict(data.get("solver_info", {})),
    )

