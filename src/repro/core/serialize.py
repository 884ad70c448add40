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
from .schedule import PowerSchedule, TaskArrays

__all__ = ["schedule_to_dict", "schedule_from_dict"]

_FORMAT_VERSION = 1


def _point_doc(p: ConfigPoint, fraction: float) -> dict:
    return {
        "freq_ghz": p.config.freq_ghz,
        "threads": p.config.threads,
        "duty": p.config.duty,
        "duration_s": p.duration_s,
        "power_w": p.power_w,
        "fraction": fraction,
    }


def schedule_to_dict(schedule: PowerSchedule) -> dict:
    """A JSON-safe dictionary representation of a schedule."""
    t = schedule.tasks
    ptr = t.mix_ptr.tolist()
    fracs = t.mix_fracs.tolist()
    points = [t.pool[k] for k in t.mix_index.tolist()]
    edge_ids = t.edge_ids.tolist()
    durations = t.durations.tolist()
    powers = t.powers.tolist()
    return {
        "format_version": _FORMAT_VERSION,
        "kind": schedule.kind,
        "cap_w": schedule.cap_w,
        "objective_s": schedule.objective_s,
        "vertex_times": [float(v) for v in schedule.vertex_times],
        "solver_info": {
            k: v for k, v in schedule.solver_info.items()
            if isinstance(v, (str, int, float, bool))
        },
        "assignments": [
            {
                "rank": ref.rank,
                "seq": ref.seq,
                "edge_id": edge_ids[i],
                "duration_s": durations[i],
                "power_w": powers[i],
                "mixture": [
                    _point_doc(p, f)
                    for p, f in zip(
                        points[ptr[i]:ptr[i + 1]], fracs[ptr[i]:ptr[i + 1]]
                    )
                ],
            }
            for i, ref in enumerate(t.refs)
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
    entries = data["assignments"]
    pool: list[ConfigPoint] = []
    fracs: list[float] = []
    ptr = [0]
    for entry in entries:
        for m in entry["mixture"]:
            pool.append(
                ConfigPoint(
                    Configuration(m["freq_ghz"], m["threads"], m["duty"]),
                    m["duration_s"],
                    m["power_w"],
                )
            )
            fracs.append(float(m["fraction"]))
        ptr.append(len(pool))
    tasks = TaskArrays(
        refs=tuple(TaskRef(e["rank"], e["seq"]) for e in entries),
        edge_ids=np.array([e["edge_id"] for e in entries], dtype=np.int64),
        durations=np.array([e["duration_s"] for e in entries], dtype=float),
        powers=np.array([e["power_w"] for e in entries], dtype=float),
        mix_ptr=np.array(ptr, dtype=np.int64),
        mix_index=np.arange(len(pool)),
        mix_fracs=np.array(fracs, dtype=float),
        pool=pool,
    )
    return PowerSchedule(
        kind=data["kind"],
        cap_w=data["cap_w"],
        objective_s=data["objective_s"],
        assignments=None,
        vertex_times=np.asarray(data["vertex_times"], dtype=float),
        solver_info=dict(data.get("solver_info", {})),
        tasks=tasks,
    )
