"""Content-addressed on-disk memoization of solver results.

The cache is a directory of JSON files addressed by SHA-256 keys (see
:mod:`repro.exec.keys`): ``<root>/v<schema>/<key[:2]>/<key>.json``.
Writes are atomic (temp file + rename), so concurrent workers can share
one cache directory — at worst two workers compute the same entry and one
rename wins, which is correct either way because entries are pure
functions of their key.

Invalidation is versioned twice over: the *key* version changes whenever
the canonical model documents change (different keys, old entries simply
never hit), and the *schema* version below changes whenever the payload
layout changes (old files are ignored and a fresh subdirectory is used).

Round-trip fidelity: floats are serialized via JSON's shortest-repr and
parsed back exactly, so a cache hit reproduces the solver's
:class:`~repro.core.solver.LpSolution` and schedule bit-for-bit.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from ..core.energy_lp import EnergyLpResult, solve_energy_lp
from ..core.fixed_order_lp import FixedOrderLpResult
from ..core.model import MODEL_LAYER_VERSION
from ..core.serialize import schedule_from_dict, schedule_to_dict
from ..core.solver import LpSolution, LpStatus
from ..obs.metrics import inc as metric_inc
from ..obs.provenance import collect_manifest
from .keys import energy_lp_key

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "SolverCache",
    "solution_to_dict",
    "solution_from_dict",
    "lp_result_payload",
    "lp_result_from_payload",
    "energy_result_payload",
    "energy_result_from_payload",
    "cached_solve_energy_lp",
]

#: Bump when the payload layout changes; old entries are then ignored.
CACHE_SCHEMA_VERSION = 1


@functools.lru_cache(maxsize=1)
def _entry_provenance() -> dict:
    """The manifest stamped into every stored entry (built once).

    Forensics, not keying: readers never look at it, but a cache
    directory inspected later says exactly which code produced each
    entry (see :mod:`repro.obs.provenance`).
    """
    manifest = collect_manifest(
        config={"kind": "solver-cache", "cache_schema": CACHE_SCHEMA_VERSION},
        model_layer_version=MODEL_LAYER_VERSION,
    )
    return manifest.to_dict()


class SolverCache:
    """A content-addressed JSON store with hit/miss/store accounting.

    ``stale_tmp_age_s`` bounds how long an orphaned ``*.tmp`` file — the
    debris of a worker killed between ``mkstemp`` and ``os.replace`` —
    may linger before construction sweeps it.  The age gate keeps a
    freshly constructed cache from deleting a temp file a *live*
    concurrent worker is still writing.
    """

    def __init__(
        self, root: str | Path, stale_tmp_age_s: float = 3600.0
    ) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.tmp_swept = self._sweep_stale_tmp(stale_tmp_age_s)

    def _sweep_stale_tmp(self, age_s: float) -> int:
        """Delete orphaned temp files older than ``age_s``; returns count.

        Without this, every worker death mid-:meth:`put` leaks one temp
        file into a shared cache directory, which then grows unboundedly
        across chaos-prone production sweeps.
        """
        if not self.root.is_dir():
            return 0
        cutoff = time.time() - age_s
        swept = 0
        for tmp in self.root.glob("v*/*/*.tmp"):
            try:
                if tmp.stat().st_mtime <= cutoff:
                    tmp.unlink()
                    swept += 1
            except OSError:
                pass  # another sweeper won the race, or a live writer
        if swept:
            # Sweeping depends on prior crashes and file mtimes, never on
            # the work being computed: operational by definition.
            metric_inc("cache.tmp_swept", swept, operational=True)
        return swept

    def _path(self, key: str) -> Path:
        return self.root / f"v{CACHE_SCHEMA_VERSION}" / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    def get(self, key: str) -> dict | None:
        """The payload stored under ``key``, or None on a miss.

        Unreadable, corrupt, or schema-mismatched files count as misses —
        a damaged cache degrades to recomputation, never to an error.
        """
        path = self._path(key)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            metric_inc("cache.miss")
            return None
        if data.get("schema") != CACHE_SCHEMA_VERSION or data.get("key") != key:
            self.misses += 1
            metric_inc("cache.miss")
            return None
        self.hits += 1
        metric_inc("cache.hit")
        return data["payload"]

    def put(self, key: str, payload: dict) -> None:
        """Atomically store ``payload`` under ``key``."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "payload": payload,
            "provenance": _entry_provenance(),
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1
        metric_inc("cache.store")

    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        """Whether an entry is stored under ``key`` (not read, not counted)."""
        return self._path(key).is_file()

    def __len__(self) -> int:
        base = self.root / f"v{CACHE_SCHEMA_VERSION}"
        if not base.is_dir():
            return 0
        return sum(1 for _ in base.glob("*/*.json"))

    @property
    def hit_rate(self) -> float | None:
        """hits / (hits + misses), or None before any lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else None

    def stats(self) -> dict[str, int | float | None]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": self.hit_rate,
        }


# ----------------------------------------------------------------------
def solution_to_dict(solution: LpSolution) -> dict:
    """JSON-safe representation of an LP solution (exact round trip)."""
    return {
        "status": solution.status.value,
        "objective": solution.objective,
        "x": [float(v) for v in solution.x],
        "message": solution.message,
    }


def solution_from_dict(data: dict) -> LpSolution:
    return LpSolution(
        status=LpStatus(data["status"]),
        objective=float(data["objective"]),
        x=np.asarray(data["x"], dtype=float),
        message=data.get("message", ""),
    )


def lp_result_payload(result: FixedOrderLpResult) -> dict:
    """JSON-safe cache payload for a fixed-order LP result."""
    return {
        "solution": solution_to_dict(result.solution),
        "schedule": (
            schedule_to_dict(result.schedule) if result.schedule is not None else None
        ),
    }


def lp_result_from_payload(payload: dict, events) -> FixedOrderLpResult:
    """Rehydrate a cached fixed-order LP result (exact round trip)."""
    schedule = payload.get("schedule")
    return FixedOrderLpResult(
        schedule=schedule_from_dict(schedule) if schedule is not None else None,
        solution=solution_from_dict(payload["solution"]),
        events=events,
    )


def energy_result_payload(result: EnergyLpResult) -> dict:
    """JSON-safe cache payload for an energy-LP result."""
    return {
        "solution": solution_to_dict(result.solution),
        "schedule": (
            schedule_to_dict(result.schedule) if result.schedule is not None else None
        ),
        "energy_j": result.energy_j,
        "time_budget_s": result.time_budget_s,
    }


def energy_result_from_payload(payload: dict) -> EnergyLpResult:
    """Rehydrate a cached energy-LP result (exact round trip)."""
    schedule = payload.get("schedule")
    energy = payload.get("energy_j")
    return EnergyLpResult(
        schedule=schedule_from_dict(schedule) if schedule is not None else None,
        solution=solution_from_dict(payload["solution"]),
        energy_j=None if energy is None else float(energy),
        time_budget_s=float(payload["time_budget_s"]),
    )


def cached_solve_energy_lp(
    trace,
    slowdown: float = 0.0,
    cache: SolverCache | None = None,
    time_limit_s: float | None = None,
    instance=None,
    cap_w: float | None = None,
    deadline_s: float | None = None,
) -> EnergyLpResult:
    """Memoized :func:`~repro.core.energy_lp.solve_energy_lp`.

    ``cache=None`` is a plain pass-through, ``instance`` only skips the
    IR rebuild on misses, and the key covers everything the answer
    depends on — slowdown, time limit, the optional power cap, and the
    optional deadline anchor.
    """
    if cache is None:
        return solve_energy_lp(
            trace,
            slowdown=slowdown,
            time_limit_s=time_limit_s,
            instance=instance,
            cap_w=cap_w,
            deadline_s=deadline_s,
        )
    key = energy_lp_key(
        trace,
        slowdown=slowdown,
        time_limit_s=time_limit_s,
        cap_w=cap_w,
        deadline_s=deadline_s,
    )
    payload = cache.get(key)
    if payload is not None:
        return energy_result_from_payload(payload)
    result = solve_energy_lp(
        trace,
        slowdown=slowdown,
        time_limit_s=time_limit_s,
        instance=instance,
        cap_w=cap_w,
        deadline_s=deadline_s,
    )
    cache.put(key, energy_result_payload(result))
    return result
