"""Declarative scenario specifications: experiments as data.

A :class:`ScenarioSpec` describes one complete N-way evaluation — a
benchmark, a grid of per-socket power caps, and an arbitrary ordered list
of policies drawn from the :mod:`repro.scenarios.registry` — plus every
knob of the measurement protocol (iteration counts, discard/steady
windows, seeds).  The spec has a canonical JSON form, so the *same*
document drives the executor, the CLI (``--scenario FILE.json``), cell
cache keys, and the run manifest: what was evaluated is always recorded,
hashable, and replayable.

Two hashes matter:

* :meth:`ScenarioSpec.spec_hash` digests the full document (including
  the cap grid) — the identity stamped into manifests and payload guards;
* :meth:`ScenarioSpec.cell_hash` digests the document *minus* the cap
  grid — the namespace of per-(spec, cap) cache cells, so extending a
  sweep by one cap leaves every previously computed cell warm.

The canonical form follows :mod:`repro.exec.keys`: sorted keys, compact
separators, shortest-round-trip floats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from ..exec.keys import canonical_json, digest
from ..simulator.program import Application
from ..workloads import BENCHMARKS, WorkloadSpec
from ..workloads.synthetic import imbalanced_collective_app

__all__ = [
    "SCENARIO_LAYER_VERSION",
    "SCENARIO_BENCHMARKS",
    "make_synthetic",
    "PolicySpec",
    "ScenarioSpec",
]

#: Bump whenever the scenario cell semantics or payload layout change;
#: every existing scenario cache cell then misses (never mis-maps).
#: v2: scenarios gained a ``node`` field (typed-device nodes, since
#: retired; documents never wrote it for the homogeneous socket, so
#: retiring it moved no hash).
#: v3: cell outcomes carry per-iteration ``energy_j`` (energy-objective
#: policies and performance-per-watt frontiers).
SCENARIO_LAYER_VERSION = 3


def make_synthetic(spec: WorkloadSpec) -> Application:
    """The imbalanced-collective synthetic as a standard benchmark generator.

    Small enough for N-way smoke runs (a few compute tasks per rank per
    iteration) while still exhibiting the load imbalance that separates
    reallocating policies from uniform ones.
    """
    return imbalanced_collective_app(
        n_ranks=spec.n_ranks, iterations=spec.iterations, seed=spec.seed
    )


#: Benchmarks addressable from a scenario: the paper's four evaluated
#: proxies plus the synthetic smoke workload.
SCENARIO_BENCHMARKS = {**BENCHMARKS, "synthetic": make_synthetic}


@dataclass(frozen=True)
class PolicySpec:
    """One policy instance inside a scenario.

    ``policy`` is a registry name (see :func:`~repro.scenarios.registry.
    default_registry`); ``name`` labels this instance in results, trace
    scopes, and cache payloads (defaults to the policy name, and must be
    unique within a scenario — two Conductor variants in one scenario
    need distinct names); ``config`` overrides the registry entry's
    default configuration and must be JSON-serializable.
    """

    policy: str
    name: str | None = None
    config: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.policy or not isinstance(self.policy, str):
            raise ValueError(f"policy must be a non-empty string, got {self.policy!r}")
        if self.name is not None and not self.name:
            raise ValueError("policy instance name must be non-empty when given")
        if self.name == self.policy:
            # Canonical form: an explicit name equal to the policy name is
            # the default — normalizing makes doc round-trips exact.
            object.__setattr__(self, "name", None)

    @property
    def label(self) -> str:
        """The instance label: explicit ``name``, or the policy name."""
        return self.name if self.name is not None else self.policy

    def to_doc(self) -> dict:
        """Canonical JSON-safe document of this policy instance."""
        return {"policy": self.policy, "name": self.label, "config": dict(self.config)}

    @classmethod
    def from_doc(cls, doc: dict) -> "PolicySpec":
        """Rebuild a policy instance from :meth:`to_doc` output."""
        return cls(
            policy=str(doc["policy"]),
            name=doc.get("name"),
            config=dict(doc.get("config") or {}),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative experiment: benchmark x caps x policies.

    The measurement protocol mirrors the paper's (§5.3/§6) and the legacy
    ``ExperimentConfig``: adaptive policies are measured over the trailing
    ``steady_window`` iterations, non-adaptive ones after the first
    ``discard_iterations``, and LP-family bounds schedule a statistically
    identical ``lp_iterations``-step trace.
    """

    benchmark: str
    caps_per_socket_w: tuple[float, ...]
    policies: tuple[PolicySpec, ...]
    n_ranks: int = 32
    run_iterations: int = 24
    lp_iterations: int = 4
    discard_iterations: int = 3
    steady_window: int = 12
    seed: int = 2015
    efficiency_seed: int = 42
    efficiency_sigma: float = 0.04

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "caps_per_socket_w",
            tuple(float(c) for c in self.caps_per_socket_w),
        )
        object.__setattr__(self, "policies", tuple(self.policies))
        if self.benchmark not in SCENARIO_BENCHMARKS:
            raise ValueError(
                f"unknown benchmark {self.benchmark!r}; "
                f"choose from {sorted(SCENARIO_BENCHMARKS)}"
            )
        if not self.caps_per_socket_w:
            raise ValueError("a scenario needs at least one cap")
        if any(c <= 0 for c in self.caps_per_socket_w):
            raise ValueError("caps must be positive")
        if not self.policies:
            raise ValueError("a scenario needs at least one policy")
        labels = [p.label for p in self.policies]
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        if dupes:
            raise ValueError(
                f"duplicate policy instance names {dupes}; give each "
                "instance a unique 'name'"
            )
        if self.n_ranks < 1:
            raise ValueError("n_ranks must be >= 1")
        if self.lp_iterations < 1:
            raise ValueError("lp_iterations must be >= 1")
        if self.run_iterations <= self.discard_iterations:
            raise ValueError("run_iterations must exceed discard_iterations")
        if self.steady_window > self.run_iterations - self.discard_iterations:
            raise ValueError("steady_window larger than the measured region")
        if self.steady_window < 1:
            raise ValueError("steady_window must be >= 1")
        if self.efficiency_sigma < 0:
            raise ValueError("efficiency_sigma must be >= 0")

    # ------------------------------------------------------------------
    def policy_labels(self) -> list[str]:
        """Instance labels in evaluation order."""
        return [p.label for p in self.policies]

    def to_doc(self) -> dict:
        """Canonical JSON-safe document of the full scenario."""
        return {
            "benchmark": self.benchmark,
            "caps_per_socket_w": list(self.caps_per_socket_w),
            "policies": [p.to_doc() for p in self.policies],
            "n_ranks": self.n_ranks,
            "run_iterations": self.run_iterations,
            "lp_iterations": self.lp_iterations,
            "discard_iterations": self.discard_iterations,
            "steady_window": self.steady_window,
            "seed": self.seed,
            "efficiency_seed": self.efficiency_seed,
            "efficiency_sigma": self.efficiency_sigma,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ScenarioSpec":
        """Rebuild a scenario from :meth:`to_doc` output (extra keys rejected)."""
        known = {
            "benchmark", "caps_per_socket_w", "policies", "n_ranks",
            "run_iterations", "lp_iterations", "discard_iterations",
            "steady_window", "seed", "efficiency_seed", "efficiency_sigma",
        }
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(f"unknown scenario fields: {unknown}")
        kwargs: dict[str, Any] = {
            k: doc[k] for k in known if k in doc and k != "policies"
        }
        kwargs["policies"] = tuple(
            PolicySpec.from_doc(p) for p in doc.get("policies", ())
        )
        return cls(**kwargs)

    def to_json(self) -> str:
        """The canonical (sorted, compact) JSON form of the scenario."""
        return canonical_json(self.to_doc())

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a scenario from JSON (canonical or hand-written)."""
        return cls.from_doc(json.loads(text))

    # ------------------------------------------------------------------
    def spec_hash(self) -> str:
        """SHA-256 of the full canonical document (manifest identity)."""
        return digest(self.to_doc())

    def cell_hash(self) -> str:
        """SHA-256 of the cap-grid-independent document (cache namespace).

        Cells are keyed per (this hash, cap), so the same cell computed by
        a single-cap run and by a wider sweep is one warm cache entry.
        """
        doc = self.to_doc()
        del doc["caps_per_socket_w"]
        return digest(doc)
