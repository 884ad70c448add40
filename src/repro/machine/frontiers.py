"""Shared frontier store: one profile cache per machine.

Profiling a task — evaluating the machine models at every configuration
and reducing the scatter to Pareto/convex frontiers — is a pure function
of (kernel, socket power model).  :class:`FrontierStore` is the one
shared cache of it: build it once per machine (per list of per-rank
power models) and hand it to every consumer — the tracer, the
exploration tracer, Conductor, Adagio, selection-only and the
exploration planner — so a kernel profiled by the tracer is never
re-measured by a runtime policy running on the same machine.

Measurement noise is supported for the tracing path: perturbations are
drawn per (kernel, socket) on first touch, in call order, from the rng
the caller provides — matching an exploration pass that profiles each
distinct task shape once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .configuration import ConfigPoint, TaskSpace, task_space
from .device import NodeSpec, device_task_space
from .pareto import lower_hull, lower_hull_indices, pareto_frontier, pareto_indices
from .performance import TaskKernel
from .power import SocketPowerModel

__all__ = ["FrontierProfile", "FrontierStore", "NodeFrontierStore"]


@dataclass(frozen=True, eq=False)
class FrontierProfile:
    """One task shape's measured configuration space and its reductions.

    Only ``convex`` — small, and read by every runtime — is built eagerly;
    ``points`` and ``pareto`` are built on first access and cached.
    """

    space: TaskSpace  #: the scatter: configs, measured durations and powers
    pareto_idx: np.ndarray  #: positions in ``space`` of the Pareto set, by power
    hull_idx: np.ndarray  #: positions in ``space`` of the lower convex hull
    convex: list[ConfigPoint]  #: lower convex hull (the LP's C_i)

    @cached_property
    def points(self) -> list[ConfigPoint]:
        """The full configuration scatter (Figure 1, Table 1)."""
        return self.space.points()

    @cached_property
    def pareto(self) -> list[ConfigPoint]:
        """The Pareto-efficient subset (the discrete MILP's set)."""
        return self.space.points(self.pareto_idx)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrontierProfile):
            return NotImplemented
        a, b = self, other
        mine = (a.space.durations, a.space.powers, a.pareto_idx, a.hull_idx)
        theirs = (b.space.durations, b.space.powers, b.pareto_idx, b.hull_idx)
        return a.space.configs == b.space.configs and all(
            map(np.array_equal, mine, theirs)
        )


def _profile(
    space: TaskSpace, sigma: float, rng: np.random.Generator
) -> FrontierProfile:
    """Perturb (when ``sigma > 0``) and reduce one measured scatter.

    Noise is one lognormal (duration, power) draw pair per point, in point
    order — the sequence a per-point profiling pass would draw.
    """
    durations, powers = space.durations, space.powers
    if sigma > 0:
        draws = rng.lognormal(0.0, sigma, size=(len(space.configs), 2))
        durations = durations * draws[:, 0]
        powers = powers * draws[:, 1]
        space = TaskSpace(space.configs, durations, powers)
    if not ((durations > 0).all() and (powers > 0).all()):
        space.points()  # raises, naming the first non-positive measurement
    pareto = np.array(pareto_indices(powers, durations, space.configs), dtype=np.intp)
    p, d = powers[pareto].tolist(), durations[pareto].tolist()
    hull = pareto[lower_hull_indices(p, d)]
    return FrontierProfile(space, pareto, hull, space.points(hull))


class _ProfileViews:
    """The memo set-up and accessors both stores share around ``profile``."""

    def _setup(
        self, machines: list, measurement_noise: float, rng: np.random.Generator | None
    ) -> None:
        """Check the arguments and map each rank to its profile slot: the
        first rank with an equal machine when noiseless, its own when noisy
        (so noise draws follow a per-rank profiling order)."""
        if measurement_noise < 0:
            raise ValueError("measurement_noise must be >= 0")
        self.measurement_noise = float(measurement_noise)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._profiles: dict[tuple[TaskKernel, int], FrontierProfile] = {}
        first: dict = {}
        self._canon = (
            list(range(len(machines)))
            if self.measurement_noise > 0
            else [first.setdefault(m, r) for r, m in enumerate(machines)]
        )

    def convex(self, rank: int, kernel: TaskKernel) -> list[ConfigPoint]:
        return self.profile(rank, kernel).convex

    @staticmethod
    def reduce(
        points: list[ConfigPoint],
    ) -> tuple[list[ConfigPoint], list[ConfigPoint]]:
        """(pareto, convex) frontiers of an arbitrary observation set.

        The shared reduction for measurement-based paths that assemble
        their own point sets (partial exploration, executed-run traces).
        """
        pareto = pareto_frontier(points)
        return pareto, lower_hull(pareto)

    def __len__(self) -> int:
        return len(self._profiles)


class FrontierStore(_ProfileViews):
    """Memoized per-(kernel, power model) configuration profiles.

    Parameters
    ----------
    power_models:
        One :class:`SocketPowerModel` per rank.  Noiseless profiles are
        keyed on the *model* — ranks sharing identical silicon share one
        entry — while noisy profiles stay keyed per rank so the draw
        sequence matches a per-rank profiling pass exactly.
    measurement_noise:
        Multiplicative lognormal sigma applied to every measured
        (duration, power) — 0.0 for the oracle path.
    rng:
        Source of the noise draws; defaults to a fresh seed-0 generator.
        Pass the tracing seed's generator to reproduce traced noise.
    """

    def __init__(
        self,
        power_models: list[SocketPowerModel],
        measurement_noise: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not power_models:
            raise ValueError("need at least one power model")
        self.power_models = list(power_models)
        machines = [(pm.spec, pm.params, pm.efficiency) for pm in self.power_models]
        self._setup(machines, measurement_noise, rng)

    def profile(self, rank: int, kernel: TaskKernel) -> FrontierProfile:
        """The (points, pareto, convex) profile of a kernel on a rank's socket."""
        key = (kernel, self._canon[rank])
        prof = self._profiles.get(key)
        if prof is None:
            space = task_space(kernel, self.power_models[key[1]])
            prof = _profile(space, self.measurement_noise, self._rng)
            self._profiles[key] = prof
        return prof


class NodeFrontierStore(_ProfileViews):
    """Per-device frontier store for heterogeneous nodes.

    The node-level profile of a (rank, kernel) pair is the union of the
    kernel's measured operating-point scatters across every device of that
    rank's node that supports the kernel, reduced by the same
    Pareto/convex pipeline as the homogeneous store.  It shares
    :class:`FrontierStore`'s accessors, so the tracer, the LP, and every
    runtime policy consume either store unchanged.

    On a one-device node built by
    :func:`repro.machine.device.single_socket_node` the measured points,
    their order, and both reductions are exactly the legacy
    :class:`FrontierStore` output: the device delegates to the same
    analytic models and tags its configurations with the reserved legacy
    device id.

    Noise draws follow the same discipline as :class:`FrontierStore`:
    per (kernel, node) on first touch, in call order, duration then power
    per point, with devices visited in node order.
    """

    def __init__(
        self,
        nodes: list[NodeSpec],
        measurement_noise: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not nodes:
            raise ValueError("need at least one node")
        self.nodes = list(nodes)
        self._setup(self.nodes, measurement_noise, rng)

    def profile(self, rank: int, kernel: TaskKernel) -> FrontierProfile:
        """The merged (points, pareto, convex) profile on a rank's node."""
        key = (kernel, self._canon[rank])
        prof = self._profiles.get(key)
        if prof is None:
            node = self.nodes[key[1]]
            spaces = [
                device_task_space(kernel, dev)
                for dev in node.devices
                if dev.supports(kernel)
            ]
            configs = sum((sp.configs for sp in spaces), ())
            if not configs:
                raise ValueError(
                    f"no device on node {node.name!r} supports kernel "
                    f"{kernel.name or kernel!r}"
                )
            space = TaskSpace(
                configs,
                np.concatenate([sp.durations for sp in spaces]),
                np.concatenate([sp.powers for sp in spaces]),
            )
            prof = _profile(space, self.measurement_noise, self._rng)
            self._profiles[key] = prof
        return prof

