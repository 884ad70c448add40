"""Static device-split power caps: the EcoShift-style baseline.

On a heterogeneous node the fixed-order LP constrains *total* node power
per event, so it is free to shift watts between the CPU and the offload
devices from one task to the next.  Real systems often cannot: firmware
partitions the node cap into fixed per-device budgets (x% to the CPU
package, the rest to the GPU).  This module models that baseline by
adding, on top of the standard fixed-order model, one extra row per
(event, device group): the power drawn by configurations living on the
group's devices must stay within the group's fixed share of the cap.

Every static split is a restriction of the single-cap LP (its feasible
region is the LP's intersected with the split rows), so the LP bound is
never worse than the *best* static split — the gap between them is
exactly the value of dynamic cross-device power shifting, which is the
headline exhibit of the heterogeneous machine layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.metrics import timed
from .fixed_order_lp import FixedOrderLpResult, compile_fixed_order
from .model import CompiledModel, ProblemInstance, extract_schedule
from .solver import LpStatus

__all__ = [
    "SPLIT_ROW_TAG",
    "DeviceSplitResult",
    "compile_device_split",
    "solve_device_split_lp",
    "best_static_split",
]

#: Tag prefix on the per-group power rows; kept distinct from
#: :data:`~.model.CAP_ROW_TAG` so parametric cap re-solves of the plain
#: model can never touch (or be confused with) split rows.
SPLIT_ROW_TAG = "cap-split"


def _device_group_map(groups: dict[str, tuple[str, ...]]) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for name, device_ids in groups.items():
        for device_id in device_ids:
            if device_id in mapping:
                raise ValueError(f"device {device_id!r} appears in two groups")
            mapping[device_id] = name
    return mapping


def compile_device_split(
    instance: ProblemInstance,
    cap_w: float,
    shares: dict[str, float],
    groups: dict[str, tuple[str, ...]],
    power_tiebreak: float = 1e-9,
) -> CompiledModel:
    """The fixed-order model plus fixed per-device-group cap shares.

    ``groups`` maps group names to the device ids they contain (see
    :func:`repro.machine.device.device_power_groups`); ``shares`` maps
    the same names to their fraction of ``cap_w``.  The legacy empty
    device id counts toward a group named ``"cpu"`` when present.
    """
    if abs(sum(shares.values()) - 1.0) > 1e-9:
        raise ValueError(f"shares must sum to 1, got {shares}")
    if any(s < 0 for s in shares.values()):
        raise ValueError(f"shares must be >= 0, got {shares}")
    compiled = compile_fixed_order(instance, cap_w, power_tiebreak=power_tiebreak)
    _add_split_rows(compiled, cap_w, shares, groups)
    return compiled


def _add_split_rows(
    compiled: CompiledModel,
    cap_w: float,
    shares: dict[str, float],
    groups: dict[str, tuple[str, ...]],
) -> None:
    """Append one ``<= share * cap`` row per (activity set, device group)."""
    dev_group = _device_group_map(groups)
    if "" not in dev_group and "cpu" in shares:
        dev_group[""] = "cpu"

    # The same deduplicated activity sets the aggregate cap rows use.
    events = compiled.instance.events
    seen: set[frozenset[int]] = set()
    emit: list[frozenset[int]] = []
    for group in events.groups:
        act = frozenset(events.active[group[0]])
        if not act or act in seen:
            continue
        seen.add(act)
        emit.append(act)

    frontiers = compiled.frontiers
    for act in emit:
        per_group: dict[str, dict[int, float]] = {name: {} for name in shares}
        for edge_id in act:
            tf = frontiers[edge_id]
            for j, col in enumerate(compiled.c_idx[edge_id]):
                device = tf.points[j].config.device
                try:
                    name = dev_group[device]
                except KeyError:
                    raise ValueError(
                        f"frontier point on device {device!r} belongs to no "
                        f"group in {sorted(groups)}"
                    ) from None
                terms = per_group[name]
                terms[col] = terms.get(col, 0.0) + float(tf.powers[j])
        for name, terms in per_group.items():
            if terms:
                compiled.lp.add_le(
                    terms,
                    shares[name] * cap_w,
                    label=f"power-{name}",
                    tag=f"{SPLIT_ROW_TAG}:{name}",
                )


def solve_device_split_lp(
    instance: ProblemInstance,
    cap_w: float,
    shares: dict[str, float],
    groups: dict[str, tuple[str, ...]],
    power_tiebreak: float = 1e-9,
    time_limit_s: float | None = None,
) -> FixedOrderLpResult:
    """Solve the fixed-order LP under one static device-group split."""
    with timed("phase.assemble"):
        compiled = compile_device_split(
            instance, cap_w, shares, groups, power_tiebreak=power_tiebreak
        )
    with timed("phase.solve"):
        solution = compiled.lp.solve(time_limit_s=time_limit_s)
    if solution.status is not LpStatus.OPTIMAL:
        return FixedOrderLpResult(
            schedule=None, solution=solution, events=instance.events
        )
    schedule = extract_schedule(compiled, solution)
    return FixedOrderLpResult(
        schedule=schedule, solution=solution, events=instance.events
    )


@dataclass
class DeviceSplitResult:
    """Best static split and the whole share scan that found it."""

    best_share: float | None  #: CPU share of the winning split (None: all infeasible)
    best: FixedOrderLpResult | None
    per_share: dict[float, float | None]  #: cpu share -> makespan (None infeasible)

    @property
    def feasible(self) -> bool:
        return self.best is not None and self.best.feasible

    @property
    def makespan_s(self) -> float:
        if self.best is None:
            raise ValueError("no feasible static split")
        return self.best.makespan_s


def best_static_split(
    instance: ProblemInstance,
    cap_w: float,
    groups: dict[str, tuple[str, ...]],
    cpu_shares: tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8),
    power_tiebreak: float = 1e-9,
    time_limit_s: float | None = None,
) -> DeviceSplitResult:
    """Scan static CPU/offload splits, keeping the best achieved makespan.

    Groups must be the two-sided ``{"cpu": ..., "offload": ...}`` shape;
    each scanned point gives the CPU group ``x`` of the cap and the
    offload group ``1 - x``.
    """
    if set(groups) != {"cpu", "offload"}:
        raise ValueError(f"expected cpu/offload groups, got {sorted(groups)}")
    best: FixedOrderLpResult | None = None
    best_share: float | None = None
    per_share: dict[float, float | None] = {}
    for share in cpu_shares:
        result = solve_device_split_lp(
            instance,
            cap_w,
            {"cpu": share, "offload": 1.0 - share},
            groups,
            power_tiebreak=power_tiebreak,
            time_limit_s=time_limit_s,
        )
        if result.feasible:
            per_share[share] = result.makespan_s
            if best is None or result.makespan_s < best.makespan_s:
                best, best_share = result, share
        else:
            per_share[share] = None
    return DeviceSplitResult(best_share=best_share, best=best, per_share=per_share)
