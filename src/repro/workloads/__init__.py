"""Benchmark proxies: CoMD, LULESH 2.0, NAS-MZ BT/SP, and synthetics."""

from .base import WorkloadBuilder, WorkloadSpec, dynamic_jitter, static_imbalance
from .comd import FORCE_KERNEL, REDISTRIBUTE_KERNEL, make_comd
from .lulesh import (
    HOURGLASS_KERNEL,
    STRESS_KERNEL,
    UPDATE_KERNEL,
    make_lulesh,
    neighbors_3d,
)
from .nasmz import BT_KERNEL, SP_KERNEL, make_bt, make_sp
from .synthetic import (
    imbalanced_collective_app,
    random_application,
    two_rank_exchange,
)

#: Name -> generator for the paper's four evaluated benchmarks.
BENCHMARKS = {
    "comd": make_comd,
    "lulesh": make_lulesh,
    "bt": make_bt,
    "sp": make_sp,
}

__all__ = [
    "BENCHMARKS",
    "BT_KERNEL",
    "FORCE_KERNEL",
    "HOURGLASS_KERNEL",
    "REDISTRIBUTE_KERNEL",
    "SP_KERNEL",
    "STRESS_KERNEL",
    "UPDATE_KERNEL",
    "WorkloadBuilder",
    "WorkloadSpec",
    "dynamic_jitter",
    "imbalanced_collective_app",
    "make_bt",
    "make_comd",
    "make_lulesh",
    "make_sp",
    "neighbors_3d",
    "random_application",
    "static_imbalance",
    "two_rank_exchange",
]
