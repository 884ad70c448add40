"""Synthetic workloads: the Figure 8 exchange and random DAG generators.

``two_rank_exchange`` reproduces the paper's flow-vs-fixed-order benchmark
("a two-process asynchronous message exchange", Figure 8) — small enough
for the flow ILP's <30-edge practical limit.  ``random_application``
produces structurally-diverse programs for property-based tests of the
simulator, tracer, and LP.
"""

from __future__ import annotations

import numpy as np

from ..machine.performance import TaskKernel
from ..simulator.program import (
    Application,
    CollectiveOp,
    ComputeOp,
    IsendOp,
    PcontrolOp,
    RecvOp,
    SendOp,
    WaitOp,
)
from .base import WorkloadBuilder

__all__ = [
    "two_rank_exchange",
    "random_application",
    "imbalanced_collective_app",
]


def two_rank_exchange(
    phases: int = 2,
    cpu_seconds: float = 0.8,
    mem_seconds: float = 0.15,
    message_bytes: int = 1 << 20,
    imbalance: float = 1.0,
) -> Application:
    """Two ranks computing and exchanging asynchronous messages (Fig. 8).

    Per phase: rank 0 computes then Isends to rank 1, computes again and
    waits; rank 1 computes, receives, and computes.  The default is
    *balanced* (``imbalance=1``): both formulations then see (almost) no
    slack, which is the regime where the paper reports 1.9% agreement —
    the fixed-order LP charges slack at task power while the flow ILP
    treats slack separately, so heavy slack would legitimately separate
    them (see DESIGN.md).  With default parameters the trace has
    ``4*phases`` compute edges, inside the flow ILP's practical range.
    """
    if phases < 1:
        raise ValueError("phases must be >= 1")
    kernel = TaskKernel(
        cpu_seconds=cpu_seconds,
        mem_seconds=mem_seconds,
        parallel_fraction=0.99,
        mem_parallel_fraction=0.9,
        bw_saturation_threads=6,
        activity=1.0,
        mem_intensity=0.3,
        name="exchange",
    )
    b = WorkloadBuilder(name="two-rank-exchange", n_ranks=2)
    b.metadata["benchmark"] = "synthetic async exchange (Fig. 8)"
    for ph in range(phases):
        b.add(0, ComputeOp(kernel, ph, label="pre-send"))
        b.add(0, IsendOp(dst=1, size_bytes=message_bytes, request=1, iteration=ph))
        b.add(0, ComputeOp(kernel.scaled(0.7), ph, label="overlap"))
        b.add(0, WaitOp(1, iteration=ph))
        b.add(1, ComputeOp(kernel.scaled(imbalance), ph, label="pre-recv"))
        b.add(1, RecvOp(src=0, iteration=ph))
        b.add(1, ComputeOp(kernel, ph, label="post-recv"))
    return b.finish(phases)


def imbalanced_collective_app(
    n_ranks: int = 4,
    iterations: int = 2,
    spread: float = 1.5,
    cpu_seconds: float = 1.0,
    seed: int = 7,
) -> Application:
    """Compute + allreduce per iteration with a fixed imbalance — the
    smallest workload exhibiting the paper's power-reallocation gain."""
    rng = np.random.default_rng(seed)
    factors = np.linspace(1.0, spread, n_ranks)
    rng.shuffle(factors)
    kernel = TaskKernel(
        cpu_seconds=cpu_seconds, mem_seconds=0.2 * cpu_seconds,
        mem_intensity=0.3, name="imbalanced",
    )
    b = WorkloadBuilder(name="imbalanced-collective", n_ranks=n_ranks)
    for it in range(iterations):
        for r in range(n_ranks):
            b.add(r, ComputeOp(kernel.scaled(float(factors[r])), it))
            b.add(r, CollectiveOp("allreduce", 8, iteration=it))
            b.add(r, PcontrolOp(it))
    return b.finish(iterations)


def random_application(
    n_ranks: int = 3,
    iterations: int = 2,
    seed: int = 0,
    p_p2p: float = 0.5,
    min_cpu_s: float = 0.05,
    max_cpu_s: float = 1.0,
) -> Application:
    """A random but deadlock-free program for property-based testing.

    Per iteration each rank computes; with probability ``p_p2p`` a random
    ordered pair exchanges one blocking message (send posted before the
    receive in the global construction order, so execution cannot
    deadlock); every iteration ends with an allreduce + Pcontrol.
    """
    rng = np.random.default_rng(seed)
    b = WorkloadBuilder(name=f"random-{seed}", n_ranks=n_ranks)
    for it in range(iterations):
        for r in range(n_ranks):
            kernel = TaskKernel(
                cpu_seconds=float(rng.uniform(min_cpu_s, max_cpu_s)),
                mem_seconds=float(rng.uniform(0.0, 0.3 * max_cpu_s)),
                parallel_fraction=float(rng.uniform(0.8, 0.999)),
                mem_intensity=float(rng.uniform(0.0, 0.8)),
                activity=float(rng.uniform(0.7, 1.4)),
                name=f"rand{it}-{r}",
            )
            b.add(r, ComputeOp(kernel, it))
        if n_ranks >= 2 and rng.random() < p_p2p:
            src, dst = rng.choice(n_ranks, size=2, replace=False)
            size = int(rng.integers(64, 1 << 20))
            b.add(int(src), SendOp(dst=int(dst), size_bytes=size, iteration=it))
            b.add(int(dst), RecvOp(src=int(src), iteration=it))
        for r in range(n_ranks):
            b.add(r, CollectiveOp("allreduce", 8, iteration=it))
            b.add(r, PcontrolOp(it))
    return b.finish(iterations)
