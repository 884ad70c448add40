"""A fixed machine-speed probe that imports nothing from ``repro``.

One probe sample times a constant amount of interpreter work (integer
arithmetic, dict and list churn) and numpy work (element-wise arithmetic
and sorts); a pooled sample farms interpreter work out to a fresh
two-worker process pool, the way the program's own pool runs cells.
Because neither touches repository code, no change to the repository can
move them.  The benchmark takes samples between the segments of every
pass, so their floor is the machine's speed over the same seconds the
program was timed in; times are reported scaled to the speed at which the
floor reads its reference in :data:`PROBES`.  That also lets runs on
different machines be set side by side.
"""

from __future__ import annotations

import resource
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

__all__ = ["PROBES", "cpu_s", "pool_probe_sample", "probe_sample"]


def cpu_s() -> float:
    """CPU seconds of this process plus every child it has reaped."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _python_kernel(n: int) -> int:
    x = 12345
    acc = 0
    table: dict[int, int] = {}
    items: list[int] = []
    for i in range(n):
        x = (1103515245 * x + 12345) & 0x7FFFFFFF
        table[x & 1023] = i
        acc += x % 7
        if i % 64 == 0:
            items.append(acc)
    items.sort()
    return acc + len(table) + items[len(items) // 2]


def _numpy_kernel() -> float:
    # Element-wise ufuncs and sorts only: they run on the calling thread,
    # where a BLAS product would wake a thread pool on the other cores.
    rng = np.random.default_rng(2015)
    a = rng.standard_normal(50_000)
    for _ in range(4):
        a = np.tanh(1.5 * a) + np.sqrt(np.abs(a))
    b = np.sort(a)
    order = np.argsort(rng.integers(0, 1024, 50_000), kind="stable")
    return float(b[::1000].sum() + order[:16].sum())


def probe_sample() -> list[float]:
    """Wall and CPU seconds of one probe sample, short enough to fall
    between the bursts in which a shared host slows everything down."""
    t0, c0 = time.perf_counter(), cpu_s()
    _python_kernel(40_000)
    _numpy_kernel()
    return [time.perf_counter() - t0, cpu_s() - c0]


def pool_probe_sample(workers: int = 2) -> list[float]:
    """Wall and CPU seconds (workers included) of one pooled sample: start
    a process pool, run eight small interpreter kernels on it and shut it
    down.  Forking a larger parent costs more, so its references are its
    floors inside the benchmark."""
    t0, c0 = time.perf_counter(), cpu_s()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        list(pool.map(_python_kernel, [5_000] * 8))
    return [time.perf_counter() - t0, cpu_s() - c0]


#: probe name -> (sample function, its wall and CPU floors on a two-vCPU
#: Intel Xeon VM at 2.0 GHz with Python 3.11 and numpy 2: the machine the
#: benchmark's reported seconds are scaled to).
PROBES = {
    "serial": (probe_sample, (0.017, 0.017)),
    "pool": (pool_probe_sample, (0.025, 0.035)),
}


if __name__ == "__main__":
    for name, (sample, references) in PROBES.items():
        samples = [sample() for _ in range(100)]
        floors = [min(s[i] for s in samples) for i in (0, 1)]
        print(f"{name} probe: wall and CPU floors {floors[0]:.5f} s and "
              f"{floors[1]:.5f} s over 100 samples (references {references})")
