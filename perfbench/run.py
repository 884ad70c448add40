"""Benchmark for the power-constrained performance reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload headline --seed 2015 --seconds 25
    python3 perfbench/run.py --workload lp-dense --trace 1
    python3 perfbench/run.py --workload all     # every workload, one summary

``--trace 0`` measures the end-to-end metrics, wrapping nothing but the
few entry points whose returns mark segment boundaries.  ``--trace 1`` is
a separate run that wraps each layer's public entry
points and reports per-layer metrics instead (see README.md).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is nonzero when
any output check fails.  ``--setup-only`` is the mode the benchmark runs
in its own child processes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from layer_trace import TIME_METRICS, LayerTracer, layer_metrics

_T0 = time.perf_counter()  # set-up is timed from here, before repro loads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("headline", "lp-dense", "warm-rerun")
#: Set-up samples per run, this process's and fresh child interpreters':
#: at least the first, and more while they fit in the second.
SETUP_SAMPLES = (3, 7)
SETUP_BUDGET_S = 6.0
#: Timed passes every run makes, however short ``--seconds`` is.
MIN_PASSES = 2
#: The layer that must do work on each workload, or the traced run fails.
COVERAGE = {
    "headline": "frontiers.profile_calls",
    "lp-dense": "lp.solves",
    "warm-rerun": "cache.gets",
}
#: Layer metrics of set-up work, reported with a ``setup.`` prefix.
SETUP_LAYERS = ("workloads.generate_s", "cache.put_s", "cache.puts")


def _load_workloads():
    """Import the workloads, and with them ``repro``, from this checkout."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import bench_workloads
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise ImportError(f"repro was imported from {repro.__file__}")
    return bench_workloads


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=2015)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def _print_metrics(metrics: dict, attempted: int, failed: int) -> None:
    """The human table, then the one-line JSON result (last line)."""
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit:<6} n={samples}")
    doc = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }
    print(json.dumps(doc), flush=True)


def _check(workload, results) -> tuple[int, int]:
    """(attempted, failed) ops over every pass, with problems on stderr."""
    attempted = failed = 0
    problems: list[str] = []
    for result in results:
        n, msgs = workload.check(result, results[0])
        attempted += result.ops
        failed += n
        problems.extend(msgs)
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    return attempted, failed


def _speedup(workload, results, which: int) -> float:
    """How much faster the reference machine is than this one was during
    the run, in wall (``which=0``) or CPU (``which=1``) time: the probe's
    reference time over its floor in the run.  A shared host also drifts
    by a fifth over minutes; the probe drifts with the program, so scaled
    times hold still."""
    from machine_probe import PROBES

    return PROBES[workload.probe][1][which] / _probe_floor(results, which)


def _probe_floor(results, which: int) -> float:
    """The probe's time from the same estimator as the program's: the mean
    over sample positions of the least sample at that position in any
    pass.  A busier host leaves both with fewer, slower repeats to choose
    from, so their ratio holds where a bare minimum would not."""
    n = min(len(r.probes) for r in results)
    return statistics.fmean(
        min(r.probes[i][which] for r in results) for i in range(n)
    )


def _fastest_pass(results, which: int) -> float:
    """A pass's wall (``which=0``) or CPU (``which=1``) seconds, built from
    each segment's fastest repeat: the sum over the segments of a pass of
    the least time that segment took in any pass of the run.

    A shared host slows the benchmark in bursts of a few seconds; the
    fastest repeat of a short segment is one that no burst hit, so the sum
    tracks the program rather than the neighbours.  It excludes the probe
    samples taken between segments.
    """
    shapes = {len(r.segments) for r in results}
    if len(shapes) != 1:  # passes cut differently: compare whole passes
        return min(r.cpu_s if which else r.wall_s for r in results)
    return sum(
        min(r.segments[k][which] for r in results) for k in range(shapes.pop())
    )


def _keep_going(start: float, last: float, done: int, seconds: float) -> bool:
    """Start another pass while one as long as the last still fits."""
    return done < MIN_PASSES or time.perf_counter() - start + last <= seconds


def _setup_sample(args) -> float:
    """Set-up seconds of one fresh interpreter."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _timed_run(args, workload, setup_s: float) -> int:
    results, errors, last = [], 0, 0.0
    start = time.perf_counter()
    while _keep_going(start, last, len(results) + errors, args.seconds):
        t0 = time.perf_counter()
        try:
            results.append(workload.run_pass())
        except Exception:
            traceback.print_exc()
            errors += 1
        last = time.perf_counter() - t0
    if not results:
        return 1
    # Read before the set-up samples below add children of their own.
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    attempted, failed = _check(workload, results)
    attempted += errors * workload.ops_per_pass
    failed += errors * workload.ops_per_pass
    least, most = SETUP_SAMPLES
    setups = [setup_s]
    while len(setups) < least or (len(setups) < most and sum(setups) < SETUP_BUDGET_S):
        setups.append(_setup_sample(args))
    n = len(results)
    speedup = _speedup(workload, results, 0)
    cpu_speedup = _speedup(workload, results, 1)
    wall_s = _fastest_pass(results, 0) * speedup
    metrics = {
        "setup_s": (statistics.median(setups) * speedup, "s", len(setups)),
        "wall_s": (wall_s, "s", n),
        "ops_per_s": (results[0].ops / wall_s, "1/s", n),
        "cpu_s": (_fastest_pass(results, 1) * cpu_speedup, "s", n),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", 1),
    }
    print(f"{args.workload}: seed {args.seed}, {n} pass(es); {workload.probe} "
          f"probe floors {_probe_floor(results, 0):.5f} s wall and "
          f"{_probe_floor(results, 1):.5f} s CPU, times scaled by "
          f"{speedup:.4f} and {cpu_speedup:.4f} to the reference machine")
    _print_metrics(metrics, attempted, failed)
    return 0 if failed == 0 else 1


def _traced_run(args, workload, setup_tracer) -> int:
    """Alternate plain and traced passes; report per-layer metrics."""
    tracer = LayerTracer()
    in_process_tracer = LayerTracer()
    plain, traced, plain_in_process, traced_in_process = [], [], [], []
    start, last = time.perf_counter(), 0.0
    while not traced or time.perf_counter() - start + last <= args.seconds:
        t0 = time.perf_counter()
        plain.append(workload.run_pass())
        traced.append(workload.run_pass(tracer))
        if workload.pooled:
            # Pool workers run outside this process's wrappers: repeat the
            # pass in-process to attribute the work they do.
            plain_in_process.append(workload.run_pass(workers=1))
            traced_in_process.append(workload.run_pass(in_process_tracer, workers=1))
        last = time.perf_counter() - t0
    n = len(traced)
    layers = layer_metrics(tracer, n)
    if workload.pooled:
        in_process = layer_metrics(in_process_tracer, n)
        for name, value in in_process.items():
            if not layers[name][0]:
                layers[name] = value
    setup_layers = layer_metrics(setup_tracer, 1)
    for name in SETUP_LAYERS:
        layers[f"setup.{name}"] = setup_layers[name]
    plain_s = min(r.wall_s for r in plain)
    traced_s = min(r.wall_s for r in traced)
    layers["traced.wall_s"] = (traced_s, "s")
    layers["tracing.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    dispatch_s = 0.0
    if workload.pooled:
        dispatch_s = plain_s - min(r.wall_s for r in plain_in_process)
    layers["parallel.dispatch_overhead_s"] = (dispatch_s, "s")

    results = plain + traced + plain_in_process + traced_in_process
    layers["probe.machine_s"] = (_probe_floor(results, 0), "s")
    attempted, failed = _check(workload, results)
    guard = COVERAGE[args.workload]
    if not layers[guard][0] > 0:
        print(
            f"perfbench: layer coverage lost: {guard} reads 0 on "
            f"{args.workload}; an entry point listed in "
            "layer_trace.LAYERS no longer carries this workload's work",
            file=sys.stderr,
        )
        return 3
    print(f"{args.workload}: seed {args.seed}, {n} traced pass(es); "
          "self time per pass and share of the traced pass:")
    for name in TIME_METRICS:
        value = layers[name][0]
        if value > 0:
            print(f"  {name:<30} {value:>10.4f} s {100 * value / traced_s:6.1f}%")
    _print_metrics(
        {name: (value, unit, n) for name, (value, unit) in layers.items()},
        attempted, failed,
    )
    return 0 if failed == 0 else 1


def _run_all(args) -> int:
    """Every workload in its own process, then one summary."""
    ok, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        doc = json.loads(lines[-1])
        ok = ok and doc["correct"]
        attempted += doc["attempted"]
        failed += doc["failed"]
        for metric, m in doc["metrics"].items():
            metrics[f"{name}.{metric}"] = (m["value"], m["unit"], "-")
    print("summary:")
    _print_metrics(metrics, attempted, failed)
    return 0 if ok and failed == 0 else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    try:
        bench = _load_workloads()
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    workload = bench.WORKLOADS[args.workload]()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    setup_tracer = LayerTracer() if args.trace else None
    try:
        with bench.traced(setup_tracer):
            if args.trace and workload.pooled:
                # Fill in-process so the cache writes are attributed.
                workload.setup(args.seed, workdir, workers=1)
            else:
                workload.setup(args.seed, workdir)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            return _traced_run(args, workload, setup_tracer)
        return _timed_run(args, workload, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # missing, or another run still uses it


if __name__ == "__main__":
    sys.exit(main())
