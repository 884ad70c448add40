"""Command-line entry point: regenerate any paper exhibit.

Usage (installed as ``repro-experiments``, with ``repro-exp`` as a short
alias)::

    repro-experiments list
    repro-experiments fig1 fig8 fig9 ... table3 overheads headline
    repro-experiments all [--ranks 32]
    repro-experiments all --quick        # 8 ranks, small fig8 sweep

    repro-exp run --quick --trace trace.json   # one traced comparison
    repro-exp audit [exhibit ...]              # solver audit table
    repro-exp validate-trace trace.json        # schema-check a trace

    repro-exp run --policies static,conductor,adagio,lp --cap 50
    repro-exp sweep --policies static,adagio,lp --caps 30,50,70
    repro-exp run --scenario my_scenario.json  # spec from a JSON file

``--quick`` shrinks rank counts and sweep densities for smoke runs; the
full defaults match the measurement protocol recorded in EXPERIMENTS.md.

N-way scenarios (see ``docs/scenarios.md``): ``--policies`` names any
policies from the scenario registry (``static``, ``conductor``,
``adagio``, ``selection-only``, ``lp``, ``flow-ilp``), ``--scenario``
loads a full declarative spec, and ``--baseline`` picks the policy the
improvement columns compare against.  Without either flag, ``run`` keeps
its historical three-way Static/Conductor/LP output.

Observability (see ``docs/observability.md``): ``--trace FILE`` /
``--trace-dir DIR`` export a Chrome trace-event JSON (Perfetto-loadable)
plus a raw ``.jsonl`` of every event the run emitted; ``--timings`` and
``--timings-json`` render the run's metrics snapshot (``phase.*`` timers
and counters) together with the solver audit ledger; and
``--save DIR`` stamps a ``manifest.json`` of run provenance next to the
saved artifacts.

Operational telemetry (PR 8): ``--metrics FILE`` / ``--metrics-prom
FILE`` export the typed metrics snapshot as JSON / Prometheus text (and
embed its deterministic subset in saved manifests); ``--progress`` /
``--quiet`` / ``--progress-file FILE`` control the live sweep heartbeat
(TTY-auto by default); ``--profile FILE`` aggregates per-cell cProfile
data into a top-N cumulative-time table; and ``repro-exp report
--journal FILE [--manifest FILE] [--metrics FILE]`` renders a post-hoc
sweep report from the journal, manifest, and metrics artifacts alone.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from ..core.model import MODEL_LAYER_VERSION
from ..exec.faults import FaultInjector
from ..exec.options import ExecutionOptions, set_execution_options
from ..exec.parallel import ParallelExecutionError
from ..obs.audit import SolveAudit
from ..obs.export import export_chrome_trace, export_jsonl, validate_trace_file
from ..obs.metrics import (
    Metrics,
    prometheus_text,
    timings_doc,
    timings_summary,
)
from ..obs.profiling import ProfileCollector
from ..obs.progress import ProgressReporter, default_progress_stream
from ..obs.provenance import collect_manifest, write_manifest
from ..obs.recorder import TraceRecorder
from ..obs.sinks import Sinks
from ..scenarios.registry import default_registry
from ..scenarios.run import ScenarioCell, run_scenarios
from ..scenarios.spec import PolicySpec, ScenarioSpec
from . import figures, tables
from .runner import (
    DEFAULT_CAPS_W,
    ComparisonResult,
    ExperimentConfig,
    improvement_pct,
    run_comparison,
)

__all__ = ["main", "EXHIBITS"]


def _sensitivity(quick: bool):
    from .sensitivity import sensitivity_analysis

    if quick:
        return sensitivity_analysis(n_ranks=4, exponents=(2.0, 2.8),
                                    sigmas=(0.0, 0.08))
    return sensitivity_analysis()


def _fig8(quick: bool):
    if quick:
        return figures.figure8_flow_vs_fixed(n_caps=12, time_limit_s=20.0)
    return figures.figure8_flow_vs_fixed()


EXHIBITS = {
    "fig1": lambda q, n: figures.figure1_pareto_frontier(),
    "fig8": lambda q, n: _fig8(q),
    "fig9": lambda q, n: figures.figure9_lp_vs_static(n),
    "fig10": lambda q, n: figures.figure10_lp_vs_conductor(n),
    "fig11": lambda q, n: figures.figure11_comd(n),
    "fig12": lambda q, n: figures.figure12_comd_task_scatter(
        n_ranks=n, iterations=4 if q else 8
    ),
    "fig13": lambda q, n: figures.figure13_bt(n),
    "fig14": lambda q, n: figures.figure14_sp(n),
    "fig15": lambda q, n: figures.figure15_lulesh(n),
    "table3": lambda q, n: tables.table3_lulesh_task_characteristics(n_ranks=n),
    "overheads": lambda q, n: tables.overheads_summary(),
    "energy": lambda q, n: tables.energy_comparison(n_ranks=min(n, 8)),
    "frontier": lambda q, n: tables.frontier_table(n_ranks=min(n, 8), quick=q),
    "mincap": lambda q, n: tables.minimum_cap_table(
        n_ranks=min(n, 8), iterations=2 if q else 3
    ),
    "sensitivity": lambda q, n: _sensitivity(q),
    "headline": lambda q, n: figures.headline_summary(n),
}

def _run_config(args, parser) -> ExperimentConfig:
    """The comparison config for ``run``/``audit`` from the CLI flags.

    ``--quick`` shrinks the comparison to 4 ranks and a 12-iteration run
    (steady window 6) — small enough for CI smoke, large enough that the
    Conductor exits exploration and reallocates at least once.  A flag
    the config rejects (an unknown ``--benchmark``) is a usage error.
    """
    protocol = _scenario_protocol(args)
    try:
        return ExperimentConfig(benchmark=args.benchmark, **protocol)
    except ValueError as exc:
        parser.error(str(exc))


def _scenario_protocol(args) -> dict:
    """Measurement-protocol fields built from CLI flags, shared by the
    N-way scenario and the legacy three-way config so both measure the
    same windows."""
    if args.quick:
        ranks = 4 if args.ranks == 32 else args.ranks
        return {
            "n_ranks": ranks, "run_iterations": 12, "lp_iterations": 2,
            "steady_window": 6,
        }
    return {"n_ranks": args.ranks}


def _scenario_spec(args, caps: tuple[float, ...] | None, parser) -> ScenarioSpec:
    """The scenario to run, from ``--scenario FILE`` or ``--policies``.

    A spec file carries everything — ``caps`` (when not None) overrides
    its grid, which is how ``run`` pins a file to one ``--cap`` cell and
    ``sweep --caps`` re-grids it; ``--policies`` builds a spec around the
    CLI's benchmark and protocol flags.  Policy names, and a spec file's
    policy config keys, are validated against the registry up front so
    typos fail as usage errors before any simulation.
    """
    if args.scenario and args.policies:
        parser.error("--scenario and --policies are mutually exclusive")
    if args.scenario:
        try:
            spec = ScenarioSpec.from_json(Path(args.scenario).read_text())
        except (OSError, ValueError, KeyError) as exc:
            parser.error(f"--scenario {args.scenario}: {exc}")
        registry = default_registry()
        for pspec in spec.policies:
            # Unknown policies and config keys fail here, before any cell.
            try:
                registry.get(pspec.policy).resolve_config(pspec.config)
            except (KeyError, ValueError) as exc:
                parser.error(f"--scenario {args.scenario}: {exc.args[0]}")
        if caps is not None:
            doc = spec.to_doc()
            doc["caps_per_socket_w"] = [float(c) for c in caps]
            spec = ScenarioSpec.from_doc(doc)
    else:
        if caps is None:
            caps = tuple(DEFAULT_CAPS_W)
        names = [p.strip() for p in args.policies.split(",") if p.strip()]
        if not names:
            parser.error("--policies needs at least one policy name")
        registry = default_registry()
        for name in names:
            if name not in registry:
                parser.error(
                    f"unknown policy {name!r}; registered: {registry.names()}"
                )
        try:
            spec = ScenarioSpec(
                benchmark=args.benchmark,
                caps_per_socket_w=caps,
                policies=tuple(PolicySpec(n) for n in names),
                **_scenario_protocol(args),
            )
        except ValueError as exc:
            parser.error(str(exc))
    if args.baseline is not None and args.baseline not in spec.policy_labels():
        parser.error(
            f"--baseline {args.baseline!r} is not in the scenario; "
            f"policies: {spec.policy_labels()}"
        )
    return spec


def _parse_caps(text: str, parser) -> tuple[float, ...]:
    """Parse ``--caps 30,50,70`` into a cap grid."""
    try:
        caps = tuple(float(c) for c in text.split(",") if c.strip())
    except ValueError:
        parser.error(f"--caps must be comma-separated numbers, got {text!r}")
    if not caps:
        parser.error("--caps needs at least one cap")
    return caps


def _scenario_cell_text(cell: ScenarioCell, baseline: str | None) -> str:
    """Human summary of one N-way scenario cell (the ``run`` subcommand).

    A cell whose computation failed outright (``--keep-going``) renders
    as a gap: every policy shows ``failed`` and the failure itself is
    itemized below the cell header.
    """
    width = max(len(n) for n in cell.outcomes)
    lines = [
        f"{cell.benchmark}: {cell.n_ranks} ranks at "
        f"{cell.cap_per_socket_w:g} W/socket ({cell.job_cap_w:g} W job cap)"
    ]
    if cell.failed:
        lines.append(
            f"  cell failed: {cell.failure.error_type} after "
            f"{cell.failure.attempts} attempt(s): {cell.failure.error_message}"
        )
    base_t = cell.outcomes[baseline].time_s if baseline else None
    for name, outcome in cell.outcomes.items():
        t = outcome.time_s
        text = f"{t:.4f} s/iter" if t is not None else (
            "failed" if cell.failed
            else "unschedulable" if not cell.schedulable else "infeasible"
        )
        notes = []
        if outcome.kind == "bound":
            notes.append("bound")
        reallocs = outcome.extra.get("reallocs")
        if reallocs is not None:
            notes.append(f"{reallocs} reallocations")
        if baseline and name != baseline:
            imp = improvement_pct(base_t, t)
            if imp is not None:
                notes.append(f"{imp:+.1f}% vs {baseline}")
        suffix = f"  ({', '.join(notes)})" if notes else ""
        lines.append(f"  {name.ljust(width)}  {text}{suffix}")
    return "\n".join(lines)


def _comparison_text(result: ComparisonResult) -> str:
    """Human summary of one comparison cell (the ``run`` subcommand)."""

    def fmt(value: float | None) -> str:
        return f"{value:.4f} s/iter" if value is not None else "unschedulable"

    lines = [
        f"{result.benchmark}: {result.n_ranks} ranks at "
        f"{result.cap_per_socket_w:g} W/socket ({result.job_cap_w:g} W job cap)",
        f"  static     {fmt(result.static_s)}",
        f"  conductor  {fmt(result.conductor_s)}"
        f"  ({result.conductor_reallocs} reallocations)",
        f"  lp bound   {fmt(result.lp_s)}",
    ]
    if result.lp_vs_static_pct is not None:
        lines.append(f"  lp improves on static by {result.lp_vs_static_pct:.1f}%")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "exhibits", nargs="*", default=["all"],
        help="exhibit names (see 'list'), 'all', or a subcommand: "
             "run, sweep, audit, report, validate-trace, "
             "verify-results",
    )
    parser.add_argument("--ranks", type=int, default=32,
                        help="MPI ranks / sockets (default 32, as in the paper)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweeps for a fast smoke run")
    parser.add_argument("--benchmark", default="comd",
                        help="benchmark for the run/audit subcommands")
    parser.add_argument("--cap", type=float, default=50.0,
                        help="per-socket cap (W) for the run/audit subcommands")
    parser.add_argument("--policies", metavar="LIST", default=None,
                        help="comma-separated registry policy names for an "
                             "N-way run/sweep (e.g. static,conductor,adagio,lp)")
    parser.add_argument("--scenario", metavar="FILE", default=None,
                        help="declarative scenario spec (JSON) for run/sweep; "
                             "see docs/scenarios.md")
    parser.add_argument("--caps", metavar="LIST", default=None,
                        help="comma-separated per-socket caps (W) for the "
                             "sweep subcommand (default: the paper's grid)")
    parser.add_argument("--baseline", metavar="POLICY", default=None,
                        help="policy the N-way improvement columns compare "
                             "against (default: the first policy)")
    parser.add_argument("--save", metavar="DIR", default=None,
                        help="also write each exhibit's text to DIR/<name>.txt "
                             "plus a manifest.json of run provenance")
    parser.add_argument("--svg", metavar="DIR", default=None,
                        help="also render figure exhibits to DIR/<name>.svg")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for sweep-shaped exhibits "
                             "(1 = serial, 0 = one per CPU core)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="content-addressed solver cache directory "
                             "(warm entries skip LP solves and replays)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache-dir: solve everything fresh")
    parser.add_argument("--keep-going", action="store_true",
                        help="complete an N-way sweep around failed cells: "
                             "render them as gaps, record them in the "
                             "manifest, exit 1 (see docs/execution.md)")
    parser.add_argument("--journal", metavar="FILE", default=None,
                        help="JSONL sweep journal: checkpoint every settled "
                             "cell; an interrupted sweep resumes from FILE "
                             "with byte-identical final output")
    parser.add_argument("--inject-faults", metavar="SPEC", default=None,
                        help="deterministic fault injection for chaos runs, "
                             "e.g. 'mode=raise,rate=0.3,seed=1' or "
                             "'mode=raise,match=cap=50' (docs/execution.md)")
    parser.add_argument("--task-retries", type=int, default=1,
                        help="retries per sweep task after its first attempt "
                             "(default 1; seeded exponential backoff)")
    parser.add_argument("--task-timeout", type=float, default=None, metavar="S",
                        help="per-task deadline in seconds, measured from "
                             "submission; enforced only with --workers > 1 "
                             "(default: none)")
    parser.add_argument("--metrics", metavar="FILE", default=None,
                        help="write the full metrics snapshot (counters, "
                             "gauges, histograms) as JSON; its deterministic "
                             "subset is also embedded in saved manifests. "
                             "For the report subcommand: read this snapshot")
    parser.add_argument("--metrics-prom", metavar="FILE", default=None,
                        help="write the metrics snapshot as Prometheus text "
                             "exposition (docs/observability.md)")
    parser.add_argument("--progress", action="store_true",
                        help="force the live sweep progress line on stderr "
                             "even when it is not a TTY")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the live progress line entirely "
                             "(it is already off when stderr is not a TTY)")
    parser.add_argument("--progress-file", metavar="FILE", default=None,
                        help="append one JSON heartbeat per settled sweep "
                             "cell to FILE (out-of-band: wall-clock fields "
                             "allowed; never embedded in artifacts)")
    parser.add_argument("--profile", metavar="FILE", default=None,
                        help="run cProfile around every sweep cell and write "
                             "the merged top-N cumulative-time table to FILE")
    parser.add_argument("--manifest", metavar="FILE", default=None,
                        help="report: manifest.json to fold into the report")
    parser.add_argument("--top", type=int, default=5, metavar="N",
                        help="report: slowest-cell rows to show (default 5)")
    parser.add_argument("--timings", action="store_true",
                        help="print per-phase timings, cache counters, and "
                             "the solver audit table")
    parser.add_argument("--timings-json", metavar="FILE", default=None,
                        help="also write the per-phase timings and counters "
                             "(with the solver audit ledger) as JSON")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="export a Chrome trace-event JSON (open in "
                             "Perfetto) plus FILE's .jsonl sibling")
    parser.add_argument("--trace-dir", metavar="DIR", default=None,
                        help="like --trace, writing DIR/trace.json[l]")
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error(f"--workers must be >= 0, got {args.workers}")
    if args.task_retries < 0:
        parser.error(f"--task-retries must be >= 0, got {args.task_retries}")

    command = args.exhibits[0] if args.exhibits else None

    resilience_flags = args.keep_going or args.inject_faults or (
        args.journal and command != "report"  # report *reads* a journal
    )
    if resilience_flags and command not in ("run", "sweep"):
        parser.error("--keep-going/--journal/--inject-faults only apply to "
                     "the run and sweep subcommands")
    if (args.progress or args.quiet or args.progress_file) and command not in (
        "run", "sweep"
    ):
        parser.error("--progress/--quiet/--progress-file only apply to "
                     "the run and sweep subcommands")
    faults = None
    if args.inject_faults:
        try:
            faults = FaultInjector.from_string(args.inject_faults)
        except ValueError as exc:
            parser.error(f"--inject-faults: {exc}")

    if command == "list":
        for name in EXHIBITS:
            print(name)
        return 0

    if command == "report":
        # Pure artifact rendering: no computation, no execution options.
        if len(args.exhibits) > 1:
            parser.error("report takes no positional arguments; "
                         "use --journal/--manifest/--metrics")
        if not args.journal:
            parser.error("report needs --journal FILE")
        from .sweep_report import render_sweep_report

        try:
            text = render_sweep_report(
                args.journal,
                manifest_path=args.manifest,
                metrics_path=args.metrics,
                top=args.top,
            )
        except (OSError, ValueError) as exc:
            print(f"error: report: {exc}", file=sys.stderr)
            return 1
        print(text)
        return 0

    if command == "validate-trace":
        if len(args.exhibits) < 2:
            parser.error("validate-trace needs a trace file")
        rc = 0
        for path in args.exhibits[1:]:
            errors = validate_trace_file(path)
            if errors:
                rc = 1
                for err in errors:
                    print(f"{path}: {err}", file=sys.stderr)
                print(f"{path}: INVALID ({len(errors)} error(s))")
            else:
                print(f"{path}: OK")
        return rc

    set_execution_options(ExecutionOptions(
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        task_timeout_s=args.task_timeout,
        task_retries=args.task_retries,
    ))

    # Metrics are always on: they back --timings and the progress line as
    # well as the --metrics exports.
    metrics = Metrics()
    recorder = (
        TraceRecorder() if (args.trace or args.trace_dir) else None
    )
    audit = (
        SolveAudit()
        if (args.timings or args.timings_json or command in ("run", "audit"))
        else None
    )
    profile = ProfileCollector() if args.profile else None
    sinks = Sinks(metrics, recorder, audit, profile)

    def export_traces() -> None:
        if recorder is None:
            return
        events = recorder.snapshot()
        targets = []
        if args.trace:
            targets.append(Path(args.trace))
        if args.trace_dir:
            targets.append(Path(args.trace_dir) / "trace.json")
        for target in targets:
            export_chrome_trace(events, target)
            export_jsonl(events, target.with_suffix(".jsonl"))
            print(f"[trace: {len(events)} events -> {target}]")
        if recorder.dropped:
            print(f"[trace: {recorder.dropped} events dropped at capacity]",
                  file=sys.stderr)

    def emit_timings() -> None:
        if not (args.timings or args.timings_json):
            return
        snapshot = metrics.to_dict()
        if args.timings:
            print(timings_summary(snapshot))
            if audit is not None:
                print()
                print(audit.table(snapshot["counters"]))
        if args.timings_json:
            out = Path(args.timings_json)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(
                json.dumps(timings_doc(snapshot, audit), indent=1) + "\n"
            )

    def export_metrics() -> None:
        if args.metrics:
            out = Path(args.metrics)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(metrics.to_json() + "\n")
            print(f"[metrics -> {out}]")
        if args.metrics_prom:
            out = Path(args.metrics_prom)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(prometheus_text(metrics))
            print(f"[metrics (prometheus) -> {out}]")

    def export_profile() -> None:
        if profile is None:
            return
        out = Path(args.profile)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(profile.table() + "\n")
        print(f"[profile: {profile.blocks} cell(s) -> {out}]")

    def export_obs() -> None:
        """Flush every requested observability artifact, in one place."""
        export_traces()
        export_metrics()
        export_profile()
        emit_timings()

    def metrics_doc() -> dict | None:
        """The manifest-safe (deterministic-only) metrics snapshot."""
        return (
            metrics.to_dict(deterministic_only=True)
            if (args.metrics or args.metrics_prom) else None
        )

    def save_manifest(
        save_dir: Path,
        config: object,
        seed: int | None,
        scenario: dict | None = None,
        failures: list[dict] | None = None,
    ) -> None:
        manifest = collect_manifest(
            config, seed=seed, model_layer_version=MODEL_LAYER_VERSION,
            scenario=scenario, failures=failures, metrics=metrics_doc(),
        )
        write_manifest(manifest, save_dir / "manifest.json")

    if command in ("run", "sweep"):
        if len(args.exhibits) > 1:
            parser.error(f"{command} takes no positional arguments; "
                         "use --benchmark/--policies/--scenario")
        n_way = bool(args.policies or args.scenario)
        if command == "sweep" and not n_way:
            args.policies = "static,conductor,lp"
            n_way = True
        if resilience_flags and not n_way:
            parser.error("--keep-going/--journal/--inject-faults require an "
                         "N-way run (--policies or --scenario)")
        if not n_way:
            # Historical three-way output (byte-stable for CI greps).
            cfg = _run_config(args, parser)
            t0 = time.time()
            with sinks.active():
                result = run_comparison(cfg, args.cap)
            text = _comparison_text(result)
            print(text)
            print(f"[run finished in {time.time() - t0:.1f}s]")
            if args.save:
                save_dir = Path(args.save)
                save_dir.mkdir(parents=True, exist_ok=True)
                (save_dir / "run.txt").write_text(text + "\n")
                save_manifest(
                    save_dir,
                    {"command": "run", "cap_per_socket_w": args.cap,
                     "config": cfg.cache_document()},
                    cfg.seed,
                )
            export_obs()
            return 0

        if command == "run":
            caps = (args.cap,)
        else:
            caps = _parse_caps(args.caps, parser) if args.caps else None
        spec = _scenario_spec(args, caps, parser)
        progress = None
        progress_stream = default_progress_stream(args.progress, args.quiet)
        if progress_stream is not None or args.progress_file:
            progress = ProgressReporter(
                total=len(spec.caps_per_socket_w),
                label=f"{command}:{spec.benchmark}",
                stream=progress_stream,
                jsonl_path=args.progress_file,
                metrics=metrics,
            )
        t0 = time.time()
        try:
            with sinks.active():
                result = run_scenarios(
                    spec,
                    keep_going=args.keep_going,
                    journal=args.journal,
                    faults=faults,
                    progress=progress,
                )
        except ParallelExecutionError as exc:
            if progress is not None:
                progress.finish()
            # Without --keep-going a failed cell aborts the sweep; the
            # journal (when given) still holds every settled cell, so a
            # rerun resumes instead of recomputing.
            print(f"error: {exc}", file=sys.stderr)
            if args.journal:
                print(f"[journal {args.journal} keeps completed cells; "
                      "rerun to resume]", file=sys.stderr)
            export_obs()
            return 1
        if progress is not None:
            progress.finish()
        if command == "run":
            text = _scenario_cell_text(result.cells[0], args.baseline)
        else:
            fig = figures.scenario_sweep_figure(result, baseline=args.baseline)
            summary = tables.scenario_summary(result, baseline=args.baseline)
            text = fig.render() + "\n\n" + summary.render()
        print(text)
        print(f"[{command} ({len(spec.policies)}-way, spec "
              f"{spec.spec_hash()[:12]}) finished in {time.time() - t0:.1f}s]")
        failures = result.failure_docs()
        if args.save:
            save_dir = Path(args.save)
            save_dir.mkdir(parents=True, exist_ok=True)
            (save_dir / f"{command}.txt").write_text(text + "\n")
            save_manifest(
                save_dir,
                {"command": command, "scenario": spec.to_doc()},
                spec.seed,
                scenario=spec.to_doc(),
                failures=failures or None,
            )
        export_obs()
        if failures:
            print(f"[keep-going: {len(failures)} of {len(result.cells)} "
                  "cell(s) failed]", file=sys.stderr)
            return 1
        return 0

    if command == "audit":
        names = args.exhibits[1:]
        unknown = [n for n in names if n not in EXHIBITS]
        if unknown:
            parser.error(f"unknown exhibits: {unknown}; try 'list'")
        ranks = 8 if args.quick and args.ranks == 32 else args.ranks
        with sinks.active():
            if names:
                for name in names:
                    EXHIBITS[name](args.quick, ranks)
            else:
                run_comparison(_run_config(args, parser), args.cap)
        print(audit.table(metrics.counters))
        export_obs()
        return 0

    if command == "verify-results":
        if len(args.exhibits) < 2:
            parser.error("verify-results needs a reference directory")
        from .regression import verify_reference_results

        ref_dir = args.exhibits[1]
        names = args.exhibits[2:] or [
            n for n in EXHIBITS if (Path(ref_dir) / f"{n}.txt").exists()
        ]
        with sinks.active():
            results = {
                n: EXHIBITS[n](args.quick, args.ranks) for n in names
            }
        report = verify_reference_results(ref_dir, results)
        print(report.summary())
        export_obs()
        return 0 if report.ok else 1

    names = list(EXHIBITS) if args.exhibits in (["all"], []) else args.exhibits
    unknown = [n for n in names if n not in EXHIBITS]
    if unknown:
        parser.error(f"unknown exhibits: {unknown}; try 'list'")

    ranks = 8 if args.quick and args.ranks == 32 else args.ranks
    save_dir = None
    if args.save:
        save_dir = Path(args.save)
        save_dir.mkdir(parents=True, exist_ok=True)
    svg_dir = None
    if args.svg:
        svg_dir = Path(args.svg)
        svg_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        t0 = time.time()
        with sinks.active():
            result = EXHIBITS[name](args.quick, ranks)
        text = result.render()
        print(text)
        print(f"[{name} regenerated in {time.time() - t0:.1f}s]")
        print()
        if save_dir is not None:
            (save_dir / f"{name}.txt").write_text(text + "\n")
        if svg_dir is not None:
            from .figures_svg import exhibit_to_svg

            svg = exhibit_to_svg(result)
            if svg is not None:
                (svg_dir / f"{name}.svg").write_text(svg)
    if save_dir is not None:
        save_manifest(
            save_dir,
            {"command": "exhibits", "exhibits": names, "ranks": ranks,
             "quick": args.quick},
            None,
        )
    export_obs()
    return 0


if __name__ == "__main__":
    sys.exit(main())
