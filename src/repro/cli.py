"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run`` — simulate one (configuration, workload) pair and print the
  summary table,
* ``figure4`` / ``figure5`` / ``table1`` / ``table2`` / ``headline`` —
  regenerate the paper artifacts,
* ``blame`` / ``figure-blame`` — request-lifecycle latency-blame
  decomposition per scheduling policy (why each request waited),
* ``figure-degradation`` — graceful-degradation sweep: IPC retention
  per organisation under write-verify faults and seeded tile kills,
* ``chaos`` — run a sweep under a seeded fault plan and prove the
  results bit-identical to a fault-free serial run (``--device-faults``
  composes a seeded device-level fault plan on top),
* ``watch`` — live ASCII dashboard (or ``--once``/``--json`` snapshot,
  ``--replay`` post-mortem) over the telemetry spool a ``--telemetry``
  run streams,
* ``profile`` — attribute the simulator's own wall time to named
  phases (CPU tick, controller scheduling, bank issue, ...),
* ``perf record`` / ``perf compare`` — write the ``BENCH_PERF.json``
  throughput ledger and gate it against a committed baseline,
* ``trace-gen`` — write a benchmark profile's trace to disk (native or
  NVMain format),
* ``list`` — show the available configurations and benchmark profiles.

Every command is a thin shell over the public library API, so anything
the CLI does can be scripted directly (see ``examples/``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from .config import (
    SystemConfig,
    baseline_nvm,
    fgnvm,
    fgnvm_multi_issue,
    fgnvm_per_sag_buffers,
    many_banks,
    salp,
    with_reliability,
)
from .errors import ExperimentError, ReproError
from .obs.perf.compare import COMPARE_METRICS, DEFAULT_REL_TOL

# Bound here, not imported inside ``_cmd_run``: ``run --trace`` calls it
# through this module global, so wrapping ``repro.cli.read_trace`` sees
# every trace read.  Each command imports the rest of what it uses, so a
# command loads only its own dependencies.
from .workloads.trace_io import read_trace

#: Named configurations the CLI can instantiate.
CONFIG_BUILDERS: Dict[str, Callable[[], SystemConfig]] = {
    "baseline": baseline_nvm,
    "fgnvm-4x4": lambda: fgnvm(4, 4),
    "fgnvm-8x2": lambda: fgnvm(8, 2),
    "fgnvm-8x8": lambda: fgnvm(8, 8),
    "fgnvm-8x32": lambda: fgnvm(8, 32),
    "128-banks": lambda: many_banks(8, 2),
    "multi-issue": lambda: fgnvm_multi_issue(8, 2),
    "sag-buffers": lambda: fgnvm_per_sag_buffers(8, 2),
    "salp-8": lambda: salp(8),
}


def build_config(name: str) -> SystemConfig:
    try:
        return CONFIG_BUILDERS[name]()
    except KeyError:
        known = ", ".join(CONFIG_BUILDERS)
        raise SystemExit(f"unknown config {name!r}; known: {known}")


def _positive_int(text: str) -> int:
    """argparse type of every ``--requests``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every simulating command."""
    parser.add_argument(
        "--workers", type=int, default=1,
        help="simulation processes (0 = one per CPU core; default 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir", default=os.environ.get("REPRO_CACHE_DIR") or None,
        help="persistent result cache directory (default: REPRO_CACHE_DIR); "
             "repeated runs with identical parameters simulate nothing",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print per-job progress with an ETA to stderr",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted run from the sweep journal next to "
             "the cache dir; checkpointed jobs are verified and served "
             "without re-simulation",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget; an overdue pooled job is "
             "presumed hung, its worker killed and the job retried",
    )
    parser.add_argument(
        "--retries", type=int, default=3, metavar="N",
        help="attempts per job for transient failures (crashed worker, "
             "timeout) before giving up (default 3)",
    )
    parser.add_argument(
        "--telemetry", nargs="?", const="auto", default=None,
        metavar="SPOOL",
        help="stream live telemetry frames (job lifecycle, per-epoch "
             "metrics, harness counters) from every worker into the "
             "hub; the optional SPOOL path records a replayable "
             "telemetry.jsonl (default: next to --cache-dir when set). "
             "Watch a live run with `repro watch`",
    )
    parser.add_argument(
        "--drift-envelope", default=None, metavar="PATH",
        help="committed golden-envelope JSON; streamed epoch series "
             "leaving their (config, benchmark) band raise EV_DRIFT "
             "events and manifest findings (needs --telemetry)",
    )


def _spool_path(args) -> Optional[str]:
    """Resolve the ``--telemetry`` spool destination for one command."""
    telemetry = getattr(args, "telemetry", None)
    if telemetry is None:
        return None
    if telemetry != "auto":
        return telemetry
    from .obs.hub import SPOOL_NAME

    if not args.cache_dir:
        return None
    return os.path.join(args.cache_dir, SPOOL_NAME)


def _make_hub(args) -> Optional[TelemetryHub]:
    """The telemetry hub for one command (None when streaming is off)."""
    if (getattr(args, "drift_envelope", None) is not None
            and getattr(args, "telemetry", None) is None):
        raise ExperimentError(
            "--drift-envelope needs --telemetry (the flag only shapes "
            "the live stream)"
        )
    if getattr(args, "telemetry", None) is None:
        return None
    from .obs.drift import DriftDetector, read_envelopes
    from .obs.hub import TelemetryHub

    drift = None
    if args.drift_envelope is not None:
        drift = DriftDetector(envelopes=read_envelopes(args.drift_envelope))
    return TelemetryHub(spool_path=_spool_path(args), drift=drift)


def _make_engine(args):
    """The experiment engine every simulating command routes through."""
    from .resilience.retry import RetryPolicy
    from .sim.parallel import ParallelExperimentEngine
    from .sim.reporting import progress_printer

    if args.workers < 0:
        raise ExperimentError(
            f"--workers must be >= 0 (0 = one process per CPU core, "
            f"1 = serial); got {args.workers}"
        )
    retries = getattr(args, "retries", 3)
    if retries < 1:
        raise ExperimentError(
            f"--retries must be >= 1, got {retries}"
        )
    job_timeout = getattr(args, "job_timeout", None)
    if job_timeout is not None and job_timeout <= 0:
        raise ExperimentError(
            f"--job-timeout must be positive seconds, got {job_timeout}"
        )
    workers = None if args.workers == 0 else args.workers
    return ParallelExperimentEngine(
        workers=workers,
        cache_dir=args.cache_dir,
        # With streaming on, the engine folds each snapshot into the
        # hub before this hook prints it, so a --progress line and
        # `repro watch` read the same engine frame.
        progress=progress_printer() if args.progress else None,
        retry=RetryPolicy(max_attempts=retries),
        job_timeout_s=job_timeout,
        resume=getattr(args, "resume", False),
        telemetry=_make_hub(args),
    )


def _report_engine(args, engine) -> None:
    hub = getattr(engine, "telemetry", None)
    if hub is not None:
        hub.close()
        print(
            f"telemetry: {hub.frames_seen} frame(s) from "
            f"{len(hub.jobs)} job(s), {hub.dropped_frames} dropped"
            + (f", spool {_spool_path(args)}" if _spool_path(args) else ""),
            file=sys.stderr,
        )
        if hub.drift is not None and hub.drift.findings:
            for finding in hub.drift.findings:
                print(f"DRIFT {finding.kind}: {finding.detail}",
                      file=sys.stderr)
    if args.progress or engine.disk is not None:
        stats = engine.stats
        print(
            f"engine: {stats.simulations} simulation(s), "
            f"{stats.cache_hits} cache hit(s) "
            f"({stats.disk_hits} from disk), workers={engine.workers}",
            file=sys.stderr,
        )
        dirty = {k: v for k, v in engine.rstats.as_dict().items()
                 if v and k != "journal_entries"}
        if dirty:
            print(
                "resilience: " + ", ".join(
                    f"{k}={v}" for k, v in sorted(dirty.items())
                ),
                file=sys.stderr,
            )
    manifest_path = engine.write_manifest()
    if manifest_path is not None:
        print(f"run manifest: {manifest_path}", file=sys.stderr)


def _cmd_list(args) -> int:
    from .memsys.policies import policy_names
    from .workloads.spec_profiles import benchmark_names, get_profile

    print("configurations:")
    for name in CONFIG_BUILDERS:
        print(f"  {name}")
    print("\nscheduler policies (--policy; see docs/policies.md):")
    for name in policy_names():
        print(f"  {name}")
    print("\nbenchmark profiles (all LLC MPKI >= 10):")
    for name in benchmark_names():
        profile = get_profile(name)
        print(
            f"  {name:12s} mpki={profile.mpki:<6g} "
            f"writes={profile.write_fraction:.0%}"
        )
    return 0


def _with_policy(config: SystemConfig, args) -> SystemConfig:
    """Apply ``--policy`` (a registry name) to a config.

    Unknown names are reported with the registered list — the registry
    raises a ``ReproError`` subtype that ``main`` turns into a clean
    ``SystemExit``.
    """
    policy = getattr(args, "policy", None)
    if not policy:
        return config
    from .memsys.policies import apply_policy

    return apply_policy(config, policy)


def _with_epoch_cycles(config: SystemConfig, args) -> SystemConfig:
    """Apply ``--epoch-cycles`` to a config (new object, same name)."""
    epoch_cycles = getattr(args, "epoch_cycles", 0)
    if not epoch_cycles:
        return config
    return dataclasses.replace(
        config,
        sim=dataclasses.replace(config.sim, epoch_cycles=epoch_cycles),
    )


def _with_reliability(config: SystemConfig, args) -> SystemConfig:
    """Apply the ``--write-fail-prob``/``--device-kills`` family.

    No reliability flag set leaves the config untouched: the fault
    model stays off and the run is bit-identical to one without these
    flags.  Bad values fail fast with the offending value spelled out,
    in the same style as the engine flags.
    """
    prob = getattr(args, "write_fail_prob", 0.0) or 0.0
    retries = getattr(args, "write_retries", None)
    endurance = getattr(args, "endurance", None)
    spares = getattr(args, "spare_tiles", None)
    rotate = getattr(args, "wear_rotate_every", None)
    seed = getattr(args, "reliability_seed", 0) or 0
    kills = getattr(args, "device_kills", 0) or 0
    if not 0.0 <= prob <= 1.0:
        raise ExperimentError(
            f"--write-fail-prob must be in [0, 1], got {prob}"
        )
    if retries is not None and retries < 1:
        raise ExperimentError(
            f"--write-retries must be >= 1, got {retries}"
        )
    if spares is not None and spares < 1:
        raise ExperimentError(
            f"--spare-tiles must be >= 1, got {spares}"
        )
    if endurance is not None and endurance < 1:
        raise ExperimentError(
            f"--endurance must be >= 1 write per tile, got {endurance}"
        )
    if rotate is not None and rotate < 1:
        raise ExperimentError(
            f"--wear-rotate-every must be >= 1 write, got {rotate}"
        )
    if seed < 0:
        raise ExperimentError(
            f"--reliability-seed must be >= 0, got {seed}"
        )
    if kills < 0:
        raise ExperimentError(
            f"--device-kills must be >= 0, got {kills}"
        )
    if not (prob or endurance is not None or rotate is not None or kills):
        return config
    retries = 3 if retries is None else retries
    spares = 1 if spares is None else spares
    plan = None
    if kills:
        plan = _seeded_kill_plan(config, seed, kills)
    return with_reliability(
        config,
        write_fail_prob=prob,
        max_write_retries=retries,
        endurance_writes=endurance,
        spare_tiles=spares,
        wear_rotate_every=rotate,
        seed=seed,
        fault_plan=plan,
    )


def _seeded_kill_plan(config: SystemConfig, seed: int,
                      kills: int) -> DeviceFaultPlan:
    """A kill plan sized to the config's own bank geometry."""
    from .memsys.reliability import DeviceFaultPlan

    org = config.org
    return DeviceFaultPlan.seeded(
        seed=seed,
        kills=kills,
        banks=org.ranks_per_channel * org.banks_per_rank,
        subarray_groups=org.subarray_groups,
        column_divisions=org.column_divisions,
        # Low thresholds so the kills fire within short CLI runs.
        after_writes=8,
    )


def _check_destinations(args) -> None:
    """Fail before simulating when an output flag's directory is unusable."""
    for flag in ("emit_trace", "emit_metrics", "trace_out"):
        path = getattr(args, flag)
        if not path:
            continue
        out_dir = os.path.dirname(os.path.abspath(path))
        option = "--" + flag.replace("_", "-")
        if not os.path.isdir(out_dir):
            raise ExperimentError(
                f"{option} directory does not exist: {out_dir}"
            )
        if not os.access(out_dir, os.W_OK):
            raise ExperimentError(
                f"{option} directory is not writable: {out_dir}"
            )


def _instrumentation(args, config: SystemConfig):
    """(probe, sink, registry) for the ``--emit-*``/``--trace-*`` flags.

    ``probe`` is :data:`NULL_PROBE` when no flag asks for
    instrumentation; ``sink`` and ``registry`` are None unless an
    ``--emit-*`` flag is given.
    """
    from .obs.events import ListSink, make_probe
    from .obs.registry import MetricRegistry

    _check_destinations(args)
    sink = registry = None
    if args.emit_trace or args.emit_metrics:
        sink, registry = ListSink(), MetricRegistry()
    probe = make_probe(sink, registry, tracer=_make_tracer(args, config))
    return probe, sink, registry


def _emit_artifacts(args, sink, registry) -> None:
    from .obs.export import export_events

    if args.emit_trace:
        count = export_events(sink.events, args.emit_trace)
        print(f"wrote {count} events to {args.emit_trace}", file=sys.stderr)
    if args.emit_metrics:
        with open(args.emit_metrics, "w", encoding="utf-8") as handle:
            json.dump(registry.summary(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote metrics to {args.emit_metrics}", file=sys.stderr)


def _make_tracer(args, config: SystemConfig) -> "RequestTracer | None":
    """Build the request tracer ``--trace-sample``/``--trace-out`` ask for.

    Flag validation follows the engine flags' style: bad values raise
    :class:`ExperimentError` with the offending value spelled out.
    """
    sample = args.trace_sample
    if sample is None and not args.trace_out:
        return None
    if sample is None:
        sample = 1  # --trace-out alone traces every request
    if sample < 1:
        raise ExperimentError(
            f"--trace-sample must be >= 1 (trace every Nth request, "
            f"1 = all); got {sample}"
        )
    from .obs.trace import RequestTracer, seed_from_digest
    from .sim.parallel import config_digest

    return RequestTracer(
        sample_every=sample, seed=seed_from_digest(config_digest(config))
    )


def _emit_tracer_artifacts(args, tracer: RequestTracer) -> None:
    """Print the blame decomposition; export spans when asked."""
    from .obs.export import export_events
    from .obs.trace import blame_report, render_blame, span_to_events

    print()
    print(render_blame(blame_report(tracer.finished, tracer.queue_full)))
    if args.trace_out:
        events = [
            event
            for span in tracer.finished
            for event in span_to_events(span)
        ]
        count = export_events(events, args.trace_out)
        print(
            f"wrote {count} span/blame events to {args.trace_out}",
            file=sys.stderr,
        )


def _cmd_run(args) -> int:
    from .obs.events import NULL_PROBE
    from .sim.epochs import epoch_table
    from .sim.experiment import run_benchmark, run_trace
    from .sim.reporting import dict_table

    config = _with_reliability(
        _with_epoch_cycles(
            _with_policy(build_config(args.config), args), args
        ),
        args,
    )
    probe, sink, registry = _instrumentation(args, config)
    if args.trace:
        result = run_trace(config, read_trace(args.trace), probe=probe)
        workload = args.trace
    elif probe is not NULL_PROBE:
        # Instrumented runs execute in-process: the event stream (and
        # the tracer's spans) are the product, so the result cache/pool
        # must not satisfy the job.
        if registry is not None:
            registry.begin_run(args.benchmark)
        result = run_benchmark(
            config, args.benchmark, args.requests, probe=probe,
        )
        workload = args.benchmark
    else:
        engine = _make_engine(args)
        result = engine.run(config, args.benchmark, args.requests)
        _report_engine(args, engine)
        workload = args.benchmark
    if sink is not None:
        _emit_artifacts(args, sink, registry)
    print(f"{config.name} on {workload}:")
    print(dict_table(result.summary()))
    if result.epochs:
        cpu_ratio = config.cpu.cpu_cycles_per_mem_cycle(config.timing.tck_ns)
        print()
        print(epoch_table(result.epochs, config.sim.epoch_cycles, cpu_ratio))
    if probe.tracer is not None:
        _emit_tracer_artifacts(args, probe.tracer)
    return 0


def _cmd_compare(args) -> int:
    from .sim.experiment import compare_architectures
    from .sim.reporting import series_table

    engine = _make_engine(args)
    configs = {
        name: _with_epoch_cycles(
            _with_policy(build_config(name), args), args
        )
        for name in args.configs
    }
    results = compare_architectures(
        configs, args.benchmark, args.requests, cache=engine
    )
    _report_engine(args, engine)
    rows = {}
    base = next(iter(results.values()))
    for name, result in results.items():
        rows[name] = {
            "ipc": result.ipc,
            "speedup_vs_first": result.ipc / base.ipc,
            "hit_rate": result.stats.row_hit_rate,
            "energy_uj": result.energy.total_pj / 1e6,
        }
    print(f"{args.benchmark} across configurations "
          f"({args.requests} requests):")
    print(series_table(rows, row_label="config"))
    return 0


def _cmd_sweep(args) -> int:
    from .sim.sweeps import parameter_sweep, render_sweep

    engine = _make_engine(args)
    sweep = parameter_sweep(
        _with_policy(build_config(args.config), args),
        args.path,
        [_parse_value(v) for v in args.values],
        args.benchmark,
        args.requests,
        engine=engine,
    )
    _report_engine(args, engine)
    print(render_sweep(sweep))
    return 0


def _parse_value(token: str):
    for caster in (int, float):
        try:
            return caster(token)
        except ValueError:
            continue
    if token.lower() in ("true", "false"):
        return token.lower() == "true"
    return token


def _report_problems(problems: List[str], label: str) -> int:
    """Print each problem to stderr; the command's exit code."""
    for problem in problems:
        print(f"{label}: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _grid_figure(args, run, render, check) -> int:
    """A figure over the benchmark grid, simulated through the engine."""
    engine = _make_engine(args)
    result = run(args.benchmarks or None, args.requests, engine=engine)
    _report_engine(args, engine)
    print(render(result))
    return _report_problems(check(result), "SHAPE VIOLATION")


def _cmd_figure4(args) -> int:
    from .analysis.figure4 import (
        check_figure4_shape,
        render_figure4,
        run_figure4,
    )

    return _grid_figure(args, run_figure4, render_figure4,
                        check_figure4_shape)


def _cmd_figure5(args) -> int:
    from .analysis.figure5 import (
        check_figure5_shape,
        render_figure5,
        run_figure5,
    )

    return _grid_figure(args, run_figure5, render_figure5,
                        check_figure5_shape)


def _cmd_figure_policies(args) -> int:
    from .analysis.figure_policies import (
        check_figure_policies_shape,
        render_figure_policies,
        run_figure_policies,
    )

    return _grid_figure(args, run_figure_policies, render_figure_policies,
                        check_figure_policies_shape)


def _cmd_figure_degradation(args) -> int:
    from .analysis.figure_degradation import (
        check_figure_degradation_shape,
        render_figure_degradation,
        run_figure_degradation,
    )

    return _grid_figure(args, run_figure_degradation,
                        render_figure_degradation,
                        check_figure_degradation_shape)


def _cmd_blame(args) -> int:
    """Per-policy latency-blame decomposition, optionally archived."""
    from .analysis.figure_blame import render_figure_blame, run_figure_blame
    from .analysis.figure_policies import figure_policies_configs
    from .obs.export import export_events
    from .obs.manifest import JobRecord, RunManifest
    from .obs.trace import span_to_events
    from .sim.parallel import CODE_VERSION, config_digest

    if args.sample < 1:
        raise ExperimentError(
            f"--sample must be >= 1 (trace every Nth request, 1 = all); "
            f"got {args.sample}"
        )
    out_dir = None
    if args.out:
        out_dir = os.path.abspath(args.out)
        parent = os.path.dirname(out_dir)
        if not os.path.isdir(parent):
            raise ExperimentError(
                f"--out parent directory does not exist: {parent}"
            )
    result = run_figure_blame(
        args.benchmarks or None,
        args.requests,
        sample_every=args.sample,
        keep_spans=out_dir is not None,
    )
    print(render_figure_blame(result))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        report_path = os.path.join(out_dir, "blame-report.json")
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "requests": result.requests,
                    "sample_every": result.sample_every,
                    "organisations": result.organisations,
                    "reports": result.reports,
                },
                handle, indent=2, sort_keys=True,
            )
            handle.write("\n")
        configs = figure_policies_configs()
        manifest = RunManifest(code_version=CODE_VERSION)
        for (bench, series), (wall_s, cycles, instructions) in sorted(
            result.jobs.items()
        ):
            config = configs[series]
            manifest.jobs.append(JobRecord(
                key="", config=config.name,
                config_digest=config_digest(config), benchmark=bench,
                requests=result.requests, seed=None, source="simulated",
                wall_s=round(wall_s, 4), cycles=cycles,
                instructions=instructions,
            ))
            manifest.wall_s += wall_s
            manifest.busy_s += wall_s
            manifest.blame[f"{bench}/{series}"] = (
                result.reports[bench][series]
            )
        manifest.write(os.path.join(out_dir, "run-manifest.json"))
        for (bench, series), spans in sorted(result.spans.items()):
            span_path = os.path.join(
                out_dir, f"spans-{bench}-{series}.jsonl"
            )
            export_events(
                [e for span in spans for e in span_to_events(span)],
                span_path,
            )
        print(f"wrote blame report, run manifest and "
              f"{len(result.spans)} span log(s) to {out_dir}",
              file=sys.stderr)
    return 0


def _cmd_figure_blame(args) -> int:
    from .analysis.figure_blame import (
        check_figure_blame_shape,
        render_figure_blame,
        run_figure_blame,
    )

    result = run_figure_blame(
        args.benchmarks or None, args.requests, sample_every=args.sample
    )
    print(render_figure_blame(result))
    return _report_problems(check_figure_blame_shape(result),
                            "SHAPE VIOLATION")


def _cmd_figure3(args) -> int:
    from .analysis.figure3 import check_figure3, render_figure3, run_figure3

    scenarios = run_figure3()
    print(render_figure3(scenarios))
    return _report_problems(check_figure3(scenarios), "SHAPE VIOLATION")


def _cmd_table1(args) -> int:
    from .analysis.table1 import check_table1, render_table1, run_table1

    result = run_table1()
    print(render_table1(result))
    return _report_problems(check_table1(result), "MISMATCH")


def _cmd_table2(args) -> int:
    from .analysis.table2 import check_table2, render_table2

    print(render_table2())
    return _report_problems(check_table2(), "MISMATCH")


def _cmd_headline(args) -> int:
    from .analysis.calibration import render_headline, run_headline

    engine = _make_engine(args)
    result = run_headline(
        args.requests, args.benchmarks or None, engine=engine
    )
    _report_engine(args, engine)
    print(render_headline(result))
    return 0


def _cmd_reproduce(args) -> int:
    from .analysis.reproduce import reproduce_all

    engine = _make_engine(args)
    manifest = reproduce_all(
        args.out, args.requests, args.benchmarks or None, engine=engine
    )
    _report_engine(args, engine)
    print(manifest.render())
    return 0 if manifest.clean else 1


def _device_faulted_chaos_config(config: SystemConfig,
                                 args) -> SystemConfig:
    """Compose engine-level chaos with a seeded device fault plan.

    The returned config kills ``--device-faults`` tiles and fails write
    verifies; the whole chaos batch then runs on it, so crashes,
    retries and cache round-trips are proven not to perturb the seeded
    device fault draws.  Before returning, fault-free mode is asserted
    bit-identical to the plain config: carrying a *disabled*
    reliability block must not change a single counter.
    """
    from .sim.experiment import run_benchmark

    plan = _seeded_kill_plan(config, args.seed, args.device_faults)
    print(plan.describe())
    faulted = with_reliability(
        config,
        write_fail_prob=0.05,
        max_write_retries=8,
        seed=args.seed,
        fault_plan=plan,
        name=f"{config.name}+device-faults",
    )
    disabled = dataclasses.replace(
        faulted,
        name=config.name,
        reliability=dataclasses.replace(
            faulted.reliability, enabled=False
        ),
    )
    clean = run_benchmark(config, args.benchmark, args.requests).summary()
    carried = run_benchmark(
        disabled, args.benchmark, args.requests
    ).summary()
    if clean != carried:
        raise ExperimentError(
            "fault-free mode is not bit-identical to the plain config: "
            "a disabled reliability block changed the results"
        )
    print("fault-free mode: bit-identical to the plain config")
    return faulted


def _cmd_chaos(args) -> int:
    """Prove fault tolerance: chaos run bit-identical to a clean one."""
    import tempfile

    from .resilience.faults import FaultPlan
    from .resilience.retry import RetryPolicy
    from .sim.parallel import ExperimentJob, ParallelExperimentEngine

    if args.jobs < 1:
        raise ExperimentError(f"--jobs must be >= 1, got {args.jobs}")
    if args.device_faults < 0:
        raise ExperimentError(
            f"--device-faults must be >= 0, got {args.device_faults}"
        )
    config = build_config(args.config)
    if args.device_faults:
        config = _device_faulted_chaos_config(config, args)
    jobs = [
        ExperimentJob(config, args.benchmark, args.requests, seed=seed)
        for seed in range(args.jobs)
    ]
    plan = FaultPlan.seeded(
        seed=args.seed,
        n_jobs=args.jobs,
        crashes=args.crashes,
        hangs=args.hangs,
        transients=args.transients,
        corrupt=args.corrupt,
        torn=args.torn,
        disk_full=args.disk_full,
        hang_seconds=args.hang_seconds,
    )
    print(plan.describe())

    cache_dir = args.cache_dir or tempfile.mkdtemp(prefix="repro-chaos-")

    # Ground truth: serial, no cache, no faults.
    clean = ParallelExperimentEngine(workers=1)
    expected = [r.summary() for r in clean.run_jobs(jobs)]

    if args.workers < 0:
        raise ExperimentError(
            f"--workers must be >= 0 (0 = one process per CPU core, "
            f"1 = serial); got {args.workers}"
        )
    chaotic = ParallelExperimentEngine(
        workers=None if args.workers == 0 else args.workers,
        cache_dir=cache_dir,
        fault_plan=plan,
        job_timeout_s=args.job_timeout,
        retry=RetryPolicy(max_attempts=args.retries),
    )
    chaotic.begin_batch(f"chaos:seed={args.seed}")
    survived = [r.summary() for r in chaotic.run_jobs(jobs)]
    chaotic.write_manifest()
    rstats = chaotic.rstats
    print(
        f"chaos run: {chaotic.stats.executed} simulated, "
        f"{rstats.retries} retry(ies), "
        f"{rstats.worker_crashes} worker crash(es), "
        f"{rstats.timeouts} timeout(s), "
        f"{rstats.pool_rebuilds} pool rebuild(s), "
        f"{chaotic.stats.corrupt_blobs} blob(s) quarantined"
    )

    # A fresh engine resuming from the chaos run's journal + cache must
    # reproduce everything without re-simulating the intact jobs.
    readback = ParallelExperimentEngine(workers=1, cache_dir=cache_dir,
                                        resume=True)
    replayed = [r.summary() for r in readback.run_jobs(jobs)]
    print(
        f"resume: {readback.resumable_jobs} job(s) checkpointed, "
        f"{readback.stats.executed} re-simulated "
        f"(corrupt checkpoints only)"
    )

    problems = []
    if survived != expected:
        problems.append("chaos-run results differ from the clean run")
    if replayed != expected:
        problems.append("resumed results differ from the clean run")
    for problem in problems:
        print(f"MISMATCH: {problem}", file=sys.stderr)
    if not problems:
        print(f"all {args.jobs} job(s) bit-identical across clean, "
              f"chaos and resumed runs")
    return 1 if problems else 0


def _is_telemetry_spool(path: str) -> bool:
    """True when the file's first line is a telemetry frame."""
    from .obs.stream import FRAME_SCHEMA

    try:
        with open(path, "r", encoding="utf-8") as handle:
            head = handle.readline()
    except OSError:
        return False
    return FRAME_SCHEMA in head


def _cmd_inspect(args) -> int:
    from .obs.hub import TelemetryHub, render_dashboard
    from .obs.inspect import (
        inspect_trace,
        load_events,
        render_engine_report,
        summarize_events,
        summarize_manifest,
    )
    from .obs.manifest import read_manifest

    if args.engine:
        path = args.trace
        if os.path.isdir(path):
            path = os.path.join(path, "run-manifest.json")
        summary = summarize_manifest(read_manifest(path))
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(render_engine_report(summary))
        return 0
    if _is_telemetry_spool(args.trace):
        # A telemetry.jsonl spool: replay it through the hub instead of
        # the event-trace analyzer (the spool holds frames, not events).
        hub = TelemetryHub.replay(args.trace)
        if args.json:
            print(json.dumps(hub.snapshot(), indent=2, sort_keys=True))
        else:
            print(render_dashboard(hub))
        return 0
    if args.json:
        summary = summarize_events(load_events(args.trace))
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(inspect_trace(args.trace, timeline_width=args.timeline,
                        blame=args.blame))
    return 0


def _cmd_watch(args) -> int:
    """Live (or replayed) sweep dashboard over a telemetry spool."""
    from .obs.drift import DriftDetector, read_envelopes
    from .obs.hub import SPOOL_NAME, TelemetryHub, render_dashboard
    from .obs.stream import read_spool

    spool = args.spool
    if spool is None:
        cache_dir = (getattr(args, "cache_dir", None)
                     or os.environ.get("REPRO_CACHE_DIR") or ".")
        spool = os.path.join(cache_dir, SPOOL_NAME)
    elif os.path.isdir(spool):
        spool = os.path.join(spool, SPOOL_NAME)
    drift = None
    if args.drift_envelope is not None:
        drift = DriftDetector(envelopes=read_envelopes(args.drift_envelope))
    once = args.once or args.json or args.replay
    if once:
        hub = TelemetryHub.replay(spool, drift=drift)
        if args.json:
            print(json.dumps(hub.snapshot(), indent=2, sort_keys=True))
        else:
            print(render_dashboard(hub, width=args.width))
        return 0

    # Follow mode: poll the spool tail and refresh the dashboard until
    # interrupted.  Torn tails (a writer mid-append) are retried on the
    # next tick by read_spool's offset contract.
    if not os.path.exists(spool):
        raise ExperimentError(
            f"no telemetry spool at {spool}; start a run with "
            "--telemetry (and --cache-dir), or pass the spool path"
        )
    hub = TelemetryHub(drift=drift)
    offset = 0
    try:
        while True:
            frames, offset = read_spool(spool, offset)
            for frame in frames:
                hub.fold(frame)
            dashboard = render_dashboard(hub, width=args.width)
            if sys.stdout.isatty():
                sys.stdout.write("\x1b[2J\x1b[H" + dashboard + "\n")
            else:
                sys.stdout.write(dashboard + "\n\n")
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _profiled_run(config: SystemConfig, benchmark: str,
                  requests: int) -> Tuple[SimResult, PhaseTimer]:
    """One simulation with every phase timed into a fresh timer."""
    from .obs.perf.profiler import PH_TRACE_DECODE, PhaseTimer, attached
    from .sim.experiment import run_trace
    from .workloads.spec_profiles import get_profile
    from .workloads.tracegen import generate_trace

    timer = PhaseTimer()
    with timer.phase(PH_TRACE_DECODE):
        trace = generate_trace(get_profile(benchmark), requests)
    with attached(timer):
        result = run_trace(config, trace)
    return result, timer


def _cmd_profile(args) -> int:
    """Attribute the simulator's own wall time to named phases."""
    from .obs.perf.profiler import phase_table
    from .sim.reporting import dict_table

    config = build_config(args.config)
    pstats_profile = None
    if args.emit_pstats:
        import cProfile

        pstats_profile = cProfile.Profile()
        pstats_profile.enable()
    started = time.perf_counter()
    result, timer = _profiled_run(config, args.benchmark, args.requests)
    wall_s = time.perf_counter() - started
    if pstats_profile is not None:
        pstats_profile.disable()
        pstats_profile.dump_stats(args.emit_pstats)
        print(f"wrote cProfile stats to {args.emit_pstats} "
              f"(python -m pstats / snakeviz)", file=sys.stderr)
    print(f"profile: {config.name} on {args.benchmark} "
          f"({args.requests} requests)")
    # The run summary first: profiling is pure observation, so this
    # block is identical to what `repro run` prints for the same job.
    print(dict_table(result.summary()))
    print()
    print(phase_table(timer))
    print()
    print(
        f"throughput: {result.cycles / wall_s:,.0f} simulated cycles/s, "
        f"{args.requests / wall_s:,.0f} requests/s "
        f"({wall_s:.3f} s wall, {result.cycles} cycles)"
    )
    return 0


def _cmd_perf(args) -> int:
    return {"record": _perf_record, "compare": _perf_compare}[
        args.perf_command
    ](args)


def _perf_record(args) -> int:
    """Measure simulator throughput and write the BENCH_PERF.json ledger."""
    from .obs.perf.ledger import PerfEntry, PerfLedger
    from .sim.experiment import run_benchmark
    from .sim.parallel import CODE_VERSION

    if args.repeats < 1:
        raise ExperimentError(f"--repeats must be >= 1, got {args.repeats}")
    ledger = PerfLedger(code_version=CODE_VERSION)
    for config_name in args.configs:
        config = build_config(config_name)
        for benchmark in args.benchmarks:
            entry = PerfEntry(
                name=f"{config_name}:{benchmark}:{args.requests}",
                config=config_name,
                benchmark=benchmark,
                requests=args.requests,
            )
            result = None
            for _ in range(args.repeats):
                started = time.perf_counter()
                result = run_benchmark(config, benchmark, args.requests)
                entry.samples_wall_s.append(time.perf_counter() - started)
            entry.sim_cycles = result.cycles
            entry.instructions = result.instructions
            if args.phases:
                # A separate profiled run, so the timing samples above
                # are not perturbed by the profiler's own clock reads.
                _, timer = _profiled_run(config, benchmark, args.requests)
                entry.phases = timer.as_dict()
            ledger.add_entry(entry)
            print(
                f"  {entry.name}: {entry.cycles_per_s:,.0f} cycles/s, "
                f"{entry.requests_per_s:,.0f} requests/s "
                f"(median of {args.repeats}, {entry.wall_s:.3f} s)"
            )
    path = ledger.write(args.out)
    print(f"wrote perf ledger: {path} "
          f"(host {ledger.fingerprint}, git {ledger.git_sha})")
    return 0


def _perf_compare(args) -> int:
    """Gate NEW against OLD; non-zero exit on a same-host regression."""
    from .obs.perf.compare import compare_ledgers
    from .obs.perf.ledger import read_ledger

    if args.rel_tol < 0:
        raise ExperimentError(
            f"--rel-tol must be >= 0, got {args.rel_tol}"
        )
    if not os.path.exists(args.old):
        print(f"no baseline ledger at {args.old}; nothing to gate "
              f"(record one with `repro perf record`)")
        return 0
    report = compare_ledgers(
        read_ledger(args.old),
        read_ledger(args.new),
        rel_tol=args.rel_tol,
        metric=args.metric,
    )
    print(report.render())
    return 0 if report.ok else 1


def _cmd_trace_gen(args) -> int:
    from .workloads.spec_profiles import get_profile
    from .workloads.trace_io import write_nvmain_trace, write_trace
    from .workloads.tracegen import generate_trace

    profile = get_profile(args.profile)
    records = generate_trace(profile, args.count)
    if args.format == "nvmain":
        written = write_nvmain_trace(records, args.output)
    else:
        written = write_trace(records, args.output)
    print(f"wrote {written} records to {args.output} ({args.format})")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FgNVM (DAC 2016) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show configs and benchmark profiles")

    run_p = sub.add_parser("run", help="simulate one config + workload")
    run_p.add_argument("--config", default="fgnvm-8x2",
                       choices=sorted(CONFIG_BUILDERS))
    run_p.add_argument(
        "--policy", default=None, metavar="NAME",
        help="scheduler policy from the registry (repro list shows "
             "the names); overrides the config's default pair",
    )
    run_p.add_argument("--benchmark", default="mcf")
    run_p.add_argument("--requests", type=_positive_int, default=5000)
    run_p.add_argument("--trace", help="replay a native trace file instead")
    run_p.add_argument(
        "--epoch-cycles", type=int, default=0,
        help="record per-epoch counter deltas every N memory cycles "
             "and print the epoch table",
    )
    run_p.add_argument(
        "--emit-trace", metavar="PATH",
        help="write the structured event stream (.jsonl = JSONL event "
             "log, anything else = Chrome-trace JSON for Perfetto)",
    )
    run_p.add_argument(
        "--emit-metrics", metavar="PATH",
        help="write the per-tile metric registry summary as JSON",
    )
    run_p.add_argument(
        "--trace-sample", type=int, default=None, metavar="N",
        help="trace every Nth request through the lifecycle tracer "
             "(1 = all) and print the latency-blame decomposition; "
             "the sample phase is seeded from the config digest, so "
             "identical configs sample identical requests",
    )
    run_p.add_argument(
        "--trace-out", metavar="PATH",
        help="write the sampled request spans and blame segments "
             "(.jsonl = JSONL event log, anything else = Chrome-trace "
             "JSON); implies --trace-sample 1 unless given",
    )
    rel_g = run_p.add_argument_group(
        "device reliability (any flag enables the seeded fault model; "
        "see docs/resilience.md)"
    )
    rel_g.add_argument(
        "--write-fail-prob", type=float, default=0.0, metavar="P",
        help="per-pulse write-verify failure probability in [0, 1]",
    )
    rel_g.add_argument(
        "--write-retries", type=int, default=None, metavar="N",
        help="verify-retry budget per write (default 3)",
    )
    rel_g.add_argument(
        "--endurance", type=int, default=None, metavar="WRITES",
        help="per-tile endurance: retire a tile after this many write "
             "pulses (default: unlimited)",
    )
    rel_g.add_argument(
        "--spare-tiles", type=int, default=None, metavar="N",
        help="spare tiles per bank consumed before remapping "
             "(default 1)",
    )
    rel_g.add_argument(
        "--wear-rotate-every", type=int, default=None, metavar="WRITES",
        help="issue one background wear-leveling migration per N "
             "demand writes per bank (default: off)",
    )
    rel_g.add_argument(
        "--reliability-seed", type=int, default=0, metavar="SEED",
        help="seed for the deterministic fault draws (default 0)",
    )
    rel_g.add_argument(
        "--device-kills", type=int, default=0, metavar="N",
        help="kill N seeded tiles across the config's banks",
    )
    _add_engine_flags(run_p)

    for name in ("figure4", "figure5"):
        fig_p = sub.add_parser(name, help=f"regenerate {name}")
        fig_p.add_argument("--benchmarks", nargs="*", default=[])
        fig_p.add_argument("--requests", type=_positive_int, default=2500)
        _add_engine_flags(fig_p)

    cmp_p = sub.add_parser("compare", help="one benchmark, many configs")
    cmp_p.add_argument("--configs", nargs="+",
                       default=["baseline", "fgnvm-8x2", "128-banks"],
                       choices=sorted(CONFIG_BUILDERS))
    cmp_p.add_argument(
        "--policy", default=None, metavar="NAME",
        help="scheduler policy applied to every compared config",
    )
    cmp_p.add_argument("--benchmark", default="mcf")
    cmp_p.add_argument("--requests", type=_positive_int, default=3000)
    cmp_p.add_argument(
        "--epoch-cycles", type=int, default=0,
        help="record per-epoch counter deltas every N memory cycles",
    )
    _add_engine_flags(cmp_p)

    sweep_p = sub.add_parser("sweep", help="sweep one config knob")
    sweep_p.add_argument("--config", default="fgnvm-8x2",
                         choices=sorted(CONFIG_BUILDERS))
    sweep_p.add_argument("--path", required=True,
                         help="dotted config path, e.g. org.column_divisions")
    sweep_p.add_argument("--values", nargs="+", required=True)
    sweep_p.add_argument(
        "--policy", default=None, metavar="NAME",
        help="scheduler policy applied to the swept config",
    )
    sweep_p.add_argument("--benchmark", default="mcf")
    sweep_p.add_argument("--requests", type=_positive_int, default=2000)
    _add_engine_flags(sweep_p)

    pol_p = sub.add_parser(
        "figure-policies",
        help="policy-zoo comparison: FgNVM vs PALP vs SALP speedup "
             "and energy",
    )
    pol_p.add_argument("--benchmarks", nargs="*", default=[])
    pol_p.add_argument("--requests", type=_positive_int, default=2500)
    _add_engine_flags(pol_p)

    deg_p = sub.add_parser(
        "figure-degradation",
        help="graceful-degradation sweep: per-organisation IPC "
             "retention under write-verify faults and seeded tile "
             "kills",
    )
    deg_p.add_argument("--benchmarks", nargs="*", default=[])
    deg_p.add_argument("--requests", type=_positive_int, default=2500)
    _add_engine_flags(deg_p)

    blame_p = sub.add_parser(
        "blame",
        help="per-policy latency-blame decomposition: why each request "
             "waited (tile conflicts, write drains, scheduling, ...)",
    )
    blame_p.add_argument("--benchmarks", nargs="*", default=[])
    blame_p.add_argument("--requests", type=_positive_int, default=2500)
    blame_p.add_argument(
        "--sample", type=int, default=1, metavar="N",
        help="trace every Nth request (default 1 = all)",
    )
    blame_p.add_argument(
        "--out", default=None, metavar="DIR",
        help="also archive blame-report.json, run-manifest.json and "
             "per-(benchmark, policy) span logs into DIR",
    )

    fblame_p = sub.add_parser(
        "figure-blame",
        help="blame companion to figure-policies: check that FgNVM's "
             "speedup comes from conflict blame collapsing",
    )
    fblame_p.add_argument("--benchmarks", nargs="*", default=[])
    fblame_p.add_argument("--requests", type=_positive_int, default=2500)
    fblame_p.add_argument(
        "--sample", type=int, default=1, metavar="N",
        help="trace every Nth request (default 1 = all)",
    )

    sub.add_parser("figure3", help="access-scheme timelines (Figure 3)")
    sub.add_parser("table1", help="regenerate Table 1 (area)")
    sub.add_parser("table2", help="regenerate Table 2 (setup)")

    head_p = sub.add_parser("headline", help="Section 7 claims")
    head_p.add_argument("--benchmarks", nargs="*", default=[])
    head_p.add_argument("--requests", type=_positive_int, default=2500)
    _add_engine_flags(head_p)

    rep_p = sub.add_parser(
        "reproduce", help="regenerate every artifact into a directory"
    )
    rep_p.add_argument("--out", default="reproduction")
    rep_p.add_argument("--requests", type=_positive_int, default=2500)
    rep_p.add_argument("--benchmarks", nargs="*", default=[])
    _add_engine_flags(rep_p)

    chaos_p = sub.add_parser(
        "chaos",
        help="run a sweep under injected faults; verify bit-identical "
             "results",
    )
    chaos_p.add_argument("--config", default="fgnvm-8x2",
                         choices=sorted(CONFIG_BUILDERS))
    chaos_p.add_argument("--benchmark", default="mcf")
    chaos_p.add_argument("--requests", type=_positive_int, default=600)
    chaos_p.add_argument("--jobs", type=int, default=6,
                         help="seed-varied jobs in the batch (default 6)")
    chaos_p.add_argument("--workers", type=int, default=2)
    chaos_p.add_argument("--seed", type=int, default=0,
                         help="fault plan seed (default 0)")
    chaos_p.add_argument("--crashes", type=int, default=1,
                         help="workers killed mid-job (default 1)")
    chaos_p.add_argument("--hangs", type=int, default=0,
                         help="jobs that hang past --job-timeout")
    chaos_p.add_argument("--transients", type=int, default=1,
                         help="jobs raising a transient error (default 1)")
    chaos_p.add_argument("--corrupt", type=int, default=1,
                         help="cache blobs bit-flipped after write "
                              "(default 1)")
    chaos_p.add_argument("--torn", type=int, default=0,
                         help="cache blobs truncated after write")
    chaos_p.add_argument("--disk-full", type=int, default=0,
                         help="cache writes raising ENOSPC")
    chaos_p.add_argument("--hang-seconds", type=float, default=30.0,
                         help="how long a hung job sleeps (default 30)")
    chaos_p.add_argument("--job-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-job wall-clock budget (required for "
                              "--hangs to be survivable)")
    chaos_p.add_argument("--retries", type=int, default=3, metavar="N")
    chaos_p.add_argument(
        "--device-faults", type=int, default=0, metavar="N",
        help="also kill N seeded tiles (plus 5%% write-verify "
             "failures) and run the whole batch on the faulted "
             "config; fault-free mode is first asserted bit-identical "
             "to the plain config",
    )
    chaos_p.add_argument("--cache-dir", default=None,
                         help="cache/journal directory (default: fresh "
                              "temp dir)")

    ins_p = sub.add_parser(
        "inspect", help="summarize an exported event trace"
    )
    ins_p.add_argument("trace", help="JSONL event log or Chrome-trace JSON")
    ins_p.add_argument(
        "--timeline", type=int, default=0, metavar="WIDTH",
        help="also render an ASCII tile timeline WIDTH columns wide",
    )
    ins_p.add_argument(
        "--json", action="store_true",
        help="emit the full summary as machine-readable JSON instead "
             "of the ASCII report (occupancy, Multi-Activation, "
             "reads-under-write, counters, blame decomposition)",
    )
    ins_p.add_argument(
        "--blame", action="store_true",
        help="render the full latency-blame decomposition from the "
             "trace's request spans (repro run --trace-sample)",
    )
    ins_p.add_argument(
        "--engine", action="store_true",
        help="treat the positional argument as a run-manifest.json (or "
             "a cache dir containing one) and render the fleet "
             "telemetry: worker utilization, retries, cache hits, "
             "corrupt blobs, slowest jobs",
    )

    watch_p = sub.add_parser(
        "watch",
        help="live sweep dashboard over a telemetry spool "
             "(start the run with --telemetry)",
    )
    watch_p.add_argument(
        "spool", nargs="?", default=None,
        help="telemetry.jsonl spool (or the cache dir containing one); "
             "defaults to <REPRO_CACHE_DIR or .>/telemetry.jsonl",
    )
    watch_p.add_argument(
        "--once", action="store_true",
        help="render one dashboard frame and exit (headless / CI)",
    )
    watch_p.add_argument(
        "--json", action="store_true",
        help="emit the schema-versioned hub snapshot as JSON instead "
             "of the dashboard (implies --once)",
    )
    watch_p.add_argument(
        "--replay", action="store_true",
        help="replay a finished run's spool into one final dashboard "
             "(same as --once; reads the whole file)",
    )
    watch_p.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh interval in follow mode (default 1.0)",
    )
    watch_p.add_argument(
        "--width", type=int, default=72,
        help="dashboard width in columns (default 72)",
    )
    watch_p.add_argument(
        "--drift-envelope", default=None, metavar="PATH",
        help="re-check the replayed epoch series against a committed "
             "golden envelope and flag anomalies",
    )

    prof_p = sub.add_parser(
        "profile",
        help="profile the simulator itself: wall time per phase",
    )
    prof_p.add_argument("--config", default="fgnvm-8x2",
                        choices=sorted(CONFIG_BUILDERS))
    prof_p.add_argument("--benchmark", default="mcf")
    prof_p.add_argument("--requests", type=_positive_int, default=5000)
    prof_p.add_argument(
        "--emit-pstats", metavar="PATH",
        help="additionally run under cProfile and dump a standard "
             "pstats file for python -m pstats / snakeviz",
    )

    perf_p = sub.add_parser(
        "perf",
        help="simulator throughput ledger (BENCH_PERF.json) and the "
             "perf regression gate",
    )
    perf_sub = perf_p.add_subparsers(dest="perf_command", required=True)
    rec_p = perf_sub.add_parser(
        "record", help="measure throughput and write a perf ledger"
    )
    rec_p.add_argument("--configs", nargs="+", default=["fgnvm-8x2"],
                       choices=sorted(CONFIG_BUILDERS))
    rec_p.add_argument("--benchmarks", nargs="+", default=["mcf"])
    rec_p.add_argument("--requests", type=_positive_int, default=2000)
    rec_p.add_argument(
        "--repeats", type=int, default=3, metavar="N",
        help="timing samples per point; the ledger stores all of them "
             "and rates use the median (default 3)",
    )
    rec_p.add_argument(
        "--phases", action="store_true",
        help="attach a phase breakdown from one extra profiled run",
    )
    rec_p.add_argument("--out", default="BENCH_PERF.json",
                       help="ledger path (default BENCH_PERF.json)")
    pcmp_p = perf_sub.add_parser(
        "compare",
        help="compare two ledgers; exit 1 on a same-host regression",
    )
    pcmp_p.add_argument("old", help="baseline ledger (committed)")
    pcmp_p.add_argument("new", help="freshly recorded ledger")
    pcmp_p.add_argument(
        "--rel-tol", type=float, default=DEFAULT_REL_TOL,
        help=f"relative throughput tolerance (default "
             f"{DEFAULT_REL_TOL:.0%}); single-sample entries get 2x",
    )
    pcmp_p.add_argument(
        "--metric", default="cycles_per_s", choices=COMPARE_METRICS,
        help="ledger metric to gate on (throughput metrics are "
             "higher-is-better; wall_s regresses upward)",
    )

    gen_p = sub.add_parser("trace-gen", help="write a profile trace")
    gen_p.add_argument("--profile", default="mcf")
    gen_p.add_argument("--count", type=int, default=10_000)
    gen_p.add_argument("--output", required=True)
    gen_p.add_argument("--format", choices=("native", "nvmain"),
                       default="native")
    return parser


_HANDLERS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "figure3": _cmd_figure3,
    "figure4": _cmd_figure4,
    "figure5": _cmd_figure5,
    "figure-policies": _cmd_figure_policies,
    "figure-degradation": _cmd_figure_degradation,
    "blame": _cmd_blame,
    "figure-blame": _cmd_figure_blame,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "headline": _cmd_headline,
    "reproduce": _cmd_reproduce,
    "chaos": _cmd_chaos,
    "inspect": _cmd_inspect,
    "watch": _cmd_watch,
    "profile": _cmd_profile,
    "perf": _cmd_perf,
    "trace-gen": _cmd_trace_gen,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `repro watch ... | head`);
        # suppress the reopen-on-exit error and leave quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
