"""Experiment runner: benchmark sweeps, speedups, energy comparisons.

This is the layer the figures are generated from:

* :func:`run_benchmark` — one (config, benchmark) simulation with a
  deterministic generated trace,
* :func:`compare_architectures` — one benchmark across a set of
  configurations (Figure 4's bar groups),
* :func:`speedup` / :func:`geometric_mean` — normalisation helpers.

Everything that runs more than one simulation goes through a
:class:`repro.sim.parallel.ParallelExperimentEngine`, whose memo lets
Figure 5 reuse Figure 4's runs.  The engine module is imported only
when one is needed, so ``repro run --trace`` never loads it; the
simulator is imported only when something is simulated here, so a
figure served from a warm cache never loads it.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..config.params import SystemConfig
from ..obs.events import Probe
from ..workloads.packed import PackedTrace
from ..workloads.spec_profiles import get_profile
from .result import SimResult

#: Default trace length for figure-quality runs.  Long enough for queue
#: and row-buffer behaviour to reach steady state on every profile,
#: short enough for a pure-Python cycle-level model.
DEFAULT_REQUESTS = 20_000


def run_trace(config: SystemConfig, trace: PackedTrace,
              probe: "Probe | None" = None) -> SimResult:
    """Simulate an explicit trace on one configuration."""
    from .simulator import simulate

    return simulate(config, trace, probe=probe)


def run_benchmark(
    config: SystemConfig,
    benchmark: str,
    requests: int = DEFAULT_REQUESTS,
    seed: Optional[int] = None,
    probe: "Probe | None" = None,
) -> SimResult:
    """Simulate one named benchmark profile on one configuration.

    The trace is regenerated deterministically from the profile seed
    (or an explicit ``seed`` override), so every architecture sees the
    identical access stream.
    """
    from ..workloads.tracegen import generate_trace
    from .simulator import simulate

    profile = get_profile(benchmark)
    if seed is not None:
        profile = dataclasses.replace(profile, seed=seed)
    trace = generate_trace(profile, requests)
    return simulate(config, trace, probe=probe)


def default_engine(engine=None):
    """``engine``, or a fresh serial in-memory engine when it is None."""
    if engine is not None:
        return engine
    from .parallel import ParallelExperimentEngine

    return ParallelExperimentEngine()


def run_grid(engine, jobs: "Sequence[tuple]",
             label: Optional[str] = None) -> List[SimResult]:
    """Run (config, benchmark, requests) tuples as one engine batch.

    The whole batch fans out across the engine's pool in one go; the
    results come back in job order, so a grid runner reads its cells
    from the list instead of asking the engine again per cell.
    ``label`` tags the batch's entries in the sweep journal.
    """
    from .parallel import ExperimentJob

    if label is not None:
        engine.begin_batch(label)
    return engine.run_jobs([ExperimentJob(config, benchmark, requests)
                            for config, benchmark, requests in jobs])


def run_cells(
    engine,
    configs: Dict[str, SystemConfig],
    benchmarks: Sequence[str],
    requests: int,
    label: str,
) -> Dict[Tuple[str, str], SimResult]:
    """Every (benchmark, config label) cell of a figure grid, one batch.

    Jobs are submitted benchmark-major, configs in ``configs`` order.
    Labels whose configs are equal share one job, so a grid merged from
    several figures simulates each distinct system once per benchmark.
    """
    distinct: List[SystemConfig] = []
    for config in configs.values():
        if config not in distinct:
            distinct.append(config)
    column = {name: distinct.index(config)
              for name, config in configs.items()}
    results = run_grid(engine, [(config, bench, requests)
                                for bench in benchmarks
                                for config in distinct], label=label)
    return {
        (bench, name): results[row * len(distinct) + column[name]]
        for row, bench in enumerate(benchmarks) for name in configs
    }


def speedup(result: SimResult, baseline: SimResult) -> float:
    """IPC speedup of ``result`` over ``baseline`` (Figure 4's y-axis)."""
    if baseline.ipc <= 0:
        raise ValueError("baseline IPC must be positive")
    return result.ipc / baseline.ipc


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (the conventional summary for speedups)."""
    if not values:
        raise ValueError("geometric mean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def compare_architectures(
    configs: Dict[str, SystemConfig],
    benchmark: str,
    requests: int = DEFAULT_REQUESTS,
    cache=None,
) -> Dict[str, SimResult]:
    """Run one benchmark across several configurations.

    ``cache`` is a :class:`repro.sim.parallel.ParallelExperimentEngine`
    (default: a fresh serial one); the per-config simulations fan out
    across its worker pool before the results are assembled in label
    order.
    """
    results = run_grid(default_engine(cache),
                       [(config, benchmark, requests)
                        for config in configs.values()],
                       label=f"compare:{benchmark}")
    return dict(zip(configs, results))


def sweep_benchmarks(
    config: SystemConfig,
    benchmarks: Iterable[str],
    requests: int = DEFAULT_REQUESTS,
    cache=None,
) -> Dict[str, SimResult]:
    """Run one configuration across a benchmark list."""
    benchmarks = list(benchmarks)
    results = run_grid(default_engine(cache),
                       [(config, name, requests) for name in benchmarks],
                       label=f"benchmarks:{config.name}")
    return dict(zip(benchmarks, results))


def speedup_table(
    per_benchmark: Dict[str, Dict[str, SimResult]],
    baseline_label: str = "baseline",
) -> Dict[str, Dict[str, float]]:
    """Normalise a {benchmark: {label: result}} nest into speedups.

    Adds a ``gmean`` pseudo-benchmark row summarising each label.
    """
    table: Dict[str, Dict[str, float]] = {}
    labels: List[str] = []
    for benchmark, results in per_benchmark.items():
        base = results[baseline_label]
        row = {
            label: speedup(result, base)
            for label, result in results.items()
            if label != baseline_label
        }
        labels = list(row)
        table[benchmark] = row
    if table:
        table["gmean"] = {
            label: geometric_mean(
                [table[bench][label] for bench in table if bench != "gmean"]
            )
            for label in labels
        }
    return table
