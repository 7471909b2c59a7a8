"""Experiment runner: benchmark sweeps, speedups, energy comparisons.

This is the layer the figures are generated from:

* :func:`run_benchmark` — one (config, benchmark) simulation with a
  deterministic generated trace,
* :func:`compare_architectures` — one benchmark across a set of
  configurations (Figure 4's bar groups),
* :func:`speedup` / :func:`geometric_mean` — normalisation helpers,
* :class:`ExperimentCache` — memoises simulations within a process so
  Figure 5 can reuse Figure 4's runs.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..config.params import SystemConfig
from ..obs.events import Probe
from ..workloads.packed import PackedTrace
from ..workloads.spec_profiles import get_profile
from ..workloads.tracegen import generate_trace
from .simulator import SimResult, simulate

#: Default trace length for figure-quality runs.  Long enough for queue
#: and row-buffer behaviour to reach steady state on every profile,
#: short enough for a pure-Python cycle-level model.
DEFAULT_REQUESTS = 20_000


def run_trace(config: SystemConfig, trace: PackedTrace,
              probe: "Probe | None" = None) -> SimResult:
    """Simulate an explicit trace on one configuration."""
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
    profile = get_profile(benchmark)
    if seed is not None:
        profile = dataclasses.replace(profile, seed=seed)
    trace = generate_trace(profile, requests)
    return simulate(config, trace, probe=probe)


def prefetch_jobs(runner, jobs: "Sequence[tuple]",
                  label: Optional[str] = None) -> None:
    """Warm a cache/engine with (config, benchmark, requests) tuples.

    When ``runner`` is a :class:`repro.sim.parallel.ParallelExperimentEngine`
    the whole batch fans out across the pool in one go; a plain
    :class:`ExperimentCache` (or ``None``) warms nothing — subsequent
    ``run`` calls simulate serially exactly as before.  ``label`` tags
    the batch for engines that journal their progress (the resilient
    engine's sweep journal records it per completed job).
    """
    run_jobs = getattr(runner, "run_jobs", None)
    if run_jobs is None:
        return
    if label is not None:
        begin_batch = getattr(runner, "begin_batch", None)
        if begin_batch is not None:
            begin_batch(label)
    from .parallel import ExperimentJob

    run_jobs([ExperimentJob(config, benchmark, requests)
              for config, benchmark, requests in jobs])


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
    cache: "Optional[ExperimentCache]" = None,
) -> Dict[str, SimResult]:
    """Run one benchmark across several configurations.

    ``cache`` accepts either an :class:`ExperimentCache` or a
    :class:`repro.sim.parallel.ParallelExperimentEngine`; with an engine
    the per-config simulations fan out across its worker pool before the
    results are assembled in label order.
    """
    prefetch_jobs(cache, [(config, benchmark, requests)
                          for config in configs.values()],
                  label=f"compare:{benchmark}")
    results: Dict[str, SimResult] = {}
    for label, config in configs.items():
        if cache is not None:
            results[label] = cache.run(config, benchmark, requests)
        else:
            results[label] = run_benchmark(config, benchmark, requests)
    return results


class ExperimentCache:
    """Process-local memoisation of (config name, benchmark, length) runs.

    Config *names* key the cache, which is safe for the preset
    constructors (each name fully determines the parameters).  Sweeps
    that mutate a config in place must rename it.
    """

    def __init__(self):
        self._results: Dict[Tuple[str, str, int], SimResult] = {}

    def run(self, config: SystemConfig, benchmark: str,
            requests: int = DEFAULT_REQUESTS) -> SimResult:
        key = (config.name, benchmark, requests)
        if key not in self._results:
            self._results[key] = run_benchmark(config, benchmark, requests)
        return self._results[key]

    def __len__(self) -> int:
        return len(self._results)


def sweep_benchmarks(
    config: SystemConfig,
    benchmarks: Iterable[str],
    requests: int = DEFAULT_REQUESTS,
    cache: Optional[ExperimentCache] = None,
) -> Dict[str, SimResult]:
    """Run one configuration across a benchmark list."""
    benchmarks = list(benchmarks)
    prefetch_jobs(cache, [(config, name, requests) for name in benchmarks],
                  label=f"benchmarks:{config.name}")
    results = {}
    for name in benchmarks:
        if cache is not None:
            results[name] = cache.run(config, name, requests)
        else:
            results[name] = run_benchmark(config, name, requests)
    return results


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
