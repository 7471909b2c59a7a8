"""Graceful-degradation figure: performance under device faults.

Not a figure from the paper — the reliability extension's headline
claim, made measurable.  Every organisation runs the same workload
under increasing write-verify failure rates (and, for FgNVM, under
seeded tile kills), and each point reports **IPC retention**: the
point's IPC divided by the *same organisation's* fault-free IPC.
Normalising per-organisation isolates how each design *degrades* from
how fast it is when healthy.

The claim under test: 2-D bank subdivision degrades gracefully.  A
failed verify re-pulses one (SAG, CD) tile while the other tiles keep
serving; a retired tile costs 1/(SAGs x CDs) of the bank's
parallelism.  The baseline bank has exactly one tile, so every retry
stalls the whole bank — retention falls faster, and SALP (row-axis
subdivision only) sits between.  :func:`check_figure_degradation_shape`
pins that ordering plus the absence of cliffs (no single step of the
sweep may drop retention sharply).

Everything runs through the cached parallel engine; each sweep point is
a distinct named config so the cache and manifests keep the points
apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..config.params import SystemConfig
from ..config.presets import baseline_nvm, fgnvm, salp, with_reliability
from ..memsys.reliability import DeviceFaultPlan
from ..sim.experiment import DEFAULT_REQUESTS, default_engine, prefetch_jobs
from ..sim.reporting import series_table

#: Organisation series, in degradation order (worst first).
SERIES = ("baseline", "salp", "fgnvm")

#: Write-verify failure probabilities swept (0.0 is the healthy anchor).
FAULT_RATES = (0.0, 0.02, 0.05, 0.1)

#: Seeded tile-kill counts swept on the FgNVM organisation.
KILL_COUNTS = (0, 2, 4, 8)

#: Fixed seed for the deterministic fault draws and kill plans.
RELIABILITY_SEED = 20160605

#: Retry budget for every faulted point (generous enough that verify
#: exhaustion stays rare at the swept rates).
RETRY_BUDGET = 8

#: Default workload: the high-MPKI extreme (most write pressure).
DEFAULT_BENCHMARKS = ("mcf",)


def _healthy_configs() -> Dict[str, SystemConfig]:
    return {
        "baseline": baseline_nvm(),
        "salp": salp(8),
        "fgnvm": fgnvm(8, 2),
    }


def _faulted(config: SystemConfig, rate: float) -> SystemConfig:
    """One sweep point: ``config`` with verify failures at ``rate``."""
    if rate <= 0.0:
        return config
    return with_reliability(
        config,
        write_fail_prob=rate,
        max_write_retries=RETRY_BUDGET,
        seed=RELIABILITY_SEED,
        name=f"{config.name}+p{rate:g}",
    )


def _killed(config: SystemConfig, kills: int) -> SystemConfig:
    """One kill point: ``kills`` seeded tile deaths on ``config``."""
    if kills <= 0:
        return config
    org = config.org
    plan = DeviceFaultPlan.seeded(
        seed=RELIABILITY_SEED + kills,
        kills=kills,
        banks=org.ranks_per_channel * org.banks_per_rank,
        subarray_groups=org.subarray_groups,
        column_divisions=org.column_divisions,
        # Low enough that every planned kill fires even in smoke-sized
        # sweeps (a few writes per tile) — the sweep measures surviving
        # the kills, not racing to reach them.
        after_writes=8,
    )
    return with_reliability(
        config,
        fault_plan=plan,
        seed=RELIABILITY_SEED,
        name=f"{config.name}+kill{kills}",
    )


def figure_degradation_configs() -> Dict[str, SystemConfig]:
    """Every config of the sweep, keyed by its (distinct) name."""
    configs: Dict[str, SystemConfig] = {}
    for series, healthy in _healthy_configs().items():
        for rate in FAULT_RATES:
            cfg = _faulted(healthy, rate)
            configs[cfg.name] = cfg
    fgnvm_cfg = _healthy_configs()["fgnvm"]
    for kills in KILL_COUNTS:
        cfg = _killed(fgnvm_cfg, kills)
        configs[cfg.name] = cfg
    return configs


@dataclass
class FigureDegradationResult:
    """IPC-retention series per benchmark (1.0 = no degradation)."""

    requests: int
    fault_rates: tuple = FAULT_RATES
    kill_counts: tuple = KILL_COUNTS
    #: {benchmark: {series: {fault rate: IPC}}}
    ipc: Dict[str, Dict[str, Dict[float, float]]] = field(
        default_factory=dict
    )
    #: {benchmark: {series: {fault rate: IPC / fault-free IPC}}}
    retention: Dict[str, Dict[str, Dict[float, float]]] = field(
        default_factory=dict
    )
    #: {benchmark: {kill count: FgNVM IPC retention}}
    kill_retention: Dict[str, Dict[int, float]] = field(
        default_factory=dict
    )
    #: {benchmark: {series: write retries at the max fault rate}}
    retries_at_max: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: {benchmark: tiles retired at the max kill count}
    tiles_retired_at_max: Dict[str, int] = field(default_factory=dict)

    def retention_rows(self, benchmark: str) -> Dict[str, Dict[str, float]]:
        """series x fault-rate table for one benchmark (render form)."""
        return {
            series: {
                f"p={rate:g}": round(points[rate], 4)
                for rate in self.fault_rates
            }
            for series, points in self.retention[benchmark].items()
        }

    def kill_rows(self, benchmark: str) -> Dict[str, Dict[str, float]]:
        return {
            "fgnvm": {
                f"kills={kills}": round(
                    self.kill_retention[benchmark][kills], 4
                )
                for kills in self.kill_counts
            }
        }


def run_figure_degradation(
    benchmarks: Optional[List[str]] = None,
    requests: int = DEFAULT_REQUESTS,
    engine=None,
) -> FigureDegradationResult:
    """Simulate the fault-rate and tile-kill sweeps, normalised per-org.

    ``engine`` (default: a fresh serial engine) fans the whole grid
    across its worker pool before the tables are assembled.
    """
    engine = default_engine(engine)
    names = list(benchmarks) if benchmarks else list(DEFAULT_BENCHMARKS)
    healthy = _healthy_configs()
    max_rate = FAULT_RATES[-1]
    max_kills = KILL_COUNTS[-1]
    grid = [
        (_faulted(cfg, rate), bench, requests)
        for bench in names
        for cfg in healthy.values()
        for rate in FAULT_RATES
    ] + [
        (_killed(healthy["fgnvm"], kills), bench, requests)
        for bench in names
        for kills in KILL_COUNTS
    ]
    prefetch_jobs(engine, grid, label="figure-degradation")

    result = FigureDegradationResult(requests=requests)
    for bench in names:
        result.ipc[bench] = {}
        result.retention[bench] = {}
        result.retries_at_max[bench] = {}
        for series, cfg in healthy.items():
            points = {
                rate: engine.run(_faulted(cfg, rate), bench, requests)
                for rate in FAULT_RATES
            }
            anchor = points[0.0].ipc
            result.ipc[bench][series] = {
                rate: run.ipc for rate, run in points.items()
            }
            result.retention[bench][series] = {
                rate: run.ipc / anchor if anchor > 0 else 0.0
                for rate, run in points.items()
            }
            result.retries_at_max[bench][series] = (
                points[max_rate].stats.write_retries
            )
        kill_points = {
            kills: engine.run(_killed(healthy["fgnvm"], kills),
                             bench, requests)
            for kills in KILL_COUNTS
        }
        kill_anchor = kill_points[0].ipc
        result.kill_retention[bench] = {
            kills: run.ipc / kill_anchor if kill_anchor > 0 else 0.0
            for kills, run in kill_points.items()
        }
        result.tiles_retired_at_max[bench] = (
            kill_points[max_kills].stats.tiles_retired
        )
    return result


def render_figure_degradation(result: FigureDegradationResult) -> str:
    """Both panels as aligned text tables, one pair per benchmark."""
    lines = [
        "Graceful degradation — IPC retention under device faults "
        f"(per-organisation, {result.requests} requests/benchmark)"
    ]
    for bench in sorted(result.retention):
        lines += [
            "",
            f"{bench}: retention vs write-verify failure rate "
            f"(retries at p={result.fault_rates[-1]:g}: "
            + ", ".join(
                f"{series}={count}"
                for series, count in result.retries_at_max[bench].items()
            )
            + "):",
            series_table(result.retention_rows(bench)),
            "",
            f"{bench}: FgNVM retention vs seeded tile kills "
            f"({result.tiles_retired_at_max[bench]} tiles retired at "
            f"kills={result.kill_counts[-1]}):",
            series_table(result.kill_rows(bench)),
        ]
    return "\n".join(lines)


def check_figure_degradation_shape(
    result: FigureDegradationResult,
) -> List[str]:
    """Violations of the graceful-degradation claims (empty = clean).

    * retention is a ratio to the same config's healthy run: the
      healthy anchor is exactly 1.0 and no faulted point may *gain*
      more than noise;
    * more tiles degrade more gracefully: at the maximum fault rate
      FgNVM retains at least as much IPC as the baseline (small
      tolerance for trace noise);
    * no cliffs: neither sweep may lose more than 25% retention in a
      single step — degradation must be gradual, which is the
      difference between "graceful" and "working until it isn't";
    * seeded kills must actually retire tiles, and FgNVM must survive
      the maximum kill count with most of its performance.
    """
    problems = []
    rates = list(result.fault_rates)
    for bench, rows in result.retention.items():
        for series, points in rows.items():
            if abs(points[rates[0]] - 1.0) > 1e-9:
                problems.append(
                    f"{bench}/{series}: healthy anchor is not 1.0 "
                    f"({points[rates[0]]:.4f})"
                )
            for rate in rates[1:]:
                if points[rate] > 1.02:
                    problems.append(
                        f"{bench}/{series}: faults should not speed "
                        f"anything up (p={rate:g}: {points[rate]:.4f})"
                    )
            for lo, hi in zip(rates, rates[1:]):
                if points[hi] < points[lo] - 0.25:
                    problems.append(
                        f"{bench}/{series}: cliff between p={lo:g} and "
                        f"p={hi:g} ({points[lo]:.4f} -> {points[hi]:.4f})"
                    )
        max_rate = rates[-1]
        if rows["fgnvm"][max_rate] < rows["baseline"][max_rate] - 0.02:
            problems.append(
                f"{bench}: FgNVM should degrade no worse than baseline "
                f"at p={max_rate:g} ({rows['fgnvm'][max_rate]:.4f} vs "
                f"{rows['baseline'][max_rate]:.4f})"
            )
    kills = list(result.kill_counts)
    for bench, points in result.kill_retention.items():
        if result.tiles_retired_at_max[bench] < 1:
            problems.append(
                f"{bench}: kills={kills[-1]} retired no tiles"
            )
        if points[kills[-1]] < 0.7:
            problems.append(
                f"{bench}: losing {kills[-1]} of the bank tiles should "
                f"not halve performance ({points[kills[-1]]:.4f})"
            )
        for lo, hi in zip(kills, kills[1:]):
            if points[hi] < points[lo] - 0.25:
                problems.append(
                    f"{bench}: cliff between kills={lo} and kills={hi} "
                    f"({points[lo]:.4f} -> {points[hi]:.4f})"
                )
    return problems
