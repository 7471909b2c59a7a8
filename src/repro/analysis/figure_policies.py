"""Policy-zoo comparison figure: the design space around FgNVM.

Not a figure from the paper — a cross-paper comparison the policy
registry (:mod:`repro.memsys.policies`) makes possible.  On the same
workloads it plots, relative to the baseline NVM bank:

* **fgnvm** — the paper's 8x2 design with the augmented controller,
* **palp** — the same organisation under the PALP-style read/write
  partition-overlap scheduler [Song, Das, Mutlu et al.],
* **salp** — the SALP organisation [Kim et al., ISCA'12]: subarray-level
  parallelism only, full-row sensing,

as two series each: IPC speedup and energy normalised to baseline.  The
default workload pair (mcf, milc) spans the MPKI range the paper's
Figure 4 uses for its extremes.

Everything runs through the cached parallel engine — the whole
(benchmark x policy) grid is prefetched before normalisation, so a
warm cache or a worker pool services the fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..config.presets import baseline_nvm, fgnvm, salp
from ..config.params import SystemConfig
from ..memsys.policies import apply_policy
from ..sim.experiment import (
    DEFAULT_REQUESTS,
    default_engine,
    geometric_mean,
    prefetch_jobs,
    speedup,
)
from ..sim.reporting import series_table

#: Series order (all normalised to the baseline NVM bank).
SERIES = ("fgnvm", "palp", "salp")

#: Default workload pair: the MPKI extremes of the paper's suite.
DEFAULT_BENCHMARKS = ("mcf", "milc")


def figure_policies_configs() -> Dict[str, SystemConfig]:
    """The four systems the policy figure compares."""
    return {
        "baseline": baseline_nvm(),
        "fgnvm": fgnvm(8, 2),
        "palp": apply_policy(fgnvm(8, 2), "palp"),
        "salp": salp(8),
    }


@dataclass
class FigurePoliciesResult:
    """Speedup and relative-energy series per benchmark."""

    requests: int
    #: {benchmark: {series: IPC speedup over baseline}}
    speedups: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: {benchmark: {series: energy relative to baseline}}
    relative_energy: Dict[str, Dict[str, float]] = field(
        default_factory=dict
    )
    #: {benchmark: baseline IPC} for reference.
    baseline_ipc: Dict[str, float] = field(default_factory=dict)
    #: {benchmark: baseline total pJ} for reference.
    baseline_pj: Dict[str, float] = field(default_factory=dict)

    def speedup_summary(self) -> Dict[str, float]:
        return {
            series: geometric_mean(
                [row[series] for row in self.speedups.values()]
            )
            for series in SERIES
        }

    def energy_summary(self) -> Dict[str, float]:
        return {
            series: sum(
                row[series] for row in self.relative_energy.values()
            ) / len(self.relative_energy)
            for series in SERIES
        }

    def speedup_rows(self) -> Dict[str, Dict[str, float]]:
        table = dict(self.speedups)
        table["gmean"] = self.speedup_summary()
        return table

    def energy_rows(self) -> Dict[str, Dict[str, float]]:
        table = dict(self.relative_energy)
        table["average"] = self.energy_summary()
        return table


def run_figure_policies(
    benchmarks: Optional[List[str]] = None,
    requests: int = DEFAULT_REQUESTS,
    engine=None,
) -> FigurePoliciesResult:
    """Simulate the (benchmark x policy) grid and normalise to baseline.

    ``engine`` (default: a fresh serial engine) fans the whole grid
    across its worker pool before the tables are assembled.
    """
    engine = default_engine(engine)
    names = list(benchmarks) if benchmarks else list(DEFAULT_BENCHMARKS)
    configs = figure_policies_configs()
    prefetch_jobs(engine, [
        (config, bench, requests)
        for bench in names
        for config in configs.values()
    ], label="figure-policies")
    result = FigurePoliciesResult(requests=requests)
    for bench in names:
        base = engine.run(configs["baseline"], bench, requests)
        base_pj = base.energy.total_pj
        result.baseline_ipc[bench] = base.ipc
        result.baseline_pj[bench] = base_pj
        result.speedups[bench] = {}
        result.relative_energy[bench] = {}
        for series in SERIES:
            run = engine.run(configs[series], bench, requests)
            result.speedups[bench][series] = speedup(run, base)
            result.relative_energy[bench][series] = (
                run.energy.total_pj / base_pj
            )
    return result


def render_figure_policies(result: FigurePoliciesResult) -> str:
    """Both panels as aligned text tables (benchmark x policy)."""
    header = (
        "Policy zoo — FgNVM vs PALP vs SALP, normalised to baseline "
        f"NVM ({result.requests} requests/benchmark)"
    )
    return (
        header
        + "\n\nIPC speedup over baseline:\n"
        + series_table(result.speedup_rows())
        + "\n\nEnergy relative to baseline:\n"
        + series_table(result.energy_rows())
    )


def check_figure_policies_shape(result: FigurePoliciesResult) -> List[str]:
    """Violations of the comparison's qualitative claims (empty = clean).

    * FgNVM never loses to the baseline, and it saves energy;
    * PALP shares FgNVM's organisation, so it stays within a few percent
      of FgNVM's speedup (it only reorders within the ready class) and
      within noise of FgNVM's energy;
    * SALP senses the full row, so it cannot approach FgNVM's energy
      savings, and without column subdivision it must not beat FgNVM's
      speedup by any real margin.
    """
    problems = []
    for bench, row in result.speedups.items():
        if row["fgnvm"] < 0.98:
            problems.append(
                f"{bench}: FgNVM slower than baseline ({row['fgnvm']:.3f})"
            )
        if row["palp"] < 0.95 * row["fgnvm"]:
            problems.append(
                f"{bench}: PALP far behind FgNVM "
                f"({row['palp']:.3f} vs {row['fgnvm']:.3f})"
            )
        if row["salp"] > 1.05 * row["fgnvm"]:
            problems.append(
                f"{bench}: SALP should not beat FgNVM "
                f"({row['salp']:.3f} vs {row['fgnvm']:.3f})"
            )
    for bench, row in result.relative_energy.items():
        if row["fgnvm"] >= 1.0:
            problems.append(
                f"{bench}: FgNVM should save energy ({row['fgnvm']:.3f})"
            )
        if row["salp"] < row["fgnvm"]:
            problems.append(
                f"{bench}: full-row-sensing SALP cannot beat FgNVM's "
                f"energy ({row['salp']:.3f} < {row['fgnvm']:.3f})"
            )
        if abs(row["palp"] - row["fgnvm"]) > 0.10:
            problems.append(
                f"{bench}: PALP energy should track FgNVM "
                f"({row['palp']:.3f} vs {row['fgnvm']:.3f})"
            )
    return problems
