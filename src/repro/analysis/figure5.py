"""Figure 5 regenerator: energy consumption normalised to the baseline.

The paper's Figure 5 sweeps the column-division count at 8 subarray
groups — 8x2, 8x8, 8x32 plus an "8x32 Perfect" pricing — and reports
average reductions of 37%, 65% and 73%.

Each architecture senses a different slice per activation (1KB baseline,
512B / 128B / 32B for 2 / 8 / 32 CDs); writes stay 64-bit-parallel at
16 pJ/bit and background power at 0.08 pJ/bit regardless, which is why
the savings saturate instead of halving with every doubling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config.presets import figure5_configs
from ..sim.experiment import DEFAULT_REQUESTS, default_engine, run_cells
from ..sim.reporting import series_table
from ..sim.result import SimResult
from ..workloads.spec_profiles import benchmark_names

#: Series order as shown in the paper's legend.
SERIES = ("8x2", "8x8", "8x32", "8x32-perfect")


@dataclass
class Figure5Result:
    """Relative-energy series per benchmark plus averages."""

    requests: int
    #: {benchmark: {series: energy relative to baseline}}
    relative_energy: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: {benchmark: baseline total pJ} for reference.
    baseline_pj: Dict[str, float] = field(default_factory=dict)

    def average(self, series: str) -> float:
        values = [row[series] for row in self.relative_energy.values()]
        return sum(values) / len(values)

    def series_summary(self) -> Dict[str, float]:
        return {series: self.average(series) for series in SERIES}

    def rows(self) -> Dict[str, Dict[str, float]]:
        table = dict(self.relative_energy)
        table["average"] = self.series_summary()
        return table


def run_figure5(
    benchmarks: Optional[List[str]] = None,
    requests: int = DEFAULT_REQUESTS,
    engine=None,
) -> Figure5Result:
    """Simulate the CD sweep and normalise energies to the baseline.

    ``engine`` (default: a fresh serial engine) fans the whole grid
    across its worker pool before normalisation.
    """
    names = benchmarks or benchmark_names()
    runs = run_cells(default_engine(engine), figure5_configs(), names,
                     requests, label="figure5")
    return figure5_from_cells(runs, names, requests)


def figure5_from_cells(
    runs: Dict[Tuple[str, str], SimResult],
    benchmarks: List[str],
    requests: int,
) -> Figure5Result:
    """Figure 5 from the (benchmark, config label) cells of
    :func:`~repro.sim.experiment.run_cells`."""
    result = Figure5Result(requests=requests)
    for bench in benchmarks:
        base = runs[bench, "baseline"]
        base_pj = base.energy.total_pj
        result.baseline_pj[bench] = base_pj
        row: Dict[str, float] = {}
        for label in ("8x2", "8x8", "8x32"):
            run = runs[bench, label]
            row[label] = run.energy.total_pj / base_pj
            if label == "8x32":
                row["8x32-perfect"] = run.perfect_energy.total_pj / base_pj
        result.relative_energy[bench] = row
    return result


def render_figure5(result: Figure5Result) -> str:
    header = (
        "Figure 5 — energy normalised to baseline NVM "
        f"({result.requests} requests/benchmark)"
    )
    return header + "\n" + series_table(result.rows())


def check_figure5_shape(result: Figure5Result) -> List[str]:
    """Violations of the paper's qualitative claims (empty = clean).

    * every FgNVM configuration beats the baseline on every benchmark,
    * more column divisions never cost energy (monotone per benchmark),
    * 8x32 comes close to (and not below) its Perfect pricing,
    * average savings are substantial and ordered.
    """
    problems = []
    for bench, row in result.relative_energy.items():
        if row["8x2"] >= 1.0:
            problems.append(f"{bench}: 8x2 should save energy ({row['8x2']:.3f})")
        if not row["8x2"] >= row["8x8"] >= row["8x32"]:
            problems.append(
                f"{bench}: energy must fall with CD count "
                f"({row['8x2']:.3f}, {row['8x8']:.3f}, {row['8x32']:.3f})"
            )
        if row["8x32"] < row["8x32-perfect"] - 1e-9:
            problems.append(
                f"{bench}: 8x32 cannot beat Perfect "
                f"({row['8x32']:.3f} < {row['8x32-perfect']:.3f})"
            )
    summary = result.series_summary()
    if summary["8x2"] > 0.80:
        problems.append(
            f"8x2 average saving too small ({summary['8x2']:.3f}; paper 0.63)"
        )
    if summary["8x32"] > 0.45:
        problems.append(
            f"8x32 average saving too small ({summary['8x32']:.3f}; paper 0.27)"
        )
    return problems
