"""Headline-number checks: the paper's Section 7 claims in one place.

* average performance improvement of **56.5%** over the baseline,
* energy reduced by up to **73%**,
* area overhead between **0.1% and 0.36%**.

:func:`run_headline` aggregates the figure/table regenerators and
reports paper-vs-measured for each claim; the benchmark harness records
the output into EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..config.presets import figure4_configs, figure5_configs
from ..sim.experiment import DEFAULT_REQUESTS, default_engine, run_cells
from ..sim.reporting import ascii_table
from ..workloads.spec_profiles import benchmark_names
from .figure4 import Figure4Result, figure4_from_cells
from .figure5 import Figure5Result, figure5_from_cells
from .table1 import Table1Result, run_table1


@dataclass
class HeadlineResult:
    """Measured values behind each Section 7 claim."""

    figure4: Figure4Result
    figure5: Figure5Result
    table1: Table1Result

    @property
    def combined_speedup(self) -> float:
        """Geomean of the best FgNVM variant (techniques combined)."""
        return self.figure4.gmean("fgnvm-multi-issue")

    @property
    def best_energy_reduction(self) -> float:
        """Largest average energy reduction across the CD sweep."""
        return 1.0 - min(self.figure5.series_summary().values())

    @property
    def area_band(self) -> tuple:
        """(best, worst) total overhead as a percent of the bank."""
        return (
            self.table1.avg.percent_of_bank(worst=False),
            self.table1.max.percent_of_bank(worst=True),
        )

    def claims(self) -> List[Dict[str, object]]:
        best_pct, worst_pct = self.area_band
        return [
            {
                "claim": "avg performance improvement",
                "paper": "56.5%",
                "measured": f"{(self.combined_speedup - 1) * 100:.1f}%",
            },
            {
                "claim": "energy reduction (up to)",
                "paper": "73%",
                "measured": f"{self.best_energy_reduction * 100:.1f}%",
            },
            {
                "claim": "area overhead range",
                "paper": "0.1% - 0.36%",
                "measured": f"{best_pct:.3f}% - {worst_pct:.2f}%",
            },
        ]


def run_headline(
    requests: int = DEFAULT_REQUESTS,
    benchmarks: Optional[List[str]] = None,
    engine=None,
) -> HeadlineResult:
    """Run everything the Section 7 summary depends on.

    Figures 4 and 5 run as one batch labelled ``headline`` on
    ``engine`` (a :class:`repro.sim.parallel.ParallelExperimentEngine`):
    the union of their grids, in which the baseline and the 8x2 FgNVM
    that both figures use are one job each per benchmark.
    """
    names = benchmarks or benchmark_names()
    runs = run_cells(default_engine(engine),
                     {**figure4_configs(), **figure5_configs()},
                     names, requests, label="headline")
    return HeadlineResult(
        figure4=figure4_from_cells(runs, names, requests),
        figure5=figure5_from_cells(runs, names, requests),
        table1=run_table1(),
    )


def render_headline(result: HeadlineResult) -> str:
    rows = [
        [claim["claim"], claim["paper"], claim["measured"]]
        for claim in result.claims()
    ]
    return "Section 7 headline claims\n" + ascii_table(
        ["claim", "paper", "measured"], rows
    )
