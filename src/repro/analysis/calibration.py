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

from ..sim.experiment import DEFAULT_REQUESTS, default_engine
from ..sim.reporting import ascii_table
from .figure4 import Figure4Result, run_figure4
from .figure5 import Figure5Result, run_figure5
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
    cache=None,
    engine=None,
) -> HeadlineResult:
    """Run everything the Section 7 summary depends on.

    ``engine`` routes both figures' simulation grids through one
    :class:`repro.sim.parallel.ParallelExperimentEngine`, so Figure 5
    reuses Figure 4's baseline runs from the engine's cache.
    """
    cache = default_engine(engine or cache)
    return HeadlineResult(
        figure4=run_figure4(benchmarks, requests, cache),
        figure5=run_figure5(benchmarks, requests, cache),
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
