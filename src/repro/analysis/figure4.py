"""Figure 4 regenerator: IPC speedup over the baseline PCM design.

The paper's Figure 4 plots, per SPEC2006 benchmark (LLC MPKI >= 10),
the relative speedup over the baseline NVM of:

* **FGNVM** — the 8x2 FgNVM design,
* **128 Banks** — one independent bank per (SAG, CD)-sized unit,
* **FGNVM+Multi-Issue** — FgNVM with multiple commands per cycle and a
  wider data bus,

and reports a combined average improvement of 56.5%.

:func:`run_figure4` reproduces the series with this repo's simulator and
synthetic SPEC-like traces; :func:`render_figure4` prints the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config.presets import figure4_configs
from ..sim.experiment import (
    DEFAULT_REQUESTS,
    default_engine,
    geometric_mean,
    run_cells,
    speedup,
)
from ..sim.reporting import series_table
from ..sim.result import SimResult
from ..workloads.spec_profiles import benchmark_names

#: Series order as shown in the paper's legend.
SERIES = ("fgnvm", "128-banks", "fgnvm-multi-issue")


@dataclass
class Figure4Result:
    """Speedup series per benchmark plus geometric-mean summary."""

    requests: int
    #: {benchmark: {series label: speedup over baseline}}
    speedups: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: {benchmark: baseline IPC} for reference.
    baseline_ipc: Dict[str, float] = field(default_factory=dict)

    def gmean(self, series: str) -> float:
        return geometric_mean(
            [row[series] for row in self.speedups.values()]
        )

    def series_summary(self) -> Dict[str, float]:
        return {series: self.gmean(series) for series in SERIES}

    def rows(self) -> Dict[str, Dict[str, float]]:
        """Per-benchmark rows plus the gmean row (figure order)."""
        table = dict(self.speedups)
        table["gmean"] = self.series_summary()
        return table


def run_figure4(
    benchmarks: Optional[List[str]] = None,
    requests: int = DEFAULT_REQUESTS,
    engine=None,
) -> Figure4Result:
    """Simulate every (benchmark, architecture) pair of Figure 4.

    ``engine`` (default: a fresh serial engine) fans the whole
    (benchmark x architecture) grid across its worker pool before the
    speedup table is assembled.
    """
    names = benchmarks or benchmark_names()
    runs = run_cells(default_engine(engine), figure4_configs(), names,
                     requests, label="figure4")
    return figure4_from_cells(runs, names, requests)


def figure4_from_cells(
    runs: Dict[Tuple[str, str], SimResult],
    benchmarks: List[str],
    requests: int,
) -> Figure4Result:
    """Figure 4 from the (benchmark, config label) cells of
    :func:`~repro.sim.experiment.run_cells`."""
    result = Figure4Result(requests=requests)
    for bench in benchmarks:
        base = runs[bench, "baseline"]
        result.baseline_ipc[bench] = base.ipc
        result.speedups[bench] = {
            series: speedup(runs[bench, series], base) for series in SERIES
        }
    return result


def render_figure4(result: Figure4Result) -> str:
    """The figure as an aligned text table (benchmark x series)."""
    header = (
        "Figure 4 — relative speedup over baseline PCM "
        f"(8x2 FgNVM, {result.requests} requests/benchmark)"
    )
    return header + "\n" + series_table(result.rows())


def check_figure4_shape(result: Figure4Result) -> List[str]:
    """Violations of the paper's qualitative claims (empty = clean).

    Checked shape properties:

    * FgNVM never loses to the baseline,
    * 128 banks >= plain FgNVM on average (column conflicts/underfetch),
    * Multi-Issue >= plain FgNVM on average,
    * the combined average improvement is substantial (>= 25%).
    """
    problems = []
    for bench, row in result.speedups.items():
        if row["fgnvm"] < 0.98:
            problems.append(
                f"{bench}: FgNVM slower than baseline ({row['fgnvm']:.3f})"
            )
    summary = result.series_summary()
    if summary["128-banks"] < summary["fgnvm"]:
        problems.append(
            "128 banks should beat plain FgNVM on average "
            f"({summary['128-banks']:.3f} < {summary['fgnvm']:.3f})"
        )
    if summary["fgnvm-multi-issue"] < summary["fgnvm"]:
        problems.append(
            "Multi-Issue should beat plain FgNVM on average "
            f"({summary['fgnvm-multi-issue']:.3f} < {summary['fgnvm']:.3f})"
        )
    # The magnitude claim is an average over the suite; only apply it
    # when the run covers a representative share of the benchmarks.
    if len(result.speedups) >= 6 and summary["fgnvm-multi-issue"] < 1.25:
        problems.append(
            "combined improvement too small: "
            f"{summary['fgnvm-multi-issue']:.3f} (paper: 1.565)"
        )
    return problems
