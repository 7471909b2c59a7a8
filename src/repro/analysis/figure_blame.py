"""Latency-blame decomposition figure: *why* each policy wins or loses.

The policy-zoo figure (:mod:`repro.analysis.figure_policies`) says how
fast each design is; this companion figure says where the cycles went.
For every (benchmark x policy) cell it traces every request (or a
deterministic 1-in-N sample) through :class:`repro.obs.trace.RequestTracer`
and aggregates the per-request blame segments into cause buckets — so
the paper's causal story becomes measurable: FgNVM's speedup must show
up as the tile-conflict blame (``tile_busy`` + ``multi_activation`` +
``read_under_write``) collapsing relative to the baseline bank.

Traced runs bypass the result cache on purpose: spans are a per-run
artifact, and the tracer's deterministic seed is derived from each
config's digest so re-runs sample identical request indices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..obs.events import make_probe
from ..obs.trace import (
    BLAME_CAUSES,
    BLAME_MULTI_ACT,
    BLAME_RUW,
    BLAME_TILE,
    RequestSpan,
    RequestTracer,
    blame_report,
    seed_from_digest,
)
from ..sim.experiment import DEFAULT_REQUESTS, run_benchmark
from ..sim.parallel import config_digest
from ..sim.reporting import series_table
from .figure_policies import DEFAULT_BENCHMARKS, figure_policies_configs

#: Series order — unlike the speedup figure the baseline is a series
#: here: its blame profile is the reference the others are read against.
SERIES = ("baseline", "fgnvm", "palp", "salp")

#: The causes that together are "conflict blame": cycles lost to the
#: bank's internal parallelism limits — exactly what 2D subdivision
#: plus the augmented controller attack.
CONFLICT_CAUSES = (BLAME_TILE, BLAME_MULTI_ACT, BLAME_RUW)


def conflict_share(report: Dict[str, object]) -> float:
    """Summed share of the tile-conflict causes in one report."""
    shares: Dict[str, float] = report["blame_share"]
    return sum(shares.get(cause, 0.0) for cause in CONFLICT_CAUSES)


@dataclass
class FigureBlameResult:
    """Per-(benchmark, policy) blame decompositions."""

    requests: int
    sample_every: int
    #: {benchmark: {series: blame report dict}}
    reports: Dict[str, Dict[str, Dict[str, object]]] = field(
        default_factory=dict
    )
    #: {series: "SAGsxCDs"} bank organisation, for the figure caption.
    organisations: Dict[str, str] = field(default_factory=dict)
    #: {(benchmark, series): finished spans} — populated only when
    #: ``keep_spans`` was requested (exports are big).
    spans: Dict[Tuple[str, str], List[RequestSpan]] = field(
        default_factory=dict
    )
    #: {(benchmark, series): (wall seconds, simulated cycles,
    #: instructions)} — provenance for the run manifest.
    jobs: Dict[Tuple[str, str], Tuple[float, int, int]] = field(
        default_factory=dict
    )

    def mean_latency_rows(self) -> Dict[str, Dict[str, float]]:
        return {
            bench: {
                series: row[series]["mean_latency"] for series in SERIES
            }
            for bench, row in self.reports.items()
        }

    def p95_latency_rows(self) -> Dict[str, Dict[str, float]]:
        return {
            bench: {
                series: float(row[series]["p95_latency"])
                for series in SERIES
            }
            for bench, row in self.reports.items()
        }

    def conflict_rows(self) -> Dict[str, Dict[str, float]]:
        """{benchmark: {series: conflict-blame share}}."""
        return {
            bench: {
                series: round(conflict_share(row[series]), 4)
                for series in SERIES
            }
            for bench, row in self.reports.items()
        }


def run_figure_blame(
    benchmarks: Optional[List[str]] = None,
    requests: int = DEFAULT_REQUESTS,
    sample_every: int = 1,
    keep_spans: bool = False,
) -> FigureBlameResult:
    """Trace the (benchmark x policy) grid and aggregate blame reports.

    Runs in-process (tracing needs the live tracer object, so the
    parallel engine's cached results cannot serve these cells).
    """
    names = list(benchmarks) if benchmarks else list(DEFAULT_BENCHMARKS)
    configs = figure_policies_configs()
    result = FigureBlameResult(requests=requests, sample_every=sample_every)
    for series in SERIES:
        org = configs[series].org
        result.organisations[series] = (
            f"{org.subarray_groups}x{org.column_divisions}"
        )
    for bench in names:
        result.reports[bench] = {}
        for series in SERIES:
            config = configs[series]
            tracer = RequestTracer(
                sample_every=sample_every,
                seed=seed_from_digest(config_digest(config)),
            )
            started = time.perf_counter()
            run = run_benchmark(config, bench, requests,
                                probe=make_probe(tracer=tracer))
            result.jobs[(bench, series)] = (
                time.perf_counter() - started, run.cycles,
                run.instructions,
            )
            result.reports[bench][series] = blame_report(
                tracer.finished, tracer.queue_full
            )
            if keep_spans:
                result.spans[(bench, series)] = tracer.finished
    return result


def render_figure_blame(result: FigureBlameResult) -> str:
    """All panels as aligned text tables (benchmark x policy)."""
    orgs = ", ".join(
        f"{series}={org}" for series, org in result.organisations.items()
    )
    sampling = (
        "every request"
        if result.sample_every == 1
        else f"1-in-{result.sample_every} sample"
    )
    lines = [
        "Latency blame — where each policy's cycles go "
        f"({result.requests} requests/benchmark, {sampling})",
        f"organisations (SAGs x CDs): {orgs}",
        "",
        "mean read/write latency (cycles):",
        series_table(result.mean_latency_rows(), precision=2),
        "",
        "p95 latency (cycles):",
        series_table(result.p95_latency_rows(), precision=0),
        "",
        "conflict-blame share (tile_busy + multi_activation "
        "+ read_under_write):",
        series_table(result.conflict_rows()),
    ]
    for bench, row in result.reports.items():
        lines += ["", f"{bench}: blame share by cause:"]
        share_rows = {
            cause: {
                series: row[series]["blame_share"].get(cause, 0.0)
                for series in SERIES
            }
            for cause in BLAME_CAUSES
            if any(
                row[series]["blame_share"].get(cause, 0.0)
                for series in SERIES
            )
        }
        lines.append(series_table(share_rows, row_label="cause"))
    return "\n".join(lines)


def check_figure_blame_shape(result: FigureBlameResult) -> List[str]:
    """Violations of the decomposition's qualitative claims (empty = clean).

    * Every report is structurally sound: zero unattributed cycles and
      shares that sum to ~1 (sampling never breaks the tiling);
    * FgNVM's 2D subdivision must shrink the conflict-blame share
      relative to the baseline bank on every workload — that *is* the
      paper's mechanism, stated as blame instead of speedup;
    * FgNVM must not be slower than the baseline in mean latency.
    """
    problems = []
    for bench, row in result.reports.items():
        for series in SERIES:
            report = row[series]
            if report["unattributed_cycles"]:
                problems.append(
                    f"{bench}/{series}: "
                    f"{report['unattributed_cycles']} unattributed cycles"
                )
            if report["spans"]:
                total = sum(report["blame_share"].values())
                if abs(total - 1.0) > 0.01:
                    problems.append(
                        f"{bench}/{series}: blame shares sum to "
                        f"{total:.4f}, expected ~1"
                    )
        base_conflict = conflict_share(row["baseline"])
        fg_conflict = conflict_share(row["fgnvm"])
        if fg_conflict > base_conflict:
            problems.append(
                f"{bench}: FgNVM conflict blame should not exceed the "
                f"baseline's ({fg_conflict:.3f} vs {base_conflict:.3f})"
            )
        if row["fgnvm"]["mean_latency"] > 1.02 * row["baseline"][
            "mean_latency"
        ]:
            problems.append(
                f"{bench}: FgNVM mean latency above baseline "
                f"({row['fgnvm']['mean_latency']} vs "
                f"{row['baseline']['mean_latency']})"
            )
    return problems
