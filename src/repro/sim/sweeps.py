"""Generic parameter sweeps over SystemConfig fields.

The ablation benches each hand-roll a loop over one knob; this module
provides the reusable form:

    sweep = parameter_sweep(
        base=fgnvm(8, 2),
        path="org.column_divisions",
        values=[1, 2, 4, 8],
        benchmark="mcf",
        requests=2000,
    )
    print(render_sweep(sweep))

Every swept config is validated and renamed (so result rows, job
records and journal entries name each point), and the result rows carry
speedup-vs-first-value normalisation alongside the raw metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..config.params import SystemConfig, override_nested
from ..config.validate import validate_config
from ..errors import ExperimentError
from .experiment import default_engine, run_grid
from .reporting import series_table
from .result import SimResult


@dataclass
class SweepResult:
    """Results of one knob swept over several values."""

    path: str
    benchmark: str
    values: List[object]
    results: List[SimResult] = field(default_factory=list)

    def _require_results(self, what: str) -> None:
        if not self.results:
            raise ExperimentError(
                f"cannot compute {what}: sweep of {self.path!r} on "
                f"{self.benchmark!r} holds no results (was parameter_sweep "
                "given an empty value list?)"
            )

    def metric(self, name: str) -> List[float]:
        """Extract one summary metric across the sweep."""
        self._require_results(f"metric {name!r}")
        available = self.results[0].summary()
        if name not in available:
            known = ", ".join(sorted(available))
            raise ExperimentError(
                f"unknown sweep metric {name!r}; available metrics: {known}"
            )
        return [result.summary()[name] for result in self.results]

    def rows(self) -> Dict[str, Dict[str, float]]:
        self._require_results("rows")
        base_ipc = self.results[0].ipc
        table: Dict[str, Dict[str, float]] = {}
        for value, result in zip(self.values, self.results):
            stats = result.stats
            table[f"{self.path}={value}"] = {
                "ipc": result.ipc,
                "vs_first": result.ipc / base_ipc if base_ipc else 0.0,
                "hit_rate": stats.row_hit_rate,
                "avg_read_latency": stats.avg_read_latency,
                "energy_uj": result.energy.total_pj / 1e6,
            }
        return table


def swept_configs(
    base: SystemConfig, path: str, values: Sequence[object]
) -> List[SystemConfig]:
    """Validated, uniquely-named configs for each sweep point."""
    configs = []
    for value in values:
        cfg = override_nested(base, path, value)
        cfg.name = f"{base.name}|{path}={value}"
        configs.append(validate_config(cfg))
    return configs


def parameter_sweep(
    base: SystemConfig,
    path: str,
    values: Sequence[object],
    benchmark: str,
    requests: int = 2000,
    engine=None,
) -> SweepResult:
    """Run ``benchmark`` across every value of one dotted-path knob.

    ``engine`` (a :class:`repro.sim.parallel.ParallelExperimentEngine`;
    default: a fresh serial one) routes the sweep points through its
    pool and result cache.
    """
    values = list(values)
    configs = swept_configs(base, path, values)
    results = run_grid(default_engine(engine),
                       [(cfg, benchmark, requests) for cfg in configs],
                       label=f"sweep:{path}")
    return SweepResult(path=path, benchmark=benchmark, values=values,
                       results=results)


def render_sweep(sweep: SweepResult) -> str:
    if not sweep.results:
        return f"sweep of {sweep.path} (empty)"
    header = (
        f"sweep of {sweep.path} on {sweep.benchmark} "
        f"(base {sweep.results[0].config.name.split('|')[0]})"
    )
    return header + "\n" + series_table(sweep.rows(), row_label="point")
