"""One-shot reproduction: every artifact into one directory.

``reproduce_all(out_dir, requests)`` regenerates Table 1, Table 2,
Figure 3, Figure 4, Figure 5 and the Section-7 headline summary,
writing each as text (the rendering the benches print) plus CSV for the
figure/table series, and returns a manifest of what was produced and
which shape checks passed.  This is what ``python -m repro reproduce``
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from ..sim.experiment import ExperimentCache
from .calibration import render_headline, run_headline
from .export import figure4_csv, figure5_csv, table1_csv
from .figure3 import check_figure3, render_figure3, run_figure3
from .figure4 import check_figure4_shape, render_figure4
from .figure5 import check_figure5_shape, render_figure5
from .table1 import check_table1, render_table1
from .table2 import check_table2, render_table2


@dataclass
class ReproductionManifest:
    """What a full reproduction produced."""

    out_dir: Path
    requests: int
    files: List[str] = field(default_factory=list)
    #: Shape-check violations per artifact (empty lists = clean).
    problems: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return all(not issues for issues in self.problems.values())

    def render(self) -> str:
        lines = [
            f"reproduction written to {self.out_dir} "
            f"({self.requests} requests/simulation)",
        ]
        for name in sorted(self.problems):
            issues = self.problems[name]
            status = "ok" if not issues else f"{len(issues)} issue(s)"
            lines.append(f"  {name:10s} {status}")
            lines.extend(f"    - {issue}" for issue in issues)
        lines.append(f"files: {', '.join(sorted(self.files))}")
        return "\n".join(lines)


def reproduce_all(
    out_dir: "str | Path",
    requests: int = 2500,
    benchmarks: "List[str] | None" = None,
    engine=None,
) -> ReproductionManifest:
    """Regenerate every paper artifact into ``out_dir``.

    ``engine`` (a :class:`repro.sim.parallel.ParallelExperimentEngine`)
    parallelises the figure grids and persists their results, so a
    repeated reproduction against a warm cache simulates nothing.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = ReproductionManifest(out_dir=out, requests=requests)
    # Explicit None check: an empty engine is len() == 0, falsy.
    cache = engine if engine is not None else ExperimentCache()

    def save(name: str, text: str) -> None:
        path = out / name
        path.write_text(text + "\n", encoding="utf-8")
        manifest.files.append(name)

    # Static artifacts first (cheap, no simulation).
    save("table2.txt", render_table2())
    manifest.problems["table2"] = check_table2()

    headline = run_headline(requests, benchmarks, cache)
    table1 = headline.table1
    save("table1.txt", render_table1(table1))
    table1_csv(table1, out / "table1.csv")
    manifest.files.append("table1.csv")
    manifest.problems["table1"] = check_table1(table1)

    scenarios = run_figure3()
    save("figure3.txt", render_figure3(scenarios))
    manifest.problems["figure3"] = check_figure3(scenarios)

    save("figure4.txt", render_figure4(headline.figure4))
    figure4_csv(headline.figure4, out / "figure4.csv")
    manifest.files.append("figure4.csv")
    manifest.problems["figure4"] = check_figure4_shape(headline.figure4)

    save("figure5.txt", render_figure5(headline.figure5))
    figure5_csv(headline.figure5, out / "figure5.csv")
    manifest.files.append("figure5.csv")
    manifest.problems["figure5"] = check_figure5_shape(headline.figure5)

    save("headline.txt", render_headline(headline))
    manifest.problems["headline"] = []

    save("MANIFEST.txt", manifest.render())
    return manifest
