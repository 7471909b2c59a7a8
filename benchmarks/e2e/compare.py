"""Compare two sets of benchmark runs: regressions by bound, gains by pairs.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json

Each file is a run log written by ``run.py --save`` (one JSON record per
line); only untraced runs are compared.  For every (workload, end-to-end
metric) pair the verdict is one of:

* ``improved`` -- the pairs rule holds: at least 10 pairs, the change
  wins at least 9 in 10 (ties count for neither), and the medians differ
  by more than the parent's interquartile range.  Pairs are taken in log
  order, so run the two commits alternately,
* ``regression`` -- the change's median is worse than the parent's by
  more than the metric's ``bound`` in ``BENCHMARK.json``,
* ``unresolved`` -- either side's spread (interquartile range over
  median) exceeds the bound, so "no worse than the bound" cannot be
  shown, unless every change run is better than every parent run,
* ``ok`` -- none of the above.

Exit status 1 on any regression or on any run that was not correct.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence

from run import load_spec, summarize

#: The pairs rule: minimum pairs, and the share of them the change wins.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def read_runs(path: str) -> List[dict]:
    """The untraced records of one run log."""
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return [r for r in records if not r.get("trace")]


def quartiles(values: Sequence[float]) -> "tuple[float, float, float]":
    summary = summarize(values)
    return summary["q1"], summary["value"], summary["q3"]


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    parent: "tuple[float, float, float]"
    change: "tuple[float, float, float]"
    #: How much worse the change is, as a share of the parent's median.
    worse: float
    bound: float
    wins: int
    pairs: int
    verdict: str


def judge(workload: str, metric: dict, parent: Sequence[float],
          change: Sequence[float]) -> Row:
    """Apply the bound and the pairs rule to one (workload, metric)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p = quartiles(parent)
    c = quartiles(change)
    base = abs(p[1]) or 1.0
    worse = (c[1] - p[1]) / base if lower else (p[1] - c[1]) / base

    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if better(b, a))
    spread = max((p[2] - p[0]) / base, (c[2] - c[0]) / (abs(c[1]) or 1.0))
    dominates = all(better(b, a) for a in parent for b in change)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and -worse * base > p[2] - p[0]):
        verdict = "improved"
    elif worse > bound:
        verdict = "regression"
    elif spread > bound and not dominates:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return Row(workload, metric["name"], metric["unit"], p, c, worse, bound,
               wins, len(pairs), verdict)


def compare(parent: List[dict], change: List[dict], spec: dict) -> List[Row]:
    rows = []
    workloads = sorted({r["workload"] for r in parent}
                       & {r["workload"] for r in change})
    for workload in workloads:
        a = [r for r in parent if r["workload"] == workload]
        b = [r for r in change if r["workload"] == workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            rows.append(judge(
                workload, metric,
                [r["metrics"][name]["value"] for r in a],
                [r["metrics"][name]["value"] for r in b],
            ))
    return rows


def render(rows: List[Row]) -> str:
    lines = [f"{'workload':16s} {'metric':24s} {'parent median [q1, q3]':>34s} "
             f"{'change median [q1, q3]':>34s} {'worse':>7s} {'bound':>6s} "
             f"{'wins':>6s}  verdict"]
    for row in rows:
        def cell(q):
            return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        lines.append(
            f"{row.workload:16s} {row.metric:24s} {cell(row.parent):>34s} "
            f"{cell(row.change):>34s} {row.worse:>+7.1%} {row.bound:>6.0%} "
            f"{row.wins:>3d}/{row.pairs:<2d}  {row.verdict}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="run log of the parent commit")
    parser.add_argument("change", help="run log of the change")
    args = parser.parse_args(argv)
    spec = load_spec()
    parent, change = read_runs(args.parent), read_runs(args.change)
    rows = compare(parent, change, spec)
    print(render(rows))
    incorrect = False
    for label, runs in (("parent", parent), ("change", change)):
        bad = sum(1 for r in runs if not r["correct"])
        if bad:
            incorrect = True
            print(f"{label}: {bad} of {len(runs)} run(s) not correct")
    regressed = any(row.verdict == "regression" for row in rows)
    return 1 if regressed or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
