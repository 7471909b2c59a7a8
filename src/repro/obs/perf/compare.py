"""The perf regression gate: ``repro perf compare OLD NEW``.

Compares two :mod:`~repro.obs.perf.ledger` files entry-by-entry and
exits non-zero on a throughput regression.  Noise-awareness rules:

* rates are medians over each entry's samples, so one slow repeat
  cannot fail a build,
* a configurable relative tolerance (default 20%, CI uses a more
  generous one) absorbs scheduler jitter,
* a single-sample entry on either side widens the effective tolerance
  (one number is not a distribution) and says so,
* a host-fingerprint mismatch downgrades every regression to a warning
  — numbers measured on different silicon gate nothing,
* entries present on only one side are warnings, never failures, so
  adding or retiring a benchmark does not break the gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # the CLI's parser reads this module's constants cheaply
    from .ledger import PerfLedger

#: Metrics the gate can compare.  Every metric except ``wall_s`` is a
#: throughput (higher is better); ``wall_s`` regresses upward.
COMPARE_METRICS = (
    "cycles_per_s",
    "requests_per_s",
    "throughput_req_per_s",
    "sim_cycles_per_wall_s",
    "wall_s",
)

#: Default relative tolerance: new must be >= (1 - tol) * old.
DEFAULT_REL_TOL = 0.20

#: Extra slack multiplier applied when either side has one sample.
SINGLE_SAMPLE_SLACK = 2.0

STATUS_OK = "ok"
STATUS_IMPROVED = "improved"
STATUS_REGRESSION = "regression"
STATUS_WARNING = "warning"


@dataclass
class Delta:
    """One entry's old-vs-new verdict."""

    name: str
    metric: str
    old: float
    new: float
    status: str
    note: str = ""

    @property
    def ratio(self) -> float:
        return self.new / self.old if self.old > 0 else 0.0

    def render(self) -> str:
        arrow = {
            STATUS_OK: "=", STATUS_IMPROVED: "+",
            STATUS_REGRESSION: "!", STATUS_WARNING: "?",
        }[self.status]
        line = (
            f"[{arrow}] {self.name:<40} {self.metric}: "
            f"{self.old:>12.1f} -> {self.new:>12.1f} "
            f"({self.ratio:.2f}x)"
        )
        return line + (f"  {self.note}" if self.note else "")


@dataclass
class ComparisonReport:
    """Everything ``repro perf compare`` decided, renderable and testable."""

    metric: str
    rel_tol: float
    hosts_match: bool
    deltas: List[Delta] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.status == STATUS_REGRESSION]

    @property
    def ok(self) -> bool:
        """True when the gate passes (warnings never fail it)."""
        return not self.regressions

    def render(self) -> str:
        lines = [
            f"perf compare ({self.metric}, tolerance {self.rel_tol:.0%}, "
            f"hosts {'match' if self.hosts_match else 'DIFFER'}):"
        ]
        if not self.deltas:
            lines.append("  (no comparable entries)")
        lines.extend("  " + d.render() for d in self.deltas)
        for warning in self.warnings:
            lines.append(f"  warning: {warning}")
        lines.append(
            f"result: {len(self.regressions)} regression(s), "
            f"{sum(1 for d in self.deltas if d.status == STATUS_IMPROVED)} "
            f"improvement(s), {len(self.warnings)} warning(s) -> "
            + ("PASS" if self.ok else "FAIL")
        )
        return "\n".join(lines)


def compare_ledgers(
    old: PerfLedger,
    new: PerfLedger,
    rel_tol: float = DEFAULT_REL_TOL,
    metric: str = "cycles_per_s",
) -> ComparisonReport:
    """Entry-by-entry throughput comparison of two ledgers."""
    if rel_tol < 0:
        raise ValueError(f"rel_tol must be >= 0, got {rel_tol}")
    if metric not in COMPARE_METRICS:
        raise ValueError(f"unknown perf metric {metric!r}")
    hosts_match = bool(
        old.fingerprint and old.fingerprint == new.fingerprint
    )
    report = ComparisonReport(
        metric=metric, rel_tol=rel_tol, hosts_match=hosts_match
    )
    if not hosts_match:
        report.warnings.append(
            f"host fingerprints differ (old={old.fingerprint or '?'}, "
            f"new={new.fingerprint or '?'}); regressions downgraded to "
            "warnings"
        )
    if old.code_version != new.code_version:
        report.warnings.append(
            f"code versions differ (old={old.code_version}, "
            f"new={new.code_version}); results may not be comparable"
        )
    if not old.entries:
        report.warnings.append("baseline ledger has no entries")

    new_by_name = {e.name: e for e in new.entries}
    seen = set()
    for old_entry in old.entries:
        new_entry = new_by_name.get(old_entry.name)
        if new_entry is None:
            report.warnings.append(
                f"{old_entry.name}: present in baseline only"
            )
            continue
        seen.add(old_entry.name)
        old_value = getattr(old_entry, metric)
        new_value = getattr(new_entry, metric)
        # wall_s regresses upward; the rate metrics regress downward.
        higher_is_better = metric != "wall_s"
        if old_value <= 0 or new_value <= 0:
            report.deltas.append(Delta(
                old_entry.name, metric, old_value, new_value,
                STATUS_WARNING, "no measurable rate on one side",
            ))
            continue
        tol = rel_tol
        note = ""
        noisy = (len(old_entry.samples_wall_s) < 2
                 or len(new_entry.samples_wall_s) < 2)
        if noisy:
            tol = rel_tol * SINGLE_SAMPLE_SLACK
            note = f"single-sample: tolerance widened to {tol:.0%}"
        ratio = new_value / old_value
        if higher_is_better:
            regressed = ratio < 1.0 - tol
            improved = ratio > 1.0 + tol
        else:
            regressed = ratio > 1.0 + tol
            improved = ratio < 1.0 - tol
        if regressed:
            if hosts_match:
                status = STATUS_REGRESSION
                note = (note + "; " if note else "") + (
                    f"beyond {tol:.0%} tolerance"
                )
            else:
                status = STATUS_WARNING
                note = (note + "; " if note else "") + (
                    "would be a regression on a matching host"
                )
        elif improved:
            status = STATUS_IMPROVED
        else:
            status = STATUS_OK
        report.deltas.append(Delta(
            old_entry.name, metric, old_value, new_value, status, note,
        ))

    for entry in new.entries:
        if entry.name not in seen:
            report.warnings.append(
                f"{entry.name}: new entry with no baseline"
            )
    return report
