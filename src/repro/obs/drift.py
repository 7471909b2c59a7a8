"""Drift detection: live epoch series vs a committed golden envelope.

The first observability-driven correctness check that fires *during* a
run.  A **drift envelope** is a committed per-(config, benchmark)
band — min/max per-epoch IPC with a relative tolerance — recorded from
a known-good run.  While a sweep streams, the
:class:`~repro.obs.hub.TelemetryHub` hands each epoch frame to a
:class:`DriftDetector`, which flags:

* ``ipc_low`` / ``ipc_high`` — an epoch's IPC left the envelope (after
  a warm-up grace period): the IPC-collapse detector,
* ``retry_storm`` — harness retries crossed a threshold: something is
  repeatedly killing jobs,
* ``starved_workers`` — fleet utilization below an explicit floor
  (default off: utilization is noisy on shared CI runners, so the
  floor must be opted into).

Every anomaly is published as an :data:`~repro.obs.events.EV_DRIFT`
event on the engine probe, surfaced as a ``drift`` telemetry frame in
``repro watch``, and folded into the run manifest's ``telemetry``
block — the same finding is visible live, post-hoc, and in CI.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..errors import ReproError

#: Envelope file schema identifier.
ENVELOPE_SCHEMA = "repro-drift-envelope-v1"

#: Drift anomaly kinds.
DRIFT_IPC_LOW = "ipc_low"            #: epoch IPC under the envelope floor
DRIFT_IPC_HIGH = "ipc_high"          #: epoch IPC over the envelope ceiling
DRIFT_RETRY_STORM = "retry_storm"    #: harness retries over threshold
DRIFT_STARVED = "starved_workers"    #: fleet utilization under the floor

DRIFT_KINDS = (DRIFT_IPC_LOW, DRIFT_IPC_HIGH, DRIFT_RETRY_STORM,
               DRIFT_STARVED)


@dataclass(frozen=True)
class DriftEnvelope:
    """The committed IPC band for one (config, benchmark) pair.

    ``ipc_min``/``ipc_max`` bound the steady-state per-epoch IPC;
    ``rel_tol`` widens the band symmetrically (0.25 → 25% slack) so an
    envelope recorded on one host transfers to another; the first
    ``warmup_epochs`` samples are exempt (cold caches, queue fill).
    """

    config: str
    benchmark: str
    ipc_min: float
    ipc_max: float
    rel_tol: float = 0.25
    warmup_epochs: int = 2

    @property
    def floor(self) -> float:
        return self.ipc_min * (1.0 - self.rel_tol)

    @property
    def ceiling(self) -> float:
        return self.ipc_max * (1.0 + self.rel_tol)

    def check(self, epoch: int, ipc: float) -> Optional[str]:
        """The anomaly kind one epoch sample triggers, or None."""
        if epoch < self.warmup_epochs:
            return None
        if ipc < self.floor:
            return DRIFT_IPC_LOW
        if ipc > self.ceiling:
            return DRIFT_IPC_HIGH
        return None


@dataclass(frozen=True)
class DriftFinding:
    """One detected anomaly (manifest entry / drift frame payload)."""

    kind: str
    job: str
    epoch: int
    observed: float
    bound: float
    detail: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "job": self.job,
            "epoch": self.epoch,
            "observed": round(self.observed, 6),
            "bound": round(self.bound, 6),
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DriftFinding":
        """Rebuild a finding from a ``drift`` frame payload."""
        return cls(
            kind=str(data["kind"]),
            job=str(data.get("job", "")),
            epoch=int(data.get("epoch", 0)),
            observed=float(data.get("observed", 0.0)),
            bound=float(data.get("bound", 0.0)),
            detail=str(data.get("detail", "")),
        )


def envelope_from_samples(config: str, benchmark: str,
                          ipc_series: List[float],
                          rel_tol: float = 0.25,
                          warmup_epochs: int = 2) -> DriftEnvelope:
    """Record an envelope from a known-good run's epoch IPC series."""
    steady = ipc_series[warmup_epochs:] or ipc_series
    if not steady:
        raise ReproError(
            f"cannot record a drift envelope for {config}/{benchmark}: "
            "the run produced no epoch samples (enable sim.epoch_cycles)"
        )
    return DriftEnvelope(
        config=config,
        benchmark=benchmark,
        ipc_min=min(steady),
        ipc_max=max(steady),
        rel_tol=rel_tol,
        warmup_epochs=warmup_epochs,
    )


def write_envelopes(path: "str | os.PathLike[str]",
                    envelopes: List[DriftEnvelope]) -> Path:
    """Persist a set of envelopes as one committed JSON file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = {
        "schema": ENVELOPE_SCHEMA,
        "envelopes": [
            {
                "config": env.config,
                "benchmark": env.benchmark,
                "ipc_min": round(env.ipc_min, 6),
                "ipc_max": round(env.ipc_max, 6),
                "rel_tol": env.rel_tol,
                "warmup_epochs": env.warmup_epochs,
            }
            for env in envelopes
        ],
    }
    with path.open("w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def read_envelopes(path: "str | os.PathLike[str]"
                   ) -> Dict[tuple, DriftEnvelope]:
    """Load committed envelopes keyed by (config, benchmark)."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read drift envelopes {path}: {exc}"
                         ) from exc
    if data.get("schema") != ENVELOPE_SCHEMA:
        raise ReproError(
            f"{path}: unsupported envelope schema {data.get('schema')!r} "
            f"(expected {ENVELOPE_SCHEMA})"
        )
    envelopes: Dict[tuple, DriftEnvelope] = {}
    for entry in data.get("envelopes", []):
        env = DriftEnvelope(
            config=entry["config"],
            benchmark=entry["benchmark"],
            ipc_min=entry["ipc_min"],
            ipc_max=entry["ipc_max"],
            rel_tol=entry.get("rel_tol", 0.25),
            warmup_epochs=entry.get("warmup_epochs", 2),
        )
        envelopes[(env.config, env.benchmark)] = env
    return envelopes


@dataclass
class DriftDetector:
    """Fold telemetry into anomaly findings against the envelopes.

    Harness thresholds: ``retry_storm_threshold`` retries across the
    fleet trip :data:`DRIFT_RETRY_STORM` (once); ``utilization_floor``
    (None = disabled) arms the starved-worker check, evaluated by the
    hub at end of run when utilization is meaningful.
    """

    envelopes: Dict[tuple, DriftEnvelope] = field(default_factory=dict)
    retry_storm_threshold: int = 10
    utilization_floor: Optional[float] = None
    findings: List[DriftFinding] = field(default_factory=list)
    _retry_fired: bool = False
    _keys: set = field(default_factory=set)

    def record(self, finding: DriftFinding) -> Optional[DriftFinding]:
        """Keep a finding unless the same anomaly is already kept.

        One anomaly is one (kind, job, epoch).  Returns the finding when
        it is new, None for a repeat: the spool holds every finding as a
        ``drift`` frame, so a replay (re-)detecting one must not count
        it twice.
        """
        key = (finding.kind, finding.job, finding.epoch)
        if key in self._keys:
            return None
        self._keys.add(key)
        self.findings.append(finding)
        return finding

    def check_epoch(self, job: str, config: str, benchmark: str,
                    epoch: int, ipc: float) -> Optional[DriftFinding]:
        """Check one streamed epoch sample; returns a new finding."""
        env = self.envelopes.get((config, benchmark))
        if env is None:
            return None
        kind = env.check(epoch, ipc)
        if kind is None:
            return None
        finding = DriftFinding(
            kind=kind,
            job=job,
            epoch=epoch,
            observed=ipc,
            bound=env.floor if kind == DRIFT_IPC_LOW else env.ceiling,
            detail=(f"epoch {epoch} ipc {ipc:.4f} outside "
                    f"[{env.floor:.4f}, {env.ceiling:.4f}]"),
        )
        return self.record(finding)

    def check_retries(self, total_retries: int) -> Optional[DriftFinding]:
        """Check the fleet retry count (fires at most once per run)."""
        if self._retry_fired or total_retries < self.retry_storm_threshold:
            return None
        self._retry_fired = True
        finding = DriftFinding(
            kind=DRIFT_RETRY_STORM,
            job="",
            epoch=0,
            observed=float(total_retries),
            bound=float(self.retry_storm_threshold),
            detail=(f"{total_retries} retries across the fleet "
                    f"(threshold {self.retry_storm_threshold})"),
        )
        return self.record(finding)

    def check_utilization(self, utilization: float
                          ) -> Optional[DriftFinding]:
        """End-of-run starved-worker check (only when a floor is set)."""
        if (self.utilization_floor is None
                or utilization >= self.utilization_floor):
            return None
        finding = DriftFinding(
            kind=DRIFT_STARVED,
            job="",
            epoch=0,
            observed=utilization,
            bound=self.utilization_floor,
            detail=(f"worker utilization {utilization:.2%} under the "
                    f"{self.utilization_floor:.2%} floor"),
        )
        return self.record(finding)

    def summary(self) -> Dict[str, object]:
        """Manifest-ready digest of every finding."""
        by_kind: Dict[str, int] = {}
        for finding in self.findings:
            by_kind[finding.kind] = by_kind.get(finding.kind, 0) + 1
        return {
            "envelopes": len(self.envelopes),
            "findings": [f.as_dict() for f in self.findings],
            "by_kind": by_kind,
        }
