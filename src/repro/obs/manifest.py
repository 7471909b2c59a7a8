"""Run manifests: what ran, where, from which code, and how long.

A manifest is the provenance record written alongside cached results:
enough to answer "which code version and host produced these numbers,
which jobs were simulated versus served from cache, and what did each
cost?" without re-running anything.  The parallel engine builds one per
batch (:meth:`repro.sim.parallel.ParallelExperimentEngine.manifest`);
this module owns the schema and the JSON serialization so other
producers (benchmarks, CI) write the identical shape.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

#: Manifest schema identifier.
MANIFEST_SCHEMA = "repro-run-manifest-v1"


def platform_stamp() -> str:
    """``platform.platform()`` without the subprocess it forks on Linux.

    There it asks ``uname -p`` for the processor, which prints
    ``unknown`` or the machine name, and ``platform.platform()`` drops
    both; so the stamp is built from ``uname`` and the C library
    version alone.  Elsewhere it is ``platform.platform()`` itself.
    """
    if not sys.platform.startswith("linux"):
        return platform.platform()
    uname = platform.uname()
    libc, version = platform.libc_ver()
    parts = (uname.system, uname.release, uname.machine, "with",
             libc + version)
    return "-".join(part.strip().replace(" ", "_") for part in parts
                    if part)


@dataclass
class JobRecord:
    """Telemetry for one job the engine was asked for."""

    key: str                #: content-addressed cache key
    config: str             #: config name
    config_digest: str      #: sha-256 of the canonical config
    benchmark: str
    requests: int
    seed: Optional[int]
    source: str             #: "memory" | "disk" | "simulated"
    wall_s: float           #: time to produce (≈0 for cache hits)
    #: Simulated cycles/instructions of the result (0 when unknown) —
    #: what turns a wall time into a simulated-cycles/sec figure for
    #: the perf ledger (:mod:`repro.obs.perf.ledger`).
    cycles: int = 0
    instructions: int = 0


@dataclass
class RunManifest:
    """One engine run's provenance and telemetry."""

    code_version: str
    schema: str = MANIFEST_SCHEMA
    host: str = field(default_factory=platform.node)
    platform: str = field(default_factory=platform_stamp)
    python: str = field(default_factory=lambda: sys.version.split()[0])
    created_utc: str = field(
        default_factory=lambda: time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        )
    )
    workers: int = 1
    cache_dir: Optional[str] = None
    wall_s: float = 0.0
    busy_s: float = 0.0
    engine: Dict[str, int] = field(default_factory=dict)
    #: Trace-pipeline counters (packed bytes, trace-cache hits, pooled
    #: and in-process jobs; :class:`repro.sim.parallel.TraceStats`).
    #: Empty when the producer predates the packed pipeline.
    trace: Dict[str, object] = field(default_factory=dict)
    #: Fault-tolerance counters (retries, injected faults, quarantined
    #: blobs, pool rebuilds, ...) — how dirty the run was
    #: (:class:`repro.sim.parallel.ResilienceStats`).  Empty when the
    #: producer is not the experiment engine.
    resilience: Dict[str, int] = field(default_factory=dict)
    #: Device-level reliability counters summed over every job's result
    #: (write retries, retired tiles, maintenance ops, ...;
    #: :mod:`repro.memsys.reliability`).  Empty when no job ran with the
    #: fault model enabled.
    reliability: Dict[str, int] = field(default_factory=dict)
    #: Live-telemetry digest (frame/drop counts, spool path, drift
    #: findings; :mod:`repro.obs.hub`).  Empty for stream-off runs.
    telemetry: Dict[str, object] = field(default_factory=dict)
    #: True when the run was interrupted (SIGINT) and this manifest
    #: records the partial results flushed on the way out.
    interrupted: bool = False
    #: Latency-blame decomposition reports keyed however the producer
    #: organises them (``repro blame`` folds one report per
    #: (benchmark, policy) cell).  Empty for untraced runs.
    blame: Dict[str, object] = field(default_factory=dict)
    jobs: List[JobRecord] = field(default_factory=list)

    @property
    def worker_utilization(self) -> float:
        """Fraction of the worker-pool's wall capacity spent simulating."""
        capacity = self.wall_s * max(1, self.workers)
        return self.busy_s / capacity if capacity > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["worker_utilization"] = round(self.worker_utilization, 4)
        return data

    def write(self, path: "str | os.PathLike[str]") -> Path:
        """Write the manifest as pretty-printed JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path


def read_manifest(path: "str | os.PathLike[str]") -> Dict[str, object]:
    """Load a manifest JSON file (schema-checked)."""
    with Path(path).open("r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("schema") != MANIFEST_SCHEMA:
        raise ValueError(
            f"{path}: unsupported manifest schema {data.get('schema')!r}"
        )
    return data
