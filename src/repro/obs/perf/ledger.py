"""The perf ledger: ``BENCH_PERF.json``, the simulator's own trajectory.

An append-only, schema-versioned record of how fast the *simulator*
runs: per-benchmark simulated-cycles/second and requests/second,
wall seconds, peak RSS, an optional phase breakdown from the
:mod:`~repro.obs.perf.profiler`, and the experiment engine's sweep
throughput (per-job wall times and worker utilization folded in from
the run manifest).  Written by ``repro perf record``, by every bench
session (``benchmarks/conftest.py``), and compared across commits by
``repro perf compare`` — so a 2x slowdown in the controller tick loop
fails CI instead of merging silently.

Provenance fields (code version, git SHA, host fingerprint, Python
version) make a ledger self-describing: the comparator refuses to
*fail* a build over numbers measured on different silicon — a host
fingerprint mismatch downgrades regressions to warnings.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ...errors import ExperimentError
from ..manifest import RunManifest, platform_stamp

#: Ledger schema identifier (bump on incompatible shape changes).
PERF_SCHEMA = "repro-bench-perf-v1"

#: Conventional ledger file name.
LEDGER_BASENAME = "BENCH_PERF.json"


class PerfLedgerError(ExperimentError):
    """A ledger file is missing, malformed, or schema-incompatible."""


def git_sha(repo_dir: "str | os.PathLike[str] | None" = None) -> str:
    """Best-effort short commit SHA (``unknown`` outside a checkout)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo_dir, capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def host_fingerprint() -> str:
    """A stable 12-hex identity for "the same machine class".

    Built from facts that change performance (machine, CPU count,
    Python major.minor, OS) rather than identity (hostname), so two CI
    runners of the same shape compare as peers while a laptop vs a
    runner does not.
    """
    facts = "|".join([
        platform.machine(),
        platform.system(),
        str(os.cpu_count() or 0),
        ".".join(map(str, sys.version_info[:2])),
        sys.implementation.name,
    ])
    return hashlib.sha256(facts.encode("utf-8")).hexdigest()[:12]


def host_info() -> Dict[str, object]:
    """The host block embedded in every ledger."""
    return {
        "fingerprint": host_fingerprint(),
        "hostname": platform.node(),
        "platform": platform_stamp(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 0,
        "python": sys.version.split()[0],
    }


def peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB (0 if unknown)."""
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return rss // 1024 if sys.platform == "darwin" else rss


@dataclass
class PerfEntry:
    """Throughput record for one (config, benchmark, requests) point.

    ``samples_wall_s`` holds every repeat's wall time; all derived
    rates use the median so one noisy sample cannot flip the gate.
    """

    name: str               #: "<config>:<benchmark>:<requests>"
    config: str
    benchmark: str
    requests: int
    samples_wall_s: List[float] = field(default_factory=list)
    sim_cycles: int = 0
    instructions: int = 0
    #: "record" (dedicated timing runs) or "engine" (manifest-derived).
    source: str = "record"
    #: Phase breakdown (:meth:`PhaseTimer.as_dict`), from a separate
    #: profiled run so the timing samples stay unperturbed.
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """Median wall seconds per run (0.0 with no samples)."""
        return statistics.median(self.samples_wall_s) if self.samples_wall_s else 0.0

    @property
    def cycles_per_s(self) -> float:
        wall = self.wall_s
        return self.sim_cycles / wall if wall > 0 else 0.0

    @property
    def requests_per_s(self) -> float:
        wall = self.wall_s
        return self.requests / wall if wall > 0 else 0.0

    @property
    def throughput_req_per_s(self) -> float:
        """Canonical throughput metric: requests retired per wall second.

        Median-based like every derived rate; this is the
        higher-is-better number the regression gate and the hot-path
        benchmarks track (``requests_per_s`` is kept for older tooling).
        """
        return self.requests_per_s

    @property
    def sim_cycles_per_wall_s(self) -> float:
        """Simulated cycles advanced per wall second (median-based).

        The simulator-speed companion to :attr:`throughput_req_per_s`:
        clock skipping raises it without touching requests/second.
        """
        return self.cycles_per_s

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "config": self.config,
            "benchmark": self.benchmark,
            "requests": self.requests,
            "samples_wall_s": [round(s, 6) for s in self.samples_wall_s],
            "sim_cycles": self.sim_cycles,
            "instructions": self.instructions,
            "source": self.source,
            "wall_s": round(self.wall_s, 6),
            "cycles_per_s": round(self.cycles_per_s, 2),
            "requests_per_s": round(self.requests_per_s, 2),
            "throughput_req_per_s": round(self.throughput_req_per_s, 2),
            "sim_cycles_per_wall_s": round(self.sim_cycles_per_wall_s, 2),
            "phases": self.phases,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PerfEntry":
        return cls(
            name=str(data["name"]),
            config=str(data.get("config", "")),
            benchmark=str(data.get("benchmark", "")),
            requests=int(data.get("requests", 0)),
            samples_wall_s=[float(s) for s in data.get("samples_wall_s", [])],
            sim_cycles=int(data.get("sim_cycles", 0)),
            instructions=int(data.get("instructions", 0)),
            source=str(data.get("source", "record")),
            phases=dict(data.get("phases", {})),
        )


@dataclass
class PerfLedger:
    """One session's complete perf record."""

    code_version: str
    schema: str = PERF_SCHEMA
    git_sha: str = field(default_factory=git_sha)
    host: Dict[str, object] = field(default_factory=host_info)
    created_utc: str = field(
        default_factory=lambda: time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        )
    )
    entries: List[PerfEntry] = field(default_factory=list)
    #: Engine/sweep throughput from the run manifest (worker
    #: utilization, busy vs wall seconds, jobs by source).
    engine: Dict[str, object] = field(default_factory=dict)
    #: Bench-session artifact index: name -> sha256 of the rendered
    #: text (the ledger-backed replacement for loose ``results/*.txt``
    #: session dumps — the digests pin what the session produced).
    artifacts: Dict[str, str] = field(default_factory=dict)
    peak_rss_kb: int = 0

    def add_entry(self, entry: PerfEntry) -> PerfEntry:
        self.entries.append(entry)
        return entry

    def entry(self, name: str) -> Optional[PerfEntry]:
        for entry in self.entries:
            if entry.name == name:
                return entry
        return None

    @property
    def fingerprint(self) -> str:
        return str(self.host.get("fingerprint", ""))

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "code_version": self.code_version,
            "git_sha": self.git_sha,
            "host": self.host,
            "created_utc": self.created_utc,
            "peak_rss_kb": self.peak_rss_kb,
            "engine": self.engine,
            "artifacts": dict(sorted(self.artifacts.items())),
            "entries": [e.as_dict() for e in self.entries],
        }

    def write(self, path: "str | os.PathLike[str]") -> Path:
        """Write the ledger as pretty-printed JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        self.peak_rss_kb = peak_rss_kb()
        with path.open("w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path


def read_ledger(path: "str | os.PathLike[str]") -> PerfLedger:
    """Load and validate a ledger file."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise PerfLedgerError(f"perf ledger not found: {path}")
    except (OSError, json.JSONDecodeError) as exc:
        raise PerfLedgerError(f"unreadable perf ledger {path}: {exc}")
    if not isinstance(data, dict) or data.get("schema") != PERF_SCHEMA:
        raise PerfLedgerError(
            f"{path}: unsupported perf-ledger schema "
            f"{data.get('schema') if isinstance(data, dict) else type(data)!r}"
            f" (expected {PERF_SCHEMA})"
        )
    ledger = PerfLedger(
        code_version=str(data.get("code_version", "")),
        git_sha=str(data.get("git_sha", "unknown")),
        host=dict(data.get("host", {})),
        created_utc=str(data.get("created_utc", "")),
        engine=dict(data.get("engine", {})),
        artifacts=dict(data.get("artifacts", {})),
        peak_rss_kb=int(data.get("peak_rss_kb", 0)),
    )
    ledger.entries = [
        PerfEntry.from_dict(e) for e in data.get("entries", [])
    ]
    return ledger


def fold_manifest(ledger: PerfLedger, manifest: RunManifest) -> PerfLedger:
    """Feed an engine run manifest into a ledger.

    Per-job wall times of *simulated* jobs become ``engine``-sourced
    entries (grouped by config/benchmark/requests, so a seed sweep's
    repeats land as samples of one entry), and the pool-level figures —
    wall vs busy seconds, worker utilization, jobs by source — land in
    the ``engine`` block.  Sweep throughput is thereby tracked alongside
    the dedicated single-run timings.
    """
    by_name: Dict[str, PerfEntry] = {e.name: e for e in ledger.entries}
    sources: Dict[str, int] = {}
    for job in manifest.jobs:
        sources[job.source] = sources.get(job.source, 0) + 1
        if job.source != "simulated":
            continue
        name = f"{job.config}:{job.benchmark}:{job.requests}"
        entry = by_name.get(name)
        if entry is None:
            entry = PerfEntry(
                name=name, config=job.config, benchmark=job.benchmark,
                requests=job.requests, source="engine",
            )
            by_name[name] = entry
            ledger.add_entry(entry)
        entry.samples_wall_s.append(job.wall_s)
        if job.cycles:
            entry.sim_cycles = job.cycles
        if job.instructions:
            entry.instructions = job.instructions
    ledger.engine = {
        "workers": manifest.workers,
        "wall_s": manifest.wall_s,
        "busy_s": manifest.busy_s,
        "worker_utilization": round(manifest.worker_utilization, 4),
        "jobs": len(manifest.jobs),
        "jobs_by_source": dict(sorted(sources.items())),
        "interrupted": manifest.interrupted,
    }
    return ledger
