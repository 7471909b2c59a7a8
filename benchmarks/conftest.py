"""Shared benchmark fixtures.

Every bench regenerates one paper artifact (table or figure), prints the
same rows/series the paper reports, and archives the rendering under
``benchmarks/results/`` so EXPERIMENTS.md can cite actual output.

Telemetry: the session always ends by writing a run manifest (per-job
provenance and engine counters) and a ``BENCH_PERF.json`` perf ledger
(simulated-cycles/sec per job, worker utilization, and a digest index
of every published artifact) — for *serial* sessions too, so a
single-worker CI run is not invisible in telemetry.  With a cache dir
set both land next to the cache; otherwise they land in
``benchmarks/results/``.

Scale knobs:

* ``REPRO_BENCH_REQUESTS`` (default 2500) — trace length per
  (benchmark, architecture) simulation; figure *shapes* are stable from
  ~1500 requests upwards, raise it for publication-grade numbers,
* ``REPRO_BENCH_WORKERS`` (default 1) — simulation processes; ``0``
  means one per CPU core,
* ``REPRO_BENCH_CACHE_DIR`` (unset by default) — persistent result
  cache; a second bench run against a warm cache simulates nothing.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import pytest

from repro.obs.perf import LEDGER_BASENAME, PerfEntry, PerfLedger, fold_manifest
from repro.sim.parallel import ParallelExperimentEngine

RESULTS_DIR = Path(__file__).parent / "results"

#: Session-wide artifact digest index folded into the perf ledger: the
#: ledger-backed record of what :func:`publish` produced this session.
_ARTIFACT_DIGESTS: "dict[str, str]" = {}

#: Perf entries recorded outside the experiment engine (the hot-path
#: microbenchmarks time controller internals directly, so they never
#: appear in the run manifest); appended to the session ledger.
_EXTRA_PERF_ENTRIES: "list[PerfEntry]" = []


def record_perf_entry(entry: PerfEntry) -> PerfEntry:
    """Register a manually timed entry for the session's perf ledger.

    Entries with a name already recorded this session are merged by
    extending the sample list, so parametrized benches accumulate
    repeats instead of duplicating rows.
    """
    for existing in _EXTRA_PERF_ENTRIES:
        if existing.name == entry.name:
            existing.samples_wall_s.extend(entry.samples_wall_s)
            return existing
    _EXTRA_PERF_ENTRIES.append(entry)
    return entry


def bench_requests() -> int:
    return int(os.environ.get("REPRO_BENCH_REQUESTS", "2500"))


def bench_workers() -> "int | None":
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
    return None if workers == 0 else workers


@pytest.fixture(scope="session")
def requests() -> int:
    return bench_requests()


@pytest.fixture(scope="session")
def engine():
    """One experiment engine for the whole bench session.

    Figure 4, Figure 5 and the headline bench share baseline runs, so
    the expensive simulations happen exactly once each; with
    ``REPRO_BENCH_WORKERS`` > 1 each figure's grid fans out across a
    process pool, and ``REPRO_BENCH_CACHE_DIR`` persists every result
    across sessions.  The session ends by writing ``run-manifest.json``
    and the ``BENCH_PERF.json`` perf ledger — next to the cache when
    one is set, under ``benchmarks/results/`` otherwise — so serial
    and pooled sessions alike leave telemetry CI can archive.
    """
    engine = ParallelExperimentEngine(
        workers=bench_workers(),
        cache_dir=os.environ.get("REPRO_BENCH_CACHE_DIR") or None,
    )
    yield engine
    _write_session_telemetry(engine)


def _write_session_telemetry(engine: ParallelExperimentEngine) -> None:
    """Manifest + perf ledger, for pooled and serial sessions alike."""
    out_dir = engine.disk.root if engine.disk is not None else RESULTS_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = engine.manifest()
    manifest_path = manifest.write(out_dir / "run-manifest.json")
    print(f"\n[bench] run manifest: {manifest_path}")
    ledger = fold_manifest(
        PerfLedger(code_version=engine.code_version), manifest
    )
    for entry in _EXTRA_PERF_ENTRIES:
        ledger.add_entry(entry)
    ledger.artifacts = dict(_ARTIFACT_DIGESTS)
    ledger_path = ledger.write(out_dir / LEDGER_BASENAME)
    print(f"[bench] perf ledger: {ledger_path}")


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def publish(results_dir: Path, name: str, text: str) -> None:
    """Print an artifact, archive it, and index it in the perf ledger."""
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    _ARTIFACT_DIGESTS[name] = hashlib.sha256(
        text.encode("utf-8")
    ).hexdigest()
