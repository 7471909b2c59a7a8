"""Parallel experiment engine with a persistent on-disk result cache.

The experiment grid behind every figure and sweep is embarrassingly
parallel: each (config, benchmark, requests, seed) simulation is
independent of every other.  This module fans those jobs out across
cores and memoises the results on disk so that regenerating a figure a
second time performs zero new simulations:

* :class:`ExperimentJob` — one simulation, fully described by value,
* :func:`job_key` — a content-addressed key: a stable SHA-256 over the
  serialized :class:`~repro.config.params.SystemConfig`, the trace
  parameters and a code-version tag,
* :class:`DiskResultCache` — pickled :class:`SimResult` blobs under a
  cache directory, keyed by :func:`job_key`,
* :class:`ParallelExperimentEngine` — ``ProcessPoolExecutor`` fan-out
  with an in-memory layer above the disk layer, a serial fallback when
  ``workers=1`` (or the platform cannot fork a pool), and progress/ETA
  callbacks wired to :mod:`repro.sim.reporting`.

The engine duck-types :class:`~repro.sim.experiment.ExperimentCache`
(``run(config, benchmark, requests)`` plus ``__len__``), so everything
that accepted a cache — figure generators, benches, sweeps — can be
handed an engine instead.
"""

from __future__ import annotations

import atexit
import dataclasses
import enum
import hashlib
import json
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..config.params import SystemConfig
from ..errors import ExperimentError
from ..obs.manifest import JobRecord, RunManifest
from ..obs.stream import activate, active_channel, init_worker, streamed_simulate
from ..store import QUARANTINE_DIR, BlobStore
from ..workloads.packed import (
    PackedTrace,
    SharedTraceRef,
    TraceCache,
    clear_trace_sources,
    install_trace_sources,
    resolve_trace,
    trace_key,
)
from ..workloads.spec_profiles import get_profile
from ..workloads.tracegen import generate_packed_trace
from .simulator import SimResult, simulate

#: Bumped whenever a change to the simulator/bank models alters results;
#: part of every cache key so a stale cache can never satisfy a job that
#: newer code would simulate differently.
CODE_VERSION = "fgnvm-sim-2"

#: Default cache directory (overridable per engine or via
#: ``REPRO_CACHE_DIR``).
DEFAULT_CACHE_DIR = ".repro-cache"


# -- jobs and keys ----------------------------------------------------------


@dataclass
class ExperimentJob:
    """One independent simulation, fully described by value.

    ``seed`` overrides the benchmark profile's trace seed when set, so a
    seed sweep over one (config, benchmark) pair is a first-class grid
    axis.
    """

    config: SystemConfig
    benchmark: str
    requests: int
    seed: Optional[int] = None


#: Leaf types returned as they are (exact types: an enum deriving from
#: ``int`` or ``str`` still reduces to its ``value``).
_PRIMITIVES = frozenset((str, int, float, bool, type(None)))

#: Field names of every dataclass met so far, in ``dataclasses.fields``
#: order: looked up once per class rather than once per node.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def _jsonable(value):
    """Recursively reduce a config value to JSON-stable primitives."""
    cls = type(value)
    if cls in _PRIMITIVES:
        return value
    names = _FIELD_NAMES.get(cls)
    if names is not None:
        return {name: _jsonable(getattr(value, name)) for name in names}
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        _FIELD_NAMES[cls] = tuple(f.name for f in dataclasses.fields(value))
        return _jsonable(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def canonical_config(config: SystemConfig) -> str:
    """A stable serialization of every field of a config.

    Two configs constructed independently with identical field values
    produce the identical string; any single-field difference (including
    the name) produces a different one.
    """
    return json.dumps(_jsonable(config), sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_digest(config: SystemConfig) -> str:
    """SHA-256 hex digest of the canonical config serialization."""
    return _sha256(canonical_config(config))


def job_key(
    job: ExperimentJob,
    code_version: str = CODE_VERSION,
    canonical: Optional[str] = None,
) -> str:
    """Content-addressed cache key for one job.

    Stable across processes and Python versions (no ``hash()``
    randomisation), and distinct whenever the config, trace parameters
    or code version differ.  ``canonical`` is
    ``canonical_config(job.config)`` when the caller already has it.
    """
    if canonical is None:
        canonical = canonical_config(job.config)
    payload = json.dumps(
        {
            "code": code_version,
            "config": canonical,
            "benchmark": job.benchmark,
            "requests": job.requests,
            "seed": job.seed,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return _sha256(payload)


def _job_profile(job: ExperimentJob):
    """The benchmark profile a job simulates (seed override applied)."""
    profile = get_profile(job.benchmark)
    if job.seed is not None:
        profile = replace(profile, seed=job.seed)
    return profile


def execute_job(job: ExperimentJob) -> SimResult:
    """Run one job to completion (the worker-process entry point).

    Module-level so it pickles into pool workers; deterministic because
    the trace resolves through the packed-source registry — a mapped
    shared-memory segment, an in-process install, or regeneration from
    the (profile, seed) pair, all bit-identical — and the simulator
    itself is seed-free.
    """
    trace = resolve_trace(_job_profile(job), job.requests)
    channel = active_channel()
    if channel is not None:
        # Live telemetry: identical simulation, plus lifecycle/epoch
        # frames on the process-local channel.  With no channel active
        # (the default) this function is byte-for-byte the pre-streaming
        # path — the stream-off bit-identity contract.
        return streamed_simulate(channel, job, trace)
    return simulate(job.config, trace)


def _timed_execute_job(job: ExperimentJob) -> "tuple[SimResult, float]":
    """Worker entry point that also reports the job's wall time."""
    started = time.monotonic()
    result = execute_job(job)
    return result, time.monotonic() - started


def _pool_worker_init(
    trace_refs: "tuple[SharedTraceRef, ...]",
    raw_queue=None,
    capacity: int = 0,
) -> None:
    """Pool-worker bootstrap: trace sources plus optional telemetry.

    Installs the parent's shared-memory trace references (workers attach
    lazily on first resolve) and, when a telemetry queue rides along,
    binds the worker's streaming channel exactly as before.
    """
    install_trace_sources(shared=trace_refs)
    if raw_queue is not None:
        init_worker(raw_queue, capacity)


# -- shared-memory segment lifetime ------------------------------------------

#: Segments created by engines in this process and not yet unlinked.
#: Teardown normally empties this per batch; the atexit hook is the
#: safety net for interrupted runs (the chaos harness's crash paths), so
#: no ``/dev/shm`` segment can outlive the parent process.
_LIVE_SEGMENTS: Dict[str, object] = {}


def _release_segment(shm) -> None:
    """Close and unlink one owned segment (idempotent, best-effort)."""
    _LIVE_SEGMENTS.pop(shm.name, None)
    try:
        shm.close()
    except (OSError, BufferError):
        pass
    try:
        shm.unlink()
    except OSError:
        pass


def _cleanup_live_segments() -> None:
    for shm in list(_LIVE_SEGMENTS.values()):
        _release_segment(shm)


atexit.register(_cleanup_live_segments)


@dataclass
class TraceStats:
    """Where each batch's traces came from and how they travelled.

    Parent-authoritative: the counters describe the transport the engine
    set up, not per-worker observations (a worker whose attach fails
    regenerates silently and bit-identically — that degradation shows up
    in :func:`repro.workloads.packed.attach_failures` inside the worker,
    not here).
    """

    unique_traces: int = 0
    packed_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    generated: int = 0
    shm_segments: int = 0
    shm_bytes: int = 0
    shm_attached: int = 0
    inproc_jobs: int = 0
    regenerated_jobs: int = 0
    fallback: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "unique_traces": self.unique_traces,
            "packed_bytes": self.packed_bytes,
            "trace_cache_hits": self.cache_hits,
            "trace_cache_misses": self.cache_misses,
            "traces_generated": self.generated,
            "shm_segments": self.shm_segments,
            "shm_bytes": self.shm_bytes,
            "shm_attached": self.shm_attached,
            "inproc_jobs": self.inproc_jobs,
            "regenerated_jobs": self.regenerated_jobs,
            "fallback": self.fallback,
        }


# -- persistent cache -------------------------------------------------------

#: Framed-blob magic of result blobs (see :mod:`repro.store`).  The
#: embedded digest makes torn or bit-rotted blobs detectable without
#: trusting the unpickler, and doubles as the journal's result digest.
BLOB_MAGIC = b"repro-blob-v1\n"

#: Everything unpickling arbitrary bytes can raise — well beyond
#: UnpicklingError (e.g. ValueError from a garbage LONG opcode).
_UNPICKLE_ERRORS = (
    pickle.UnpicklingError, EOFError, AttributeError, OSError,
    ValueError, ImportError, IndexError, MemoryError,
)


def result_digest(result: SimResult) -> "tuple[bytes, str]":
    """(pickle payload, sha-256 hex digest) for one result blob."""
    payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    return payload, hashlib.sha256(payload).hexdigest()


class DiskResultCache(BlobStore):
    """Pickled :class:`SimResult` blobs in a :class:`~repro.store.BlobStore`.

    Layout ``<root>/<key[:2]>/<key>.pkl``, framed with :data:`BLOB_MAGIC`.
    The store verifies every read and quarantines failures under
    ``<root>/quarantine/``; a payload that verifies but does not unpickle
    is quarantined too.  Either way the lookup is a miss and the result
    is recomputed.
    """

    suffix = ".pkl"
    magic = BLOB_MAGIC

    def __init__(self, root: "str | os.PathLike[str]"):
        try:
            super().__init__(root)
        except OSError as exc:
            raise ExperimentError(
                f"cache dir {root} is not a writable directory "
                f"({exc}); pass a usable path via --cache-dir or "
                "REPRO_CACHE_DIR"
            ) from exc

    def get(self, key: str) -> Optional[SimResult]:
        payload = self.read(key)
        if payload is None:
            return None
        try:
            return pickle.loads(payload)
        except _UNPICKLE_ERRORS:
            self.quarantine(key, "unpicklable payload")
            return None

    def put(self, key: str, result: SimResult) -> str:
        """Atomically persist one result; returns its payload digest."""
        payload, digest = result_digest(result)
        self.write(key, payload, digest)
        return digest

    def verify(self, key: str, expected_digest: str) -> bool:
        """True when the stored blob matches ``expected_digest``.

        Used by journal-driven resume to prove a checkpointed result is
        still intact without unpickling it; a present-but-corrupt blob
        is quarantined and reported False.
        """
        payload = self.read(key)
        if payload is None:
            return False
        if hashlib.sha256(payload).hexdigest() != expected_digest:
            self.quarantine(key, "digest does not match journal")
            return False
        return True


# -- engine -----------------------------------------------------------------


@dataclass
class EngineStats:
    """Where the engine's results came from (the cache-hit counters)."""

    submitted: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    executed: int = 0
    corrupt_blobs: int = 0

    @property
    def cache_hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def simulations(self) -> int:
        """New simulations actually performed (the acceptance counter)."""
        return self.executed

    def as_dict(self) -> Dict[str, int]:
        return {
            "submitted": self.submitted,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "cache_hits": self.cache_hits,
            "simulations": self.executed,
            "corrupt_blobs": self.corrupt_blobs,
        }


@dataclass(frozen=True)
class ProgressEvent:
    """One progress snapshot handed to the engine's callback."""

    done: int
    total: int
    elapsed_s: float
    cache_hits: int
    label: str = "simulations"

    @property
    def eta_s(self) -> Optional[float]:
        """Estimated seconds remaining (None before any completion)."""
        if self.done <= 0 or self.total <= self.done:
            return None if self.total > self.done else 0.0
        return self.elapsed_s / self.done * (self.total - self.done)


ProgressHook = Callable[[ProgressEvent], None]


class ParallelExperimentEngine:
    """Fan independent simulation jobs across cores, memoised twice over.

    * ``workers`` — pool size; ``None`` means ``os.cpu_count()``; ``1``
      (or an unavailable pool) runs serially in-process with identical
      results and the same cache behaviour.
    * ``cache_dir`` — enables the persistent :class:`DiskResultCache`;
      ``None`` keeps memoisation purely in-memory (like the classic
      :class:`~repro.sim.experiment.ExperimentCache`).
    * ``progress`` — optional :data:`ProgressHook` called after every
      completed job of a batch (see
      :func:`repro.sim.reporting.progress_printer`).
    * ``telemetry`` — optional :class:`~repro.obs.hub.TelemetryHub`;
      when set, every simulation (serial or pooled) streams lifecycle
      and epoch frames into the hub, and progress snapshots route
      through it so ``--progress`` and ``repro watch`` read identical
      counters.  ``None`` (the default) leaves the execution path
      byte-for-byte unchanged.

    Lookup order per job: in-memory dict, then disk, then simulate.
    Results are returned in job order regardless of completion order,
    so serial and parallel runs are indistinguishable to callers.
    """

    def __init__(
        self,
        workers: Optional[int] = 1,
        cache_dir: "str | os.PathLike[str] | None" = None,
        progress: Optional[ProgressHook] = None,
        code_version: str = CODE_VERSION,
        telemetry=None,
    ):
        self.workers = os.cpu_count() or 1 if workers is None else workers
        if self.workers < 1:
            raise ExperimentError(
                f"workers must be >= 1, got {self.workers}"
            )
        self.code_version = code_version
        self.progress = progress
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.note_workers(self.workers)
        self.disk = DiskResultCache(cache_dir) if cache_dir else None
        self.stats = EngineStats()
        #: Content-addressed packed-trace blobs next to the result cache.
        self.traces: Optional[TraceCache] = None
        if self.disk is not None:
            try:
                self.traces = TraceCache(self.disk.root / "traces")
            except OSError:
                self.traces = None  # results cache survives; traces regen
        self.trace_stats = TraceStats()
        #: Segment locators handed to pool workers for the current batch.
        self._shared_refs: "tuple[SharedTraceRef, ...]" = ()
        #: Segments this engine created and must unlink at teardown.
        self._segments: List = []
        self._memory: Dict[str, SimResult] = {}
        #: ``config_digest`` of each job key's config, for the records.
        self._config_digests: Dict[str, str] = {}
        #: Per-job provenance across every batch this engine has run.
        self.records: List[JobRecord] = []
        #: Device reliability counters summed over every job served
        #: (cache hits included — the counters describe the results the
        #: caller received, not just fresh simulations).
        self.reliability_totals: Dict[str, int] = {}
        self._wall_s = 0.0
        self._busy_s = 0.0

    # -- ExperimentCache-compatible surface ---------------------------------

    def run(
        self,
        config: SystemConfig,
        benchmark: str,
        requests: int = 20_000,
        seed: Optional[int] = None,
    ) -> SimResult:
        """One job through the cache hierarchy (drop-in for a cache)."""
        return self.run_jobs(
            [ExperimentJob(config, benchmark, requests, seed)]
        )[0]

    def __len__(self) -> int:
        return len(self._memory)

    # -- batch execution ----------------------------------------------------

    def run_jobs(self, jobs: Sequence[ExperimentJob]) -> List[SimResult]:
        """Run a batch of jobs, fanning cache misses across the pool.

        Returns results in job order.  Duplicate jobs within one batch
        simulate once.
        """
        jobs = list(jobs)
        keys = self._keys(jobs)
        self.stats.submitted += len(jobs)
        started = time.monotonic()
        previous_channel = None
        if self.telemetry is not None:
            # Activate the hub's channel in this process so serial and
            # degraded-to-serial execution stream exactly like pooled
            # workers; restored (to None, normally) in the finally.
            channel = self.telemetry.start(pooled=self.workers > 1)
            previous_channel = activate(channel)

        results: Dict[str, SimResult] = {}
        pending: List[ExperimentJob] = []
        pending_keys: List[str] = []
        for job, key in zip(jobs, keys):
            if key in results:
                self.stats.memory_hits += 1
                self._record(job, key, "memory", 0.0, results[key])
                continue
            if key in self._memory:
                self.stats.memory_hits += 1
                results[key] = self._memory[key]
                self._record(job, key, "memory", 0.0, results[key])
                continue
            if self.disk is not None:
                fetch_started = time.monotonic()
                cached = self.disk.get(key)
                if cached is not None:
                    self.stats.disk_hits += 1
                    results[key] = cached
                    self._memory[key] = cached
                    self._record(job, key, "disk",
                                 time.monotonic() - fetch_started, cached)
                    continue
            if key not in pending_keys:
                pending.append(job)
                pending_keys.append(key)

        done = len(jobs) - len(pending)
        self._report(done, len(jobs), started)
        self._prepare_traces(pending)
        try:
            self._run_pending(pending, pending_keys, results,
                              len(jobs), started)
        finally:
            self._teardown_traces()
            self._wall_s += time.monotonic() - started
            self.stats.corrupt_blobs = sum(
                store.corrupt_blobs for store in (self.disk, self.traces)
                if store is not None
            )
            if self.telemetry is not None:
                self.telemetry.note_trace(self.trace_stats.as_dict())
                activate(previous_channel)
                # The pool (if any) has shut down by now, so worker
                # feeder threads have flushed: one drain gets the tail.
                self.telemetry.pump()
        return [results[key] for key in keys]

    def _keys(self, jobs: List[ExperimentJob]) -> List[str]:
        """The jobs' cache keys, canonicalising each distinct config once.

        Configs are mutable, so a canonical form is reused only within
        this call.  A key fixes its config's canonical form, so the
        digest the job records carry is kept per key.
        """
        canonical: Dict[int, str] = {}
        keys = []
        for job in jobs:
            text = canonical.get(id(job.config))
            if text is None:
                text = canonical[id(job.config)] = canonical_config(job.config)
            key = job_key(job, self.code_version, text)
            if key not in self._config_digests:
                self._config_digests[key] = _sha256(text)
            keys.append(key)
        return keys

    def _run_pending(
        self,
        pending: List[ExperimentJob],
        pending_keys: List[str],
        results: Dict[str, SimResult],
        total: int,
        started: float,
    ) -> None:
        """Execute the cache misses of one batch (the supervision seam).

        The base engine streams results off :meth:`_execute`; the
        resilient subclass replaces this with a retrying, checkpointing
        supervisor while reusing :meth:`_complete_job` for bookkeeping.
        """
        for job, key, (result, wall_s) in zip(
            pending, pending_keys,
            self._execute(pending, total, started),
        ):
            self._complete_job(job, key, result, wall_s, results)

    def _complete_job(
        self,
        job: ExperimentJob,
        key: str,
        result: SimResult,
        wall_s: float,
        results: Dict[str, SimResult],
    ) -> Optional[str]:
        """Account one finished simulation; returns its blob digest."""
        results[key] = result
        self._memory[key] = result
        digest = self._persist(key, result)
        self.stats.executed += 1
        self._busy_s += wall_s
        self._record(job, key, "simulated", wall_s, result)
        return digest

    def _persist(self, key: str, result: SimResult) -> Optional[str]:
        """Write one blob to disk.

        A failed write (e.g. disk full) is counted by the store and
        tolerated — the result lives on in memory and is simply
        recomputed next run.
        """
        if self.disk is None:
            return None
        try:
            return self.disk.put(key, result)
        except OSError:
            return None

    # -- trace fan-out -------------------------------------------------------

    def _prepare_traces(self, pending: Sequence[ExperimentJob]) -> None:
        """Materialise each distinct trace once and stage its transport.

        Every pending job's trace is served from the content-addressed
        trace cache or generated exactly once here in the parent, then
        installed in the process-global registry (serial and
        degraded-pool paths read it directly) and — when a pool will
        actually run — exported into shared-memory segments that workers
        map zero-copy.  Any shared-memory failure records a fallback
        reason and leaves workers on the bit-identical regeneration
        path.
        """
        if not pending:
            return
        stats = self.trace_stats
        local: Dict[str, PackedTrace] = {}
        for job in pending:
            profile = _job_profile(job)
            key = trace_key(profile, job.requests)
            if key in local:
                continue
            packed = self.traces.get(key) if self.traces is not None else None
            if packed is not None:
                stats.cache_hits += 1
            else:
                if self.traces is not None:
                    stats.cache_misses += 1
                packed = generate_packed_trace(profile, job.requests)
                stats.generated += 1
                if self.traces is not None:
                    self.traces.put(key, packed)
            local[key] = packed
        stats.unique_traces += len(local)
        stats.packed_bytes += sum(p.column_bytes for p in local.values())
        install_trace_sources(local=local)
        self._shared_refs = ()
        if self.workers > 1 and len(pending) > 1:
            self._shared_refs = self._export_segments(local)
            if self._shared_refs:
                stats.shm_attached += len(pending)
            else:
                stats.regenerated_jobs += len(pending)
        else:
            stats.inproc_jobs += len(pending)

    def _export_segments(
        self, local: Dict[str, PackedTrace]
    ) -> "tuple[SharedTraceRef, ...]":
        """Write each packed blob into its own shared-memory segment.

        Returns the locator tuple for the pool initializer, or ``()``
        after releasing anything partially created — all-or-nothing, so
        workers either map every trace or regenerate every trace.
        """
        try:
            from multiprocessing import shared_memory
        except ImportError as exc:
            self.trace_stats.fallback = f"shared memory unavailable: {exc}"
            return ()
        refs: List[SharedTraceRef] = []
        created: List = []
        for n, (key, packed) in enumerate(local.items()):
            blob = packed.to_bytes()
            name = f"repro-trace-{os.getpid()}-{key[:8]}-{n}"
            try:
                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=len(blob)
                )
                shm.buf[: len(blob)] = blob
            except (OSError, ValueError) as exc:
                for segment in created:
                    _release_segment(segment)
                self.trace_stats.fallback = f"segment create failed: {exc}"
                return ()
            created.append(shm)
            _LIVE_SEGMENTS[shm.name] = shm
            refs.append(SharedTraceRef(key=key, name=shm.name,
                                       nbytes=len(blob)))
        self._segments.extend(created)
        self.trace_stats.shm_segments += len(created)
        self.trace_stats.shm_bytes += sum(ref.nbytes for ref in refs)
        return tuple(refs)

    def _teardown_traces(self) -> None:
        """Drop installed sources and unlink this batch's segments.

        Runs in ``run_jobs``'s finally, so interrupts (the resilient
        engine's KeyboardInterrupt manifest path included) release every
        segment; :func:`_cleanup_live_segments` backstops anything that
        escapes.
        """
        clear_trace_sources()
        self._shared_refs = ()
        segments, self._segments = self._segments, []
        for shm in segments:
            _release_segment(shm)

    # -- internals ----------------------------------------------------------

    def _execute(self, pending: List[ExperimentJob], total: int,
                 started: float) -> "Iterable[tuple[SimResult, float]]":
        done = total - len(pending)
        runner = None
        if self.workers > 1 and len(pending) > 1:
            pool = self._make_pool(len(pending))
            if pool is not None:
                def pooled():
                    with pool:
                        yield from pool.map(_timed_execute_job, pending)
                runner = pooled()
        if runner is None:
            runner = (_timed_execute_job(job) for job in pending)
        for timed in runner:
            done += 1
            self._report(done, total, started)
            yield timed

    #: Stats counters folded into :attr:`reliability_totals` per job.
    RELIABILITY_COUNTERS = (
        "write_retries", "write_verify_failures", "maintenance_ops",
        "maintenance_cycles", "tiles_retired", "spares_consumed",
    )

    def _record(self, job: ExperimentJob, key: str, source: str,
                wall_s: float, result: "SimResult | None" = None) -> None:
        if result is not None:
            for name in self.RELIABILITY_COUNTERS:
                count = getattr(result.stats, name, 0)
                if count:
                    self.reliability_totals[name] = (
                        self.reliability_totals.get(name, 0) + count
                    )
        self.records.append(JobRecord(
            key=key,
            config=job.config.name,
            config_digest=self._config_digests[key],
            benchmark=job.benchmark,
            requests=job.requests,
            seed=job.seed,
            source=source,
            wall_s=round(wall_s, 6),
            cycles=result.cycles if result is not None else 0,
            instructions=result.instructions if result is not None else 0,
        ))

    # -- telemetry -----------------------------------------------------------

    def manifest(self) -> RunManifest:
        """Provenance + telemetry for everything this engine has run."""
        return RunManifest(
            code_version=self.code_version,
            workers=self.workers,
            cache_dir=str(self.disk.root) if self.disk is not None else None,
            wall_s=round(self._wall_s, 6),
            busy_s=round(self._busy_s, 6),
            engine=self.stats.as_dict(),
            trace=self.trace_stats.as_dict(),
            reliability=dict(self.reliability_totals),
            telemetry=(self.telemetry.manifest_block()
                       if self.telemetry is not None else {}),
            jobs=list(self.records),
        )

    def write_manifest(
        self, path: "str | os.PathLike[str] | None" = None
    ) -> Optional[Path]:
        """Write the manifest next to the disk cache (or to ``path``).

        Returns the path written, or None when there is neither an
        explicit path nor a disk cache to sit alongside.
        """
        if path is None:
            if self.disk is None:
                return None
            path = self.disk.root / "run-manifest.json"
        return self.manifest().write(path)

    def _make_pool(self, n_tasks: int) -> Optional[ProcessPoolExecutor]:
        """A pool sized to the work, or None when the platform refuses."""
        raw_queue = None
        capacity = 0
        if self.telemetry is not None:
            # Bind the shared frame queue inside every worker.  The
            # queue rides the process-spawn path (initargs), where
            # multiprocessing queues are legitimately shareable.
            channel = self.telemetry.start(pooled=True)
            raw_queue = channel.queue
            capacity = channel.capacity
        try:
            return ProcessPoolExecutor(
                max_workers=min(self.workers, n_tasks),
                initializer=_pool_worker_init,
                initargs=(self._shared_refs, raw_queue, capacity),
            )
        except (OSError, ValueError, NotImplementedError):
            return None

    def _report(self, done: int, total: int, started: float) -> None:
        if self.progress is None and self.telemetry is None:
            return
        event = ProgressEvent(
            done=done,
            total=total,
            elapsed_s=time.monotonic() - started,
            cache_hits=self.stats.cache_hits,
        )
        if self.telemetry is not None:
            # The hub is the single source of truth for progress: fold
            # the snapshot there first (and drain worker frames), so a
            # --progress line and `repro watch` read the same counters.
            self.telemetry.note_progress(event)
        if self.progress is not None:
            self.progress(event)


def default_engine(
    workers: Optional[int] = 1,
    cache_dir: "str | os.PathLike[str] | None" = None,
    progress: Optional[ProgressHook] = None,
) -> ParallelExperimentEngine:
    """An engine honouring the ``REPRO_CACHE_DIR`` environment default."""
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    return ParallelExperimentEngine(
        workers=workers, cache_dir=cache_dir, progress=progress
    )
