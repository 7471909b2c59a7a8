"""The experiment engine: parallel, cached and supervised.

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
* :class:`ParallelExperimentEngine` — the one engine every figure,
  sweep and CLI command runs through: ``ProcessPoolExecutor`` fan-out
  with one job queued behind each running one, traces staged as the
  jobs first need them, an in-memory layer above the disk layer, a
  serial path when ``workers=1`` (or the platform cannot fork a pool),
  progress/ETA callbacks wired to
  :mod:`repro.sim.reporting`, and the supervision a long sweep needs:
  per-job timeouts, retry with backoff, pool recovery, degradation to
  serial, the sweep journal behind ``--resume`` and seeded chaos hooks
  (:mod:`repro.resilience`).

A batch served wholly from the caches calls none of the process pool,
the telemetry stream or the simulator, so this module imports them on
first use: a warm ``repro reproduce`` never loads them.

The mirror with the paper is deliberate: FgNVM's Backgrounded Writes
let reads proceed under a stalled long write; this engine lets a sweep
proceed under a stalled worker.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..config.params import SystemConfig
from ..errors import (
    ExperimentError,
    FatalJobError,
    JobTimeoutError,
    ReproError,
    WorkerCrashError,
)
from ..obs.events import (
    EV_DEGRADED,
    EV_FAULT,
    EV_POOL_REBUILD,
    EV_QUARANTINE,
    EV_RETRY,
    NULL_PROBE,
    Event,
    Probe,
)
from ..obs.manifest import JobRecord, RunManifest
from ..resilience.faults import (
    CORRUPT,
    DISK_FULL,
    TORN,
    FaultPlan,
    FaultSpec,
    apply_worker_fault,
    disk_full_error,
    mangle_blob,
)
from ..resilience.journal import JOURNAL_NAME, SweepJournal
from ..resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy, is_transient
from ..store import QUARANTINE_DIR, BlobStore
from ..workloads.packed import PackedTrace, TraceCache, trace_key
from ..workloads.spec_profiles import get_profile
from ..workloads.tracegen import generate_packed_trace
from .result import SimResult

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: Bumped whenever a change to the simulator/bank models alters results;
#: part of every cache key so a stale cache can never satisfy a job that
#: newer code would simulate differently.
CODE_VERSION = "fgnvm-sim-2"

#: Bumped whenever the bytes of a result blob change while what is
#: simulated does not (e.g. :class:`SimResult` moved module, which
#: changes the path its pickles name).  Part of every cache key, so old
#: and new blobs never read each other: an old blob is a plain miss,
#: not a corrupt blob.
RESULT_FORMAT = 2

#: Broken or hung pools an engine tolerates before it runs every later
#: batch serially in-process.
MAX_POOL_REBUILDS = 3

#: Poll interval for the supervision loop while a job timeout is armed.
SUPERVISOR_TICK_S = 0.05


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
    randomisation), and distinct whenever the config, trace parameters,
    code version or :data:`RESULT_FORMAT` differ.  ``canonical`` is
    ``canonical_config(job.config)`` when the caller already has it.
    """
    if canonical is None:
        canonical = canonical_config(job.config)
    payload = json.dumps(
        {
            "blob": RESULT_FORMAT,
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


def execute_job(job: ExperimentJob,
                trace: Optional[PackedTrace] = None) -> SimResult:
    """Run one job to completion on ``trace``.

    The engine passes the trace it staged (a pool worker decodes the
    blob its job carried); with no trace, the job's trace is generated
    from its (profile, seed) pair.  Either way the columns are
    bit-identical and the simulator itself is seed-free, so the result
    is deterministic.
    """
    from ..obs.stream import active_channel, streamed_simulate
    from .simulator import simulate

    if trace is None:
        trace = generate_packed_trace(_job_profile(job), job.requests)
    channel = active_channel()
    if channel is not None:
        # Live telemetry: identical simulation, plus lifecycle/epoch
        # frames on the process-local channel.  With no channel active
        # (the default) this function is byte-for-byte the pre-streaming
        # path — the stream-off bit-identity contract.
        return streamed_simulate(channel, job, trace)
    return simulate(job.config, trace)


def _timed_execute_job(
    job: ExperimentJob,
    fault: Optional[FaultSpec],
    trace: "PackedTrace | bytes | None" = None,
) -> "tuple[SimResult, float]":
    """Pool-worker entry point: optionally misbehave, then simulate.

    Module-level so it pickles into worker processes.  ``trace`` is the
    job's staged trace, or its framed blob when the job crossed into a
    pool worker (decoded here).  Returns the result and the simulation's
    wall time; with ``fault`` None it is the plain timed execution path.
    """
    if fault is not None:
        apply_worker_fault(fault)
    if isinstance(trace, bytes):
        trace = PackedTrace.from_bytes(trace)
    started = time.monotonic()
    result = execute_job(job, trace)
    return result, time.monotonic() - started


def _pool_worker_init(raw_queue=None, capacity: int = 0) -> None:
    """Pool-worker bootstrap: bind the telemetry channel, if any.

    Traces do not pass through here: each travels by value with the job
    that replays it (see :func:`_timed_execute_job`), so a trace the
    parent stages after the pool started reaches its workers too.
    """
    if raw_queue is not None:
        from ..obs.stream import init_worker

        init_worker(raw_queue, capacity)


def _new_pool(**kwargs) -> ProcessPoolExecutor:
    """A ``ProcessPoolExecutor`` (the one place the engine builds one).

    The pool modules load with the first pool.  Workers are forked, so
    what they run -- the simulator and the telemetry stream -- is loaded
    here first: each worker inherits it instead of importing it anew.
    """
    from concurrent.futures import ProcessPoolExecutor

    from ..obs import stream  # noqa: F401
    from . import simulator  # noqa: F401

    return ProcessPoolExecutor(**kwargs)


@dataclass
class TraceStats:
    """Where each batch's traces came from and how they travelled.

    Each trace is staged once in the parent, from the trace cache or by
    one generation.  Each executed job is counted once, by how it first
    received its trace: ``pooled_jobs`` (a pool job carrying the framed
    blob) or ``inproc_jobs`` (run in the parent process).
    """

    unique_traces: int = 0
    packed_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    generated: int = 0
    pooled_jobs: int = 0
    inproc_jobs: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "unique_traces": self.unique_traces,
            "packed_bytes": self.packed_bytes,
            "trace_cache_hits": self.cache_hits,
            "trace_cache_misses": self.cache_misses,
            "traces_generated": self.generated,
            "pooled_jobs": self.pooled_jobs,
            "inproc_jobs": self.inproc_jobs,
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


@dataclass
class ResilienceStats:
    """How dirty a run was: every recovery action, counted."""

    retries: int = 0
    worker_crashes: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    degraded_to_serial: int = 0
    faults_injected: int = 0
    journal_entries: int = 0
    resumed_hits: int = 0
    interrupted: bool = False

    def as_dict(self) -> Dict[str, int]:
        return {
            "retries": self.retries,
            "worker_crashes": self.worker_crashes,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "degraded_to_serial": self.degraded_to_serial,
            "faults_injected": self.faults_injected,
            "journal_entries": self.journal_entries,
            "resumed_hits": self.resumed_hits,
        }


class ParallelExperimentEngine:
    """Fan independent simulation jobs across cores, memoised and supervised.

    * ``workers`` — pool size; ``None`` means ``os.cpu_count()``; ``1``
      (or an unavailable pool) runs serially in-process with identical
      results and the same cache behaviour.
    * ``cache_dir`` — enables the persistent :class:`DiskResultCache`
      and, beside it, the sweep journal; ``None`` keeps memoisation
      purely in-memory.
    * ``progress`` — optional :data:`ProgressHook` called after every
      completed job of a batch (see
      :func:`repro.sim.reporting.progress_printer`).
    * ``retry`` — :class:`~repro.resilience.retry.RetryPolicy` for
      transient failures (default: 3 attempts, jittered backoff).
    * ``job_timeout_s`` — per-job wall-clock budget, counted from when
      a worker takes the job; an overdue pooled job is presumed hung,
      its pool is killed and rebuilt, and the job retried.  ``None``
      (default) disables the watchdog.
    * ``fault_plan`` — a :class:`~repro.resilience.faults.FaultPlan` of
      chaos to inject.
    * ``probe`` — :mod:`repro.obs` probe for fault/retry/quarantine
      events.
    * ``resume`` — verify the sweep journal against the disk cache and
      serve checkpointed jobs without re-simulation (requires a cache
      dir).
    * ``telemetry`` — optional :class:`~repro.obs.hub.TelemetryHub`;
      when set, every simulation (serial or pooled) streams lifecycle
      and epoch frames into the hub, and progress snapshots route
      through it so ``--progress`` and ``repro watch`` read identical
      counters.  ``None`` (the default) leaves the execution path
      byte-for-byte unchanged.

    Lookup order per job: in-memory dict, then disk, then simulate.
    Results are returned in job order regardless of completion order,
    so serial and parallel runs are indistinguishable to callers.
    After more than :data:`MAX_POOL_REBUILDS` broken or hung pools the
    engine runs every later batch serially in-process.
    """

    def __init__(
        self,
        workers: Optional[int] = 1,
        cache_dir: "str | os.PathLike[str] | None" = None,
        progress: Optional[ProgressHook] = None,
        retry: Optional[RetryPolicy] = None,
        job_timeout_s: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        probe: Optional[Probe] = None,
        resume: bool = False,
        telemetry=None,
    ):
        self.workers = os.cpu_count() or 1 if workers is None else workers
        if self.workers < 1:
            raise ExperimentError(
                f"workers must be >= 1, got {self.workers}"
            )
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise ExperimentError(
                f"job_timeout_s must be positive, got {job_timeout_s}"
            )
        self.code_version = CODE_VERSION
        self.max_pool_rebuilds = MAX_POOL_REBUILDS
        self.progress = progress
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        self.job_timeout_s = job_timeout_s
        self.plan = fault_plan
        self.probe = probe if probe is not None else NULL_PROBE
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.note_workers(self.workers)
            # Tee harness events (retries, faults, quarantines, pool
            # rebuilds) into the hub's fleet counters; the caller's
            # sink, if any, still sees the unmodified stream.
            self.probe = telemetry.adopt_probe(self.probe)
        self.disk = DiskResultCache(cache_dir) if cache_dir else None
        self.stats = EngineStats()
        self.rstats = ResilienceStats()
        #: Content-addressed packed-trace blobs next to the result cache.
        self.traces: Optional[TraceCache] = None
        #: Completed-job checkpoints next to the result cache.
        self.journal: Optional[SweepJournal] = None
        if self.disk is not None:
            try:
                self.traces = TraceCache(self.disk.root / "traces")
            except OSError:
                self.traces = None  # results cache survives; traces regen
            self.journal = SweepJournal(
                self.disk.root / JOURNAL_NAME, self.code_version
            )
        for store in (self.disk, self.traces):
            if store is not None:
                store.on_corrupt = self._on_corrupt
        self.trace_stats = TraceStats()
        #: The current batch's trace staging (see :meth:`_plan_traces`).
        self._trace_of: List[str] = []
        self._unstaged: Dict[str, ExperimentJob] = {}
        #: Each staged trace, and its framed blob once a pool job needs it.
        self._staged: Dict[str, PackedTrace] = {}
        self._blobs: Dict[str, bytes] = {}
        self._dispatched: "set[int]" = set()
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
        self._degraded = False
        self._fired_cache_faults: "set[int]" = set()
        self._fired_interrupts: "set[int]" = set()
        self._batch_label = ""
        self._resumed_keys: "set[str]" = set()
        if resume:
            if self.journal is None:
                raise ExperimentError(
                    "--resume needs a persistent cache: pass --cache-dir "
                    "(or set REPRO_CACHE_DIR) so the sweep journal and "
                    "result blobs have somewhere to live"
                )
            self._resumed_keys = self.journal.verified_keys(self.disk)

    def run(
        self,
        config: SystemConfig,
        benchmark: str,
        requests: int = 20_000,
        seed: Optional[int] = None,
    ) -> SimResult:
        """One job through the cache hierarchy."""
        return self.run_jobs(
            [ExperimentJob(config, benchmark, requests, seed)]
        )[0]

    def begin_batch(self, label: str) -> None:
        """Label journal entries for the next batch (e.g. ``sweep:...``)."""
        self._batch_label = label

    @property
    def resumable_jobs(self) -> int:
        """Checkpointed jobs a resumed run can serve without simulating."""
        return len(self._resumed_keys)

    # -- batch execution ----------------------------------------------------

    def run_jobs(self, jobs: Sequence[ExperimentJob]) -> List[SimResult]:
        """Run a batch of jobs, fanning cache misses across the pool.

        Returns results in job order.  Duplicate jobs within one batch
        simulate once.  On ``KeyboardInterrupt`` the completed jobs are
        already on disk and journaled; a partial ``run-manifest.json``
        is written as the receipt before the interrupt propagates.
        """
        try:
            return self._run_batch(list(jobs))
        except KeyboardInterrupt:
            self.rstats.interrupted = True
            try:
                self.write_manifest()
            except OSError:
                pass
            raise

    def _run_batch(self, jobs: List[ExperimentJob]) -> List[SimResult]:
        keys = self._keys(jobs)
        self.stats.submitted += len(jobs)
        started = time.monotonic()
        previous_channel = None
        if self.telemetry is not None:
            # Activate the hub's channel in this process so serial and
            # degraded-to-serial execution stream exactly like pooled
            # workers; restored (to None, normally) in the finally.
            from ..obs.stream import activate

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

        self._report(len(jobs) - len(pending), len(jobs), started)
        pooled = self.workers > 1 and len(pending) > 1 and not self._degraded
        try:
            self._plan_traces(pending)
            self._supervise(pending, pending_keys, results, pooled,
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

    def _supervise(
        self,
        pending: List[ExperimentJob],
        pending_keys: List[str],
        results: Dict[str, SimResult],
        pooled: bool,
        total: int,
        started: float,
    ) -> None:
        """Execute the cache misses of one batch: retries, timeouts, pool
        recovery, checkpoints."""
        if not pending:
            return
        n = len(pending)
        done_base = total - n
        attempts = [0] * n
        completed = 0
        queue: "deque[int]" = deque(range(n))

        def on_success(idx: int, result: SimResult, wall_s: float) -> None:
            nonlocal completed
            job, key = pending[idx], pending_keys[idx]
            self._arm_cache_fault(idx)
            results[key] = result
            self._memory[key] = result
            digest = self._persist(key, result)
            self.stats.executed += 1
            self._busy_s += wall_s
            self._record(job, key, "simulated", wall_s, result)
            self._mangle_after_persist(idx, key, digest)
            if self.journal is not None and digest is not None:
                self.journal.record(
                    key, digest, job=job, batch=self._batch_label
                )
                self.rstats.journal_entries += 1
            completed += 1
            self._report(done_base + completed, total, started)
            self._maybe_interrupt(idx)

        def run_one_serial(idx: int) -> None:
            trace = self._dispatch(idx, export=False)
            fault = (self.plan.worker_fault(idx, attempts[idx])
                     if self.plan is not None else None)
            try:
                if fault is not None:
                    self._note_fault(fault)
                    apply_worker_fault(fault, in_process=True)
                on_success(idx, *_timed_execute_job(pending[idx], None,
                                                    trace))
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                self._retry_or_raise(idx, pending[idx], attempts, queue, exc)

        if pooled:
            pool = self._make_pool(n)
            if pool is None:
                self._degrade("platform refused a process pool")
            else:
                self._run_pooled(pool, pending, attempts, queue, on_success)
        # Serial by construction, or degraded: drain what is left
        # in-process, faults softened accordingly, staging any trace
        # the pool had not needed yet.
        while queue:
            run_one_serial(queue.popleft())

    def _run_pooled(
        self,
        pool: ProcessPoolExecutor,
        pending: List[ExperimentJob],
        attempts: List[int],
        queue: "deque[int]",
        on_success: Callable[[int, SimResult, float], None],
    ) -> None:
        """Run the queue on ``pool`` until it is empty or the engine
        degrades; a degraded engine leaves the rest of the queue for
        the in-process drain.

        Two jobs per worker are in flight: one running, one queued
        behind it, so a freed worker starts its next job while the
        parent persists and journals the finished one.  Each in-flight
        entry is ``[job index, timeout clock start]``; a queued job's
        clock is None until a completion frees a worker for it.
        """
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        def pool_broke(future) -> bool:
            return isinstance(future.exception(), BrokenProcessPool)

        depth = 2 * self.workers
        inflight: "Dict[object, list]" = {}
        try:
            while pool is not None and (queue or inflight):
                broken = False
                while queue and len(inflight) < depth:
                    idx = queue.popleft()
                    blob = self._dispatch(idx, export=True)
                    fault = (self.plan.worker_fault(idx, attempts[idx])
                             if self.plan is not None else None)
                    if fault is not None:
                        self._note_fault(fault)
                    try:
                        future = pool.submit(
                            _timed_execute_job, pending[idx], fault, blob,
                        )
                    except (BrokenProcessPool, RuntimeError):
                        queue.appendleft(idx)
                        # The pool broke under the jobs in flight: the
                        # wait below collects and charges them.
                        broken = not inflight
                        break
                    inflight[future] = [idx, None]
                if broken:
                    pool = self._recover_pool(pool, inflight, queue)
                    continue
                self._start_clocks(inflight)
                if self._unstaged:
                    # The workers are busy: stage the next trace now
                    # rather than when a job first needs it.
                    self._stage(next(iter(self._unstaged)), export=True)

                timeout = (None if self.job_timeout_s is None
                           else SUPERVISOR_TICK_S)
                done, _ = wait(set(inflight), timeout=timeout,
                               return_when=FIRST_COMPLETED)
                if any(map(pool_broke, done)):
                    # A dead worker fails every future in flight: take
                    # them all, so the jobs that ran can be told apart
                    # from those still queued.
                    done, _ = wait(set(inflight))
                # Workers take jobs in submission order, one more for
                # each job that ended without killing its worker: a job
                # further back than that never ran.
                ran = self.workers + sum(
                    not pool_broke(future) for future in done
                )
                finished = [(future, n < ran, inflight.pop(future)[0])
                            for n, future in enumerate(list(inflight))
                            if future in done]
                self._start_clocks(inflight)
                for future, started, idx in finished:
                    try:
                        result, wall_s = future.result()
                    except BrokenProcessPool as exc:
                        broken = True
                        if not started:
                            # A broken pool fails every future; this job
                            # was still queued, so it is not charged.
                            queue.append(idx)
                            continue
                        self.rstats.worker_crashes += 1
                        self._retry_or_raise(
                            idx, pending[idx], attempts, queue,
                            WorkerCrashError(
                                f"worker died running job {idx}: "
                                f"{exc or 'process pool broken'}"
                            ),
                            backoff=False,
                        )
                    except KeyboardInterrupt:
                        raise
                    except Exception as exc:
                        self._retry_or_raise(
                            idx, pending[idx], attempts, queue, exc
                        )
                    else:
                        on_success(idx, result, wall_s)
                if broken:
                    pool = self._recover_pool(pool, inflight, queue)
                    continue

                if not done and self.job_timeout_s is not None:
                    now = time.monotonic()
                    hung = [
                        (future, idx) for future, (idx, t0)
                        in inflight.items()
                        if t0 is not None and now - t0 > self.job_timeout_s
                    ]
                    if hung:
                        for future, idx in hung:
                            inflight.pop(future)
                            self.rstats.timeouts += 1
                            self._retry_or_raise(
                                idx, pending[idx], attempts, queue,
                                JobTimeoutError(
                                    f"job {idx} exceeded "
                                    f"{self.job_timeout_s:g}s wall-clock "
                                    "budget (presumed hung)"
                                ),
                                backoff=False,
                            )
                        # A hung worker can only be reclaimed by
                        # killing its process: rebuild the pool.
                        pool = self._recover_pool(pool, inflight, queue)
        finally:
            if pool is not None:
                self._shutdown_pool(pool, brutal=False)

    def _start_clocks(self, inflight: "Dict[object, list]") -> None:
        """Start the timeout clock of every job a worker has taken.

        Workers take jobs in submission order, so the first ``workers``
        entries in flight are running and the rest are queued.
        """
        now = time.monotonic()
        for entry in islice(inflight.values(), self.workers):
            if entry[1] is None:
                entry[1] = now

    def _persist(self, key: str, result: SimResult) -> Optional[str]:
        """Write one blob to disk; returns its digest.

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

    # -- failure handling ----------------------------------------------------

    def _retry_or_raise(
        self,
        idx: int,
        job: ExperimentJob,
        attempts: List[int],
        queue: "deque[int]",
        exc: BaseException,
        backoff: bool = True,
    ) -> None:
        """Schedule a retry with backoff, or raise a fatal error."""
        attempts[idx] += 1
        what = (f"job {idx} ({job.config.name} / {job.benchmark} / "
                f"{job.requests} requests)")
        if not is_transient(exc):
            if isinstance(exc, ReproError):
                raise exc
            raise FatalJobError(f"{what} failed: {exc}") from exc
        if attempts[idx] >= self.retry.max_attempts:
            raise FatalJobError(
                f"{what} still failing after {attempts[idx]} attempt(s); "
                f"last error: {exc}"
            ) from exc
        self.rstats.retries += 1
        if self.probe.enabled:
            self.probe.emit(Event(
                kind=EV_RETRY, cycle=idx, value=attempts[idx],
                service=type(exc).__name__,
            ))
        if backoff:
            delay = self.retry.delay(attempts[idx])
            if delay > 0:
                time.sleep(delay)
        queue.append(idx)

    def _recover_pool(
        self,
        pool: ProcessPoolExecutor,
        inflight: "Dict[object, list]",
        queue: "deque[int]",
    ) -> Optional[ProcessPoolExecutor]:
        """Replace a broken/hung pool; degrade to serial past the limit."""
        for _future, (idx, _t0) in inflight.items():
            queue.append(idx)
        inflight.clear()
        self._shutdown_pool(pool, brutal=True)
        self.rstats.pool_rebuilds += 1
        if self.probe.enabled:
            self.probe.emit(Event(
                kind=EV_POOL_REBUILD, cycle=0,
                value=self.rstats.pool_rebuilds,
            ))
        if self.rstats.pool_rebuilds > self.max_pool_rebuilds:
            self._degrade(
                f"{self.rstats.pool_rebuilds} pool failures exceed the "
                f"limit of {self.max_pool_rebuilds}"
            )
            return None
        fresh = self._make_pool(max(1, len(queue)))
        if fresh is None:
            self._degrade("pool rebuild refused by platform")
        return fresh

    def _shutdown_pool(self, pool: ProcessPoolExecutor,
                       brutal: bool) -> None:
        """Tear a pool down; ``brutal`` kills workers (hung or crashed)."""
        if brutal:
            for process in list(getattr(pool, "_processes", {}).values()):
                try:
                    process.kill()
                except (OSError, AttributeError):
                    pass
        try:
            pool.shutdown(wait=not brutal, cancel_futures=True)
        except (OSError, RuntimeError):
            pass

    def _degrade(self, reason: str) -> None:
        """Run this and every later batch serially in-process."""
        if not self._degraded:
            self._degraded = True
            self.rstats.degraded_to_serial = 1
            if self.probe.enabled:
                self.probe.emit(Event(
                    kind=EV_DEGRADED, cycle=0, service=reason[:80]
                ))

    # -- chaos hooks ---------------------------------------------------------

    def _note_fault(self, fault: FaultSpec) -> None:
        self.rstats.faults_injected += 1
        if self.probe.enabled:
            self.probe.emit(Event(
                kind=EV_FAULT, cycle=fault.job_index, service=fault.kind,
            ))

    def _arm_cache_fault(self, idx: int) -> None:
        """Prime a disk-full fault so the upcoming persist fails once."""
        if self.plan is None or self.disk is None:
            return
        fault = self.plan.cache_fault(idx)
        if (fault is not None and fault.kind == DISK_FULL
                and idx not in self._fired_cache_faults):
            self._fired_cache_faults.add(idx)
            self._note_fault(fault)
            self.disk.inject_put_error = disk_full_error(fault)

    def _mangle_after_persist(self, idx: int, key: str,
                              digest: Optional[str]) -> None:
        """Corrupt/tear the just-written blob when the plan says so."""
        if self.plan is None or self.disk is None or digest is None:
            return
        fault = self.plan.cache_fault(idx)
        if (fault is not None and fault.kind in (CORRUPT, TORN)
                and idx not in self._fired_cache_faults):
            self._fired_cache_faults.add(idx)
            self._note_fault(fault)
            mangle_blob(self.disk._path(key), fault.kind)

    def _maybe_interrupt(self, idx: int) -> None:
        if (self.plan is not None and self.plan.interrupt_after(idx)
                and idx not in self._fired_interrupts):
            self._fired_interrupts.add(idx)
            raise KeyboardInterrupt(
                f"injected interrupt after job {idx}"
            )

    def _on_corrupt(self, key: str, reason: str) -> None:
        if self.probe.enabled:
            self.probe.emit(Event(
                kind=EV_QUARANTINE, cycle=0, service=reason[:80],
            ))

    # -- trace fan-out -------------------------------------------------------

    def _plan_traces(self, pending: Sequence[ExperimentJob]) -> None:
        """Note the trace each pending job replays; materialise none yet.

        ``_unstaged`` holds each distinct trace key once, with the first
        job that needs it, in the order the batch first needs them.
        """
        self._trace_of = []
        for job in pending:
            key = trace_key(_job_profile(job), job.requests)
            self._trace_of.append(key)
            self._unstaged.setdefault(key, job)

    def _dispatch(self, idx: int, export: bool) -> "PackedTrace | bytes":
        """Stage job ``idx``'s trace; count how the job first receives it.

        ``export`` is set for a pool job, which carries the trace's
        framed blob, and clear for one run in this process, which gets
        the staged trace itself.
        """
        trace = self._stage(self._trace_of[idx], export)
        if idx not in self._dispatched:
            self._dispatched.add(idx)
            if export:
                self.trace_stats.pooled_jobs += 1
            else:
                self.trace_stats.inproc_jobs += 1
        return trace

    def _stage(self, key: str, export: bool) -> "PackedTrace | bytes":
        """Materialise one trace of the batch, once.

        The trace is served from the content-addressed trace cache or
        generated exactly once here in the parent.  Returns the staged
        trace, or with ``export`` its framed blob, made once per trace
        and carried by every pool job that replays it.
        """
        packed = self._staged.get(key)
        if packed is None:
            job = self._unstaged.pop(key)
            stats = self.trace_stats
            packed = (self.traces.get(key) if self.traces is not None
                      else None)
            if packed is not None:
                stats.cache_hits += 1
            else:
                if self.traces is not None:
                    stats.cache_misses += 1
                packed = generate_packed_trace(_job_profile(job),
                                               job.requests)
                stats.generated += 1
                if self.traces is not None:
                    self.traces.put(key, packed)
            stats.unique_traces += 1
            stats.packed_bytes += packed.column_bytes
            self._staged[key] = packed
        if not export:
            return packed
        blob = self._blobs.get(key)
        if blob is None:
            blob = self._blobs[key] = self._export_segments(key, packed)
        return blob

    def _export_segments(self, key: str, packed: PackedTrace) -> bytes:
        """Frame one staged trace for the pool jobs that replay it.

        Called once per trace a pool job needs; every such job carries
        the same ``bytes`` object.  The name predates the by-value
        hand-off and is kept because the end-to-end benchmark's span
        table wraps this method as its ``workloads.shm_export`` layer.
        """
        return packed.to_bytes()

    def _teardown_traces(self) -> None:
        """Drop this batch's staged traces (runs in the batch's finally)."""
        self._trace_of = []
        self._unstaged.clear()
        self._staged.clear()
        self._blobs.clear()
        self._dispatched.clear()

    # -- records and telemetry ----------------------------------------------

    #: Stats counters folded into :attr:`reliability_totals` per job.
    RELIABILITY_COUNTERS = (
        "write_retries", "write_verify_failures", "maintenance_ops",
        "maintenance_cycles", "tiles_retired", "spares_consumed",
    )

    def _record(self, job: ExperimentJob, key: str, source: str,
                wall_s: float, result: "SimResult | None" = None) -> None:
        if source == "disk" and key in self._resumed_keys:
            self.rstats.resumed_hits += 1
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
            resilience=self.rstats.as_dict(),
            reliability=dict(self.reliability_totals),
            telemetry=(self.telemetry.manifest_block()
                       if self.telemetry is not None else {}),
            interrupted=self.rstats.interrupted,
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
            return _new_pool(
                max_workers=min(self.workers, n_tasks),
                initializer=_pool_worker_init,
                initargs=(raw_queue, capacity),
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
