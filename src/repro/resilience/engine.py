"""The fault-tolerant experiment engine: supervision around the pool.

:class:`ResilientEngine` extends
:class:`~repro.sim.parallel.ParallelExperimentEngine` with the
properties a long sweep needs to survive a hostile afternoon:

* **job supervision** — per-job wall-clock timeouts, retry with
  exponential backoff + deterministic jitter, a transient/fatal error
  split, automatic recovery from a broken worker pool, and graceful
  degradation to serial execution when pools keep dying,
* **checkpoint/resume** — every completed job is persisted and
  journaled (:class:`~repro.resilience.journal.SweepJournal`) the
  moment it finishes, so an interrupted sweep resumes with zero
  re-simulation; ``KeyboardInterrupt`` flushes a partial
  ``run-manifest.json`` on the way out,
* **deterministic chaos** — a seeded
  :class:`~repro.resilience.faults.FaultPlan` injects worker crashes,
  hangs, corrupt/torn blobs and disk-full errors at chosen job
  indices, with every fault/retry/quarantine published as
  :mod:`repro.obs` events and counted into the run manifest.

The mirror with the paper is deliberate: FgNVM's Backgrounded Writes
let reads proceed under a stalled long write; this engine lets a sweep
proceed under a stalled worker.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional

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
    Event,
    NULL_PROBE,
    Probe,
)
from ..obs.manifest import RunManifest
from ..sim.parallel import (
    CODE_VERSION,
    ExperimentJob,
    ParallelExperimentEngine,
    ProgressHook,
    SimResult,
)
from .faults import (
    CORRUPT,
    DISK_FULL,
    TORN,
    FaultPlan,
    FaultSpec,
    apply_worker_fault,
    disk_full_error,
    faulted_execute_job,
    mangle_blob,
)
from .journal import JOURNAL_NAME, SweepJournal
from .retry import DEFAULT_RETRY_POLICY, RetryPolicy, is_transient

#: Poll interval for the supervision loop while a job timeout is armed.
SUPERVISOR_TICK_S = 0.05


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


class ResilientEngine(ParallelExperimentEngine):
    """A :class:`ParallelExperimentEngine` that survives its workers.

    Extra knobs over the base engine:

    * ``retry`` — :class:`~repro.resilience.retry.RetryPolicy` for
      transient failures (default: 3 attempts, jittered backoff),
    * ``job_timeout_s`` — per-job wall-clock budget; an overdue pooled
      job is presumed hung, its pool is killed and rebuilt, and the job
      retried.  ``None`` (default) disables the watchdog,
    * ``fault_plan`` — a :class:`FaultPlan` of chaos to inject,
    * ``probe`` — :mod:`repro.obs` probe for fault/retry/quarantine
      events,
    * ``resume`` — verify the sweep journal against the disk cache and
      serve checkpointed jobs without re-simulation (requires a cache
      dir),
    * ``max_pool_rebuilds`` — broken/hung pools tolerated before the
      engine degrades to serial in-process execution for the rest of
      the batch.
    """

    def __init__(
        self,
        workers: Optional[int] = 1,
        cache_dir: "str | os.PathLike[str] | None" = None,
        progress: Optional[ProgressHook] = None,
        code_version: str = CODE_VERSION,
        retry: Optional[RetryPolicy] = None,
        job_timeout_s: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
        probe: Optional[Probe] = None,
        resume: bool = False,
        max_pool_rebuilds: int = 3,
        journal_path: "str | os.PathLike[str] | None" = None,
        telemetry=None,
    ):
        super().__init__(workers, cache_dir, progress, code_version,
                         telemetry=telemetry)
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise ExperimentError(
                f"job_timeout_s must be positive, got {job_timeout_s}"
            )
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        self.job_timeout_s = job_timeout_s
        self.plan = fault_plan
        self.probe = probe if probe is not None else NULL_PROBE
        if telemetry is not None:
            # Tee harness events (retries, faults, quarantines, pool
            # rebuilds) into the hub's fleet counters; the caller's
            # sink, if any, still sees the unmodified stream.
            self.probe = telemetry.adopt_probe(self.probe)
        self.max_pool_rebuilds = max_pool_rebuilds
        self.rstats = ResilienceStats()
        self._degraded = False
        self._fired_cache_faults: "set[int]" = set()
        self._fired_interrupts: "set[int]" = set()
        self._batch_label = ""
        self._resumed_keys: "set[str]" = set()

        self.journal: Optional[SweepJournal] = None
        if journal_path is not None:
            self.journal = SweepJournal(journal_path, code_version)
        elif self.disk is not None:
            self.journal = SweepJournal(
                self.disk.root / JOURNAL_NAME, code_version
            )
        for store in (self.disk, self.traces):
            if store is not None:
                store.on_corrupt = self._on_corrupt
        if resume:
            if self.disk is None or self.journal is None:
                raise ExperimentError(
                    "--resume needs a persistent cache: pass --cache-dir "
                    "(or set REPRO_CACHE_DIR) so the sweep journal and "
                    "result blobs have somewhere to live"
                )
            self._resumed_keys = self.journal.verified_keys(self.disk)

    # -- batch labelling / telemetry ----------------------------------------

    def begin_batch(self, label: str) -> None:
        """Label journal entries for the next batch (e.g. ``sweep:...``)."""
        self._batch_label = label

    @property
    def resumable_jobs(self) -> int:
        """Checkpointed jobs a resumed run can serve without simulating."""
        return len(self._resumed_keys)

    def manifest(self) -> RunManifest:
        manifest = super().manifest()
        manifest.resilience = self.rstats.as_dict()
        manifest.interrupted = self.rstats.interrupted
        return manifest

    # -- overridden engine seams --------------------------------------------

    def run_jobs(self, jobs) -> List[SimResult]:
        try:
            return super().run_jobs(jobs)
        except KeyboardInterrupt:
            # SIGINT-safe shutdown: completed jobs are already on disk
            # and journaled; leave a partial manifest as the receipt.
            self.rstats.interrupted = True
            try:
                self.write_manifest()
            except OSError:
                pass
            raise

    def _record(self, job: ExperimentJob, key: str, source: str,
                wall_s: float, result: "SimResult | None" = None) -> None:
        if source == "disk" and key in self._resumed_keys:
            self.rstats.resumed_hits += 1
        super()._record(job, key, source, wall_s, result)

    def _run_pending(
        self,
        pending: List[ExperimentJob],
        pending_keys: List[str],
        results: Dict[str, SimResult],
        total: int,
        started: float,
    ) -> None:
        """Supervised execution: retries, timeouts, pool recovery."""
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
            digest = self._complete_job(job, key, result, wall_s, results)
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
            fault = (self.plan.worker_fault(idx, attempts[idx])
                     if self.plan is not None else None)
            try:
                if fault is not None:
                    self._note_fault(fault)
                    apply_worker_fault(fault, in_process=True)
                t0 = time.monotonic()
                result = self._execute_one(pending[idx])
                on_success(idx, result, time.monotonic() - t0)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                self._retry_or_raise(idx, pending[idx], attempts, queue, exc)

        pool: Optional[ProcessPoolExecutor] = None
        if self.workers > 1 and n > 1 and not self._degraded:
            pool = self._make_pool(n)
            if pool is None:
                self._degrade("platform refused a process pool")
        try:
            inflight: "Dict[object, tuple[int, float]]" = {}
            while queue or inflight:
                if pool is None:
                    # Degraded (or serial-by-construction): drain the
                    # queue in-process, faults softened accordingly.
                    while queue:
                        run_one_serial(queue.popleft())
                    break

                # Keep at most `workers` jobs in flight so a submitted
                # job starts immediately and its wall clock is honest.
                broken = False
                while queue and len(inflight) < self.workers:
                    idx = queue.popleft()
                    fault = (self.plan.worker_fault(idx, attempts[idx])
                             if self.plan is not None else None)
                    if fault is not None:
                        self._note_fault(fault)
                    try:
                        future = pool.submit(
                            faulted_execute_job, pending[idx], fault
                        )
                    except (BrokenProcessPool, RuntimeError):
                        queue.appendleft(idx)
                        broken = True
                        break
                    inflight[future] = (idx, time.monotonic())
                if broken:
                    pool = self._recover_pool(pool, inflight, queue)
                    continue

                timeout = (None if self.job_timeout_s is None
                           else SUPERVISOR_TICK_S)
                done, _ = wait(set(inflight), timeout=timeout,
                               return_when=FIRST_COMPLETED)
                for future in done:
                    idx, _t0 = inflight.pop(future)
                    try:
                        result, wall_s = future.result()
                    except BrokenProcessPool as exc:
                        broken = True
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
                        if now - t0 > self.job_timeout_s
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

    # -- failure handling ----------------------------------------------------

    def _execute_one(self, job: ExperimentJob) -> SimResult:
        """One in-process simulation (seam for tests)."""
        return faulted_execute_job(job, None)[0]

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
        inflight: "Dict[object, tuple[int, float]]",
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


def resilient_engine(
    workers: Optional[int] = 1,
    cache_dir: "str | os.PathLike[str] | None" = None,
    progress: Optional[ProgressHook] = None,
    **kwargs,
) -> ResilientEngine:
    """A fault-tolerant engine honouring the ``REPRO_CACHE_DIR`` default."""
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    return ResilientEngine(
        workers=workers, cache_dir=cache_dir, progress=progress, **kwargs
    )
