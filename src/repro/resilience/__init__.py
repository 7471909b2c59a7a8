"""Fault tolerance for the experiment engine: supervise, checkpoint, chaos.

The layer that keeps long sweeps alive:

* :mod:`repro.resilience.engine` — :class:`ResilientEngine`, the
  supervised drop-in for
  :class:`~repro.sim.parallel.ParallelExperimentEngine` (retries,
  per-job timeouts, pool recovery, serial degradation, resume),
* :mod:`repro.resilience.retry` — :class:`RetryPolicy` (exponential
  backoff, deterministic jitter) and the transient/fatal split,
* :mod:`repro.resilience.journal` — the append-only sweep journal
  behind ``--resume``,
* :mod:`repro.resilience.faults` — the seeded :class:`FaultPlan` chaos
  harness (worker crashes, hangs, corrupt/torn blobs, disk-full)
  driving ``repro chaos`` and the chaos test suite.

See ``docs/resilience.md`` for the fault model and recovery policies.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "engine": (
        "SUPERVISOR_TICK_S", "ResilienceStats", "ResilientEngine",
        "resilient_engine",
    ),
    "faults": (
        "CACHE_FAULTS", "CORRUPT", "CRASH", "CRASH_EXIT_CODE", "DISK_FULL",
        "FAULT_KINDS", "HANG", "INTERRUPT", "TORN", "TRANSIENT",
        "WORKER_FAULTS", "FaultPlan", "FaultSpec", "apply_worker_fault",
        "disk_full_error", "faulted_execute_job", "mangle_blob",
    ),
    "journal": ("JOURNAL_NAME", "JOURNAL_SCHEMA", "SweepJournal"),
    "retry": ("DEFAULT_RETRY_POLICY", "RetryPolicy", "is_transient"),
})
