"""Performance observability for the simulator itself (``repro.obs.perf``).

Three pieces, one goal — never merge a silent slowdown:

* :mod:`~repro.obs.perf.profiler` — the :class:`PhaseTimer` attributing
  wall time to named simulator phases (``repro profile``),
* :mod:`~repro.obs.perf.ledger` — the schema-versioned
  ``BENCH_PERF.json`` throughput record (``repro perf record`` and the
  bench session),
* :mod:`~repro.obs.perf.compare` — the noise-aware regression gate
  (``repro perf compare``, wired into CI).
"""

from ..._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "compare": (
        "COMPARE_METRICS", "DEFAULT_REL_TOL", "STATUS_IMPROVED",
        "STATUS_OK", "STATUS_REGRESSION", "STATUS_WARNING",
        "ComparisonReport", "Delta", "compare_ledgers",
    ),
    "ledger": (
        "LEDGER_BASENAME", "PERF_SCHEMA", "PerfEntry", "PerfLedger",
        "PerfLedgerError", "fold_manifest", "git_sha", "host_fingerprint",
        "host_info", "peak_rss_kb", "read_ledger",
    ),
    "profiler": (
        "PH_BANK_ISSUE", "PH_CLOCK", "PH_CPU_TICK", "PH_CTRL_SCHED",
        "PH_CTRL_TICK", "PH_QUEUE_ADMIT", "PH_RUN", "PH_STATS",
        "PH_TRACE_DECODE", "PHASE_NAMES", "PhaseStat", "PhaseTimer",
        "attached", "phase_table",
    ),
})
