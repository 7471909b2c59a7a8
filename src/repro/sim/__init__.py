"""Simulation driver: main loop, experiment runner, reporting."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "experiment": (
        "DEFAULT_REQUESTS", "compare_architectures", "geometric_mean",
        "run_benchmark", "run_grid", "run_trace", "speedup",
        "speedup_table", "sweep_benchmarks",
    ),
    "parallel": (
        "BLOB_MAGIC", "CODE_VERSION", "QUARANTINE_DIR", "RESULT_FORMAT",
        "DiskResultCache", "EngineStats", "ExperimentJob",
        "ParallelExperimentEngine", "ProgressEvent", "ResilienceStats",
        "canonical_config", "config_digest", "execute_job", "job_key",
        "result_digest",
    ),
    "reporting": (
        "ascii_table", "bar_chart", "dict_table", "format_duration",
        "progress_line", "progress_printer", "series_table",
    ),
    "epochs": (
        "EpochRecorder", "EpochSample", "epoch_table", "phase_summary",
        "sparkline",
    ),
    "multicore": (
        "MultiCoreResult", "isolate_address_spaces", "run_mix",
        "weighted_speedup_study",
    ),
    "report": ("full_report",),
    "result": ("SimResult",),
    "simulator": ("Simulator", "simulate"),
    "sweeps": (
        "SweepResult", "parameter_sweep", "render_sweep", "swept_configs",
    ),
    "system": ("MemorySystem",),
    "timeline": ("overlap_summary", "render_timeline"),
})
