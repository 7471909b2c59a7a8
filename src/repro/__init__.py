"""FgNVM: fine-granularity tile-level parallelism in NVM (DAC 2016).

A from-scratch reproduction of Poremba, Zhang & Xie, *"Fine-Granularity
Tile-Level Parallelism in Non-volatile Memory Architecture with
Two-Dimensional Bank Subdivision"*, DAC 2016.

Quick start::

    from repro import config, sim

    baseline = config.baseline_nvm()
    fg = config.fgnvm(8, 2)
    base = sim.run_benchmark(baseline, "mcf", requests=5000)
    fast = sim.run_benchmark(fg, "mcf", requests=5000)
    print("speedup:", fast.ipc / base.ipc)

Package map:

* :mod:`repro.config` — parameters, Table-2 presets, validation,
* :mod:`repro.memsys` — the NVMain-like substrate (requests, banks,
  buses, FRFCFS controller),
* :mod:`repro.core` — the paper's contribution (FgNVM bank, access
  modes, energy and area models),
* :mod:`repro.cpu` — ROB-limited trace-replay CPU (the gem5 stand-in),
* :mod:`repro.workloads` — SPEC2006-like profiles and synthetic kernels,
* :mod:`repro.sim` — simulation loop, experiment runner, reporting,
* :mod:`repro.obs` — structured instrumentation: event bus, metric
  registry, trace exporters, run manifests,
* :mod:`repro.resilience` — fault-tolerant engine: supervision,
  checkpoint/resume, deterministic chaos injection,
* :mod:`repro.analysis` — regenerators for every paper table and figure.

Every package imports its submodules on first use (:mod:`repro._lazy`),
so ``import repro`` loads almost nothing and a command pays only for
what it touches.
"""

from ._lazy import attach

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "errors": (
            "AddressError", "ConfigError", "FatalJobError",
            "JobTimeoutError", "ProtocolError", "QueueFullError",
            "ReproError", "SchedulerError", "SimulationError",
            "TraceFormatError", "TransientJobError", "WorkerCrashError",
        ),
    },
    submodules=(
        "analysis", "config", "core", "cpu", "memsys", "obs",
        "resilience", "sim", "units", "workloads",
    ),
)
__all__.append("__version__")
