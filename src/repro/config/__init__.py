"""Configuration layer: parameter dataclasses, presets, validation."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "params": (
        "BankArchitecture", "ControllerParams", "CpuParams",
        "EnergyParams", "OrgParams", "ReliabilityParams", "SchedulerKind",
        "SimParams", "SystemConfig", "TimingCycles", "TimingParams",
        "override_nested",
    ),
    "presets": (
        "all_presets", "baseline_nvm", "fgnvm", "fgnvm_multi_issue",
        "fgnvm_per_sag_buffers", "figure4_configs", "figure5_configs",
        "many_banks", "salp", "table2_controller", "table2_timing",
        "with_reliability",
    ),
    "validate": ("validate_config", "validation_errors"),
})
