"""The paper's contribution: FgNVM bank, access modes, energy and area."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "access_modes": (
        "TileCoord", "accessible_fraction_during_write",
        "available_tiles_during", "classify_read", "max_parallel_accesses",
        "multi_activation_legal", "partial_activation_sensed_bytes",
        "tiles_conflict",
    ),
    "area": ("AreaModel", "AreaReport", "table1_reports"),
    "energy": (
        "EnergyBreakdown", "EnergyModel", "measure_energy",
        "measure_perfect_energy",
    ),
    "fgnvm_bank": ("FgNvmBank", "IssueResult", "make_fgnvm_bank"),
    "sense_scaling": (
        "is_sublinear", "sense_time_ns", "tcas_for_tile_heights",
    ),
    "tile": ("TileGrid",),
})
