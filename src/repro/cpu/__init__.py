"""CPU substrate: ROB-limited trace-replay core and LLC filter model."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "llc": ("AccessResult", "LastLevelCache", "LlcStats"),
    "rob": ("ReorderBuffer",),
    "trace_cpu": ("TraceCpu",),
})
