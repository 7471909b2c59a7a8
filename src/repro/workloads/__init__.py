"""Workloads: SPEC2006-like profiles, synthetic kernels, trace I/O."""

# ``characterize`` names both a submodule and a function.  Importing it
# eagerly binds the function over the submodule, which a later
# ``import repro.workloads.characterize`` would otherwise leave bound.
from .characterize import TraceCharacter, characterize, fidelity_report

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "characterize": ("TraceCharacter", "characterize", "fidelity_report"),
    "packed": (
        "OP_READ", "OP_WRITE", "PACKED_FORMAT_VERSION", "PackedTrace",
        "TraceCache", "read_fraction", "total_instructions", "trace_key",
        "trace_mpki",
    ),
    "record": ("TraceRecord",),
    "spec_profiles": (
        "PROFILES", "BenchmarkProfile", "benchmark_names", "get_profile",
    ),
    "synthetic": (
        "copy_kernel", "multi_stream_kernel", "pointer_chase_kernel",
        "random_kernel", "stream_kernel", "strided_kernel",
    ),
    "trace_io": (
        "read_nvmain_trace", "read_trace", "trace_to_string",
        "write_nvmain_trace", "write_trace",
    ),
    "tracegen": (
        "ProfileTraceGenerator", "generate_packed_trace", "generate_trace",
    ),
    "transform": (
        "concat_traces", "interleave_traces", "offset_trace", "scale_gaps",
        "slice_trace",
    ),
})
