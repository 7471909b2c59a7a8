"""Multi-core simulation: several replay cores sharing one memory system.

An extension beyond the paper's single-threaded SPEC2006 evaluation:
:func:`run_mix` hands N traces to one
:class:`~repro.sim.simulator.Simulator`, which runs one
:class:`~repro.cpu.trace_cpu.TraceCpu` per trace against a single
:class:`~repro.sim.system.MemorySystem` on the same clock loop as a
single-core run.  The cores contend for queues, buses and bank tiles —
the regime where tile-level parallelism should matter most, since a
multi-programmed mix supplies far more memory-level parallelism than
one ROB can.

The conventional multi-programmed metric is reported:
**weighted speedup** = sum over cores of IPC_shared / IPC_alone, with
the solo runs executed on the same memory architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..config.params import SystemConfig
from ..core.energy import EnergyBreakdown
from ..memsys.stats import StatsCollector
from ..workloads.packed import PackedTrace
from ..workloads.transform import offset_trace
from .simulator import Simulator, simulate


@dataclass
class MultiCoreResult:
    """Outcome of one multi-programmed run."""

    config: SystemConfig
    cycles: int
    per_core_instructions: List[int]
    per_core_ipc: List[float]
    stats: StatsCollector
    energy: EnergyBreakdown
    labels: List[str] = field(default_factory=list)

    @property
    def throughput_ipc(self) -> float:
        """Aggregate instructions per CPU cycle across all cores."""
        return sum(self.per_core_ipc)

    def weighted_speedup(self, solo_ipc: Sequence[float]) -> float:
        """Sum of per-core shared/alone IPC ratios."""
        if len(solo_ipc) != len(self.per_core_ipc):
            raise ValueError("solo IPC list must match core count")
        if any(ipc <= 0 for ipc in solo_ipc):
            raise ValueError("solo IPCs must be positive")
        return sum(
            shared / alone
            for shared, alone in zip(self.per_core_ipc, solo_ipc)
        )

    def summary(self) -> Dict[str, object]:
        labels = self.labels or [
            f"core{i}" for i in range(len(self.per_core_ipc))
        ]
        data: Dict[str, object] = {
            "config": self.config.name,
            "cycles": self.cycles,
            "throughput_ipc": round(self.throughput_ipc, 4),
        }
        for label, ipc in zip(labels, self.per_core_ipc):
            data[f"ipc[{label}]"] = round(ipc, 4)
        return data


def run_mix(
    config: SystemConfig,
    traces: Sequence[PackedTrace],
    labels: "Sequence[str] | None" = None,
) -> MultiCoreResult:
    """Run one core per trace against one memory system."""
    labels = list(labels) if labels else [
        f"core{i}" for i in range(len(traces))
    ]
    if len(labels) != len(traces):
        raise ValueError("labels must match trace count")
    sim = Simulator(config, *traces)
    result = sim.run()
    ratio = config.cpu.cpu_cycles_per_mem_cycle(config.timing.tck_ns)
    return MultiCoreResult(
        config=config,
        cycles=result.cycles,
        per_core_instructions=[
            cpu.instructions_retired for cpu in sim.cpus
        ],
        per_core_ipc=[
            cpu.instructions_retired / (result.cycles * ratio)
            for cpu in sim.cpus
        ],
        stats=result.stats,
        energy=result.energy,
        labels=labels,
    )


#: Default inter-program address stride: 32 MiB plus one row span.
#: Deliberately *not* a multiple of any power-of-two capacity — a
#: multiple would wrap back onto identical lines and remove nothing.
#: The row-span term also decorrelates the programs' row/SAG phase.
DEFAULT_REGION_BYTES = (1 << 25) + (1 << 13)


def isolate_address_spaces(
    traces: Sequence[PackedTrace],
    region_bytes: int = DEFAULT_REGION_BYTES,
) -> "list[PackedTrace]":
    """Relocate each trace into its own address region.

    Distinct programs should not alias physical lines: shared addresses
    couple the cores through store-to-load forwarding and row buffers.
    With footprints larger than the simulated capacity some wrap-around
    overlap is unavoidable, but a capacity-coprime stride decorrelates
    the streams; bank/tile contention stays, systematic false sharing
    goes.
    """
    return [
        offset_trace(trace, index * region_bytes)
        for index, trace in enumerate(traces)
    ]


def weighted_speedup_study(
    config: SystemConfig,
    traces: Sequence[PackedTrace],
    labels: "Sequence[str] | None" = None,
    isolate: bool = True,
) -> Dict[str, float]:
    """Shared run plus the solo baselines it is normalised against.

    Returns weighted speedup, aggregate throughput and per-core
    shared/alone ratios — all on the *same* memory configuration, so
    the number isolates inter-core interference.  ``isolate`` (default)
    relocates each program into a private address region first.
    """
    if isolate:
        traces = isolate_address_spaces(traces)
    shared = run_mix(config, traces, labels)
    solo_ipc = [
        simulate(config, trace).ipc for trace in traces
    ]
    ratios = [
        shared_ipc / alone
        for shared_ipc, alone in zip(shared.per_core_ipc, solo_ipc)
    ]
    result = {
        "weighted_speedup": shared.weighted_speedup(solo_ipc),
        "throughput_ipc": shared.throughput_ipc,
    }
    names = shared.labels
    for name, ratio in zip(names, ratios):
        result[f"ratio[{name}]"] = ratio
    return result
