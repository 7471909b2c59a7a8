"""The record one simulation produces.

A leaf module: it imports only the config, the statistics and the
energy model, so code that only *reads* results (the figure runners,
the result cache unpickling a blob) never loads the simulator, the
controller or the CPU model.  Result blobs pickle this class by its
module path, ``repro.sim.result.SimResult``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.params import SystemConfig
from ..core.energy import EnergyBreakdown
from ..memsys.stats import StatsCollector


@dataclass
class SimResult:
    """Everything one simulation produced."""

    config: SystemConfig
    stats: StatsCollector
    energy: EnergyBreakdown
    perfect_energy: EnergyBreakdown
    ipc: float
    cycles: int
    instructions: int
    #: Per-epoch counter deltas when sim.epoch_cycles is set
    #: (:class:`repro.sim.epochs.EpochSample`).
    epochs: "list[EpochSample] | None" = None

    def summary(self) -> dict:
        """Flat dict for reports (EXPERIMENTS.md rows)."""
        data = {
            "config": self.config.name,
            "ipc": round(self.ipc, 4),
        }
        data.update(self.stats.as_dict())
        data.update(
            {f"energy_{k}": v for k, v in self.energy.as_dict().items()}
        )
        return data
