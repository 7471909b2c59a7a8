"""SPEC CPU2006-like workload profiles.

The paper evaluates SPEC2006 benchmarks whose last-level-cache MPKI is at
least 10 (Section 6), running quarter-billion-instruction SimPoint
regions through gem5.  Without the proprietary suite we substitute
*statistical profiles*: for each benchmark we encode the published
memory-behaviour characteristics that the FgNVM mechanisms are sensitive
to, and generate seeded synthetic traces from them
(:mod:`repro.workloads.tracegen`).

The characteristics and why they matter here:

* **mpki** — misses per kilo-instruction; sets the instruction gap
  between memory accesses and thus how memory-bound the core is.
* **write_fraction** — share of memory traffic that is writes
  (dirty writebacks); drives the Backgrounded-Writes benefit.
* **streams** — concurrent sequential walkers (MLP / bank-level
  parallelism); drives the Multi-Activation benefit.
* **p_seq** — probability a stream's next access is the next cache
  line; sets row-buffer locality and the underfetch exposure of
  Partial-Activation.
* **footprint_mib** — working-set size roamed by random jumps.
* **gap_burstiness** — fraction of accesses arriving back-to-back
  (dependent-miss clusters), shaping latency sensitivity.

MPKI and write-intensity values follow the commonly published
characterisations of SPEC2006 memory behaviour (e.g. the SALP and
memory-scheduling literature's workload tables); they are inputs to the
generator, not measurements of this simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..errors import UnknownBenchmarkError


@dataclass(frozen=True)
class BenchmarkProfile:
    """Statistical description of one benchmark's memory behaviour."""

    name: str
    mpki: float
    write_fraction: float
    streams: int
    p_seq: float
    footprint_mib: int
    gap_burstiness: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.mpki <= 0:
            raise ValueError(f"{self.name}: mpki must be positive")
        if not 0.0 <= self.write_fraction < 1.0:
            raise ValueError(f"{self.name}: write_fraction out of range")
        if self.streams < 1:
            raise ValueError(f"{self.name}: needs at least one stream")
        if not 0.0 <= self.p_seq <= 1.0:
            raise ValueError(f"{self.name}: p_seq out of range")
        if not 0.0 <= self.gap_burstiness < 1.0:
            raise ValueError(f"{self.name}: gap_burstiness out of range")

    @property
    def mean_gap(self) -> float:
        """Average instructions between memory accesses."""
        return max(0.0, 1000.0 / self.mpki - 1.0)


def _profiles() -> List[BenchmarkProfile]:
    return [
        # Pointer chasers: high MPKI, little spatial locality, modest MLP.
        BenchmarkProfile("mcf", mpki=67.0, write_fraction=0.26,
                         streams=6, p_seq=0.18, footprint_mib=1536,
                         gap_burstiness=0.45, seed=101),
        BenchmarkProfile("omnetpp", mpki=21.0, write_fraction=0.32,
                         streams=5, p_seq=0.30, footprint_mib=160,
                         gap_burstiness=0.40, seed=102),
        BenchmarkProfile("astar", mpki=11.0, write_fraction=0.24,
                         streams=4, p_seq=0.35, footprint_mib=256,
                         gap_burstiness=0.35, seed=103),
        # Streaming kernels: long sequential runs, store-heavy.
        BenchmarkProfile("lbm", mpki=55.0, write_fraction=0.47,
                         streams=8, p_seq=0.93, footprint_mib=384,
                         gap_burstiness=0.20, seed=104),
        BenchmarkProfile("libquantum", mpki=27.0, write_fraction=0.28,
                         streams=2, p_seq=0.97, footprint_mib=64,
                         gap_burstiness=0.15, seed=105),
        BenchmarkProfile("bwaves", mpki=19.0, write_fraction=0.27,
                         streams=6, p_seq=0.90, footprint_mib=768,
                         gap_burstiness=0.20, seed=106),
        # Strided multi-array scientific codes: many streams, medium runs.
        BenchmarkProfile("milc", mpki=29.0, write_fraction=0.36,
                         streams=10, p_seq=0.72, footprint_mib=640,
                         gap_burstiness=0.25, seed=107),
        BenchmarkProfile("GemsFDTD", mpki=25.0, write_fraction=0.33,
                         streams=12, p_seq=0.80, footprint_mib=800,
                         gap_burstiness=0.25, seed=108),
        BenchmarkProfile("leslie3d", mpki=18.0, write_fraction=0.31,
                         streams=9, p_seq=0.78, footprint_mib=128,
                         gap_burstiness=0.25, seed=109),
        BenchmarkProfile("zeusmp", mpki=11.0, write_fraction=0.30,
                         streams=8, p_seq=0.75, footprint_mib=512,
                         gap_burstiness=0.25, seed=110),
        # Mixed behaviour.
        BenchmarkProfile("soplex", mpki=27.0, write_fraction=0.21,
                         streams=7, p_seq=0.55, footprint_mib=256,
                         gap_burstiness=0.35, seed=111),
        BenchmarkProfile("sphinx3", mpki=13.0, write_fraction=0.12,
                         streams=5, p_seq=0.60, footprint_mib=96,
                         gap_burstiness=0.30, seed=112),
    ]


#: The evaluated suite: every profile has MPKI >= 10, mirroring the
#: paper's selection rule over SPEC2006.
PROFILES: Dict[str, BenchmarkProfile] = {
    profile.name: profile for profile in _profiles()
}


def benchmark_names() -> List[str]:
    """Benchmarks in the canonical (figure) order."""
    return list(PROFILES)


def get_profile(name: str) -> BenchmarkProfile:
    """Look up a profile; unknown names raise :class:`UnknownBenchmarkError`
    listing the known ones."""
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(PROFILES)
        raise UnknownBenchmarkError(
            f"unknown benchmark {name!r}; known: {known}"
        ) from None
