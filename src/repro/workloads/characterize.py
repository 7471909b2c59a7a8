"""Trace characterisation: measure the statistics the profiles target.

DESIGN.md's substitution argument is that the synthetic traces preserve
the workload statistics the FgNVM mechanisms are sensitive to.  This
module measures those statistics *from a trace* — independently of the
generator — so the claim is checkable:

* MPKI and read/write mix,
* row locality (probability the next access to a bank touches the same
  row — the row-buffer-hit ceiling),
* footprint (distinct cache lines touched),
* bank-, SAG- and CD-level spread (normalised entropy of the access
  distribution over each resource — how much parallelism the address
  stream offers each subdivision axis),
* gap burstiness (fraction of back-to-back accesses).

Used by tests to pin generator fidelity and by the characterisation
bench to print a per-benchmark table next to the profile targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..config.params import OrgParams
from ..memsys.address import AddressMapper
from .packed import PackedTrace, read_fraction, trace_mpki


@dataclass(frozen=True)
class TraceCharacter:
    """Measured properties of one trace against one organisation."""

    accesses: int
    mpki: float
    write_fraction: float
    row_locality: float
    footprint_lines: int
    bank_spread: float
    sag_spread: float
    cd_spread: float
    burstiness: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "accesses": self.accesses,
            "mpki": round(self.mpki, 2),
            "write_fraction": round(self.write_fraction, 3),
            "row_locality": round(self.row_locality, 3),
            "footprint_lines": self.footprint_lines,
            "bank_spread": round(self.bank_spread, 3),
            "sag_spread": round(self.sag_spread, 3),
            "cd_spread": round(self.cd_spread, 3),
            "burstiness": round(self.burstiness, 3),
        }


def _normalised_entropy(counts: Sequence[int]) -> float:
    """Shannon entropy of a histogram, scaled to [0, 1].

    1.0 means perfectly uniform use of the resource (maximum offered
    parallelism); 0.0 means everything hit one bin.
    """
    total = sum(counts)
    live = [c for c in counts if c > 0]
    if total == 0 or len(live) <= 1:
        return 0.0
    entropy = -sum((c / total) * math.log2(c / total) for c in live)
    return entropy / math.log2(len(counts))


def characterize(
    trace: PackedTrace,
    org: Optional[OrgParams] = None,
) -> TraceCharacter:
    """Measure a trace's statistics against ``org`` (default preset)."""
    org = org or OrgParams()
    mapper = AddressMapper(org)
    per_bank_last_row: Dict[int, int] = {}
    bank_counts = [0] * mapper.independent_banks()
    sag_counts = [0] * org.subarray_groups
    cd_counts = [0] * org.column_divisions
    same_row = row_samples = 0
    bursts = 0
    lines = set()

    for gap, _op, address in trace.rows():
        dec = mapper.decode(address)
        lines.add(address // org.cacheline_bytes)
        bank_counts[dec.flat_bank % len(bank_counts)] += 1
        sag_counts[dec.sag] += 1
        cd_counts[dec.cd % org.column_divisions] += 1
        last = per_bank_last_row.get(dec.flat_bank)
        if last is not None:
            row_samples += 1
            if last == dec.row:
                same_row += 1
        per_bank_last_row[dec.flat_bank] = dec.row
        if gap <= 1:
            bursts += 1

    count = len(trace)
    return TraceCharacter(
        accesses=count,
        mpki=trace_mpki(trace),
        write_fraction=1.0 - read_fraction(trace),
        row_locality=(same_row / row_samples) if row_samples else 0.0,
        footprint_lines=len(lines),
        bank_spread=_normalised_entropy(bank_counts),
        sag_spread=_normalised_entropy(sag_counts),
        cd_spread=_normalised_entropy(cd_counts),
        burstiness=(bursts / count) if count else 0.0,
    )


def fidelity_report(
    measured: TraceCharacter,
    target_mpki: float,
    target_write_fraction: float,
    mpki_tolerance: float = 0.10,
    write_tolerance: float = 0.05,
) -> List[str]:
    """Deviations of a generated trace from its profile targets."""
    problems = []
    if target_mpki > 0:
        relative = abs(measured.mpki - target_mpki) / target_mpki
        if relative > mpki_tolerance:
            problems.append(
                f"mpki {measured.mpki:.1f} vs target {target_mpki:.1f} "
                f"({relative:.0%} off)"
            )
    if abs(measured.write_fraction - target_write_fraction) > write_tolerance:
        problems.append(
            f"write fraction {measured.write_fraction:.3f} vs target "
            f"{target_write_fraction:.3f}"
        )
    return problems
