"""Profile-driven trace generation.

Turns a :class:`~repro.workloads.spec_profiles.BenchmarkProfile` into a
deterministic, seeded LLC-miss trace.  The generator maintains
``profile.streams`` sequential walkers over the benchmark footprint:

* each access picks a walker uniformly (interleaved misses from several
  live data structures — the source of memory-level parallelism),
* with probability ``p_seq`` the walker advances one cache line
  (spatial locality / row-buffer hits), otherwise it jumps to a random
  line in the footprint,
* the access is a write with probability ``write_fraction``,
* the instruction gap is geometric around the profile's mean, except
  that with probability ``gap_burstiness`` the access belongs to a
  dependent-miss burst and arrives with a gap of zero or one.

Traces are reproducible: the same profile and length always produce the
same stream (``random.Random(profile.seed)``).
"""

from __future__ import annotations

import random
from typing import List

from .packed import OP_READ, OP_WRITE, PackedTrace
from .spec_profiles import BenchmarkProfile

#: Cache-line granularity of generated addresses.
LINE_BYTES = 64


class ProfileTraceGenerator:
    """Seeded generator for one benchmark profile."""

    def __init__(self, profile: BenchmarkProfile, line_bytes: int = LINE_BYTES):
        self.profile = profile
        self.line_bytes = line_bytes
        self._rng = random.Random(profile.seed)
        footprint_lines = max(
            profile.streams * 4,
            profile.footprint_mib * 1024 * 1024 // line_bytes,
        )
        self._footprint_lines = footprint_lines
        # Start walkers spread across the footprint so they land in
        # different banks/SAGs from the first access.
        self._walkers: List[int] = [
            self._rng.randrange(footprint_lines)
            for _ in range(profile.streams)
        ]

    def _next_gap(self) -> int:
        profile = self.profile
        if self._rng.random() < profile.gap_burstiness:
            return self._rng.choice((0, 1))
        # Compensate the non-burst draws so the *overall* mean gap hits
        # the profile's MPKI target despite the near-zero burst gaps:
        # E[gap] = b * 0.5 + (1 - b) * mean_nonburst == mean_gap.
        b = profile.gap_burstiness
        mean = (profile.mean_gap - 0.5 * b) / (1.0 - b)
        if mean <= 0:
            return 0
        # Geometric with the compensated mean, shifted to allow gap 0.
        p = 1.0 / (mean + 1.0)
        gap = 0
        while self._rng.random() >= p:
            gap += 1
            if gap > 100_000:  # numerically impossible mean guard
                break
        return gap

    def _next_line(self) -> int:
        profile = self.profile
        index = self._rng.randrange(profile.streams)
        if self._rng.random() < profile.p_seq:
            self._walkers[index] = (
                (self._walkers[index] + 1) % self._footprint_lines
            )
        else:
            self._walkers[index] = self._rng.randrange(self._footprint_lines)
        return self._walkers[index]

    def packed(self, count: int) -> PackedTrace:
        """Generate ``count`` accesses straight into packed columns.

        The RNG draw order per access (op draw, then line draws, then
        gap draws) is the bit-identity contract every cached, shared or
        regenerated copy of a trace relies on.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        trace = PackedTrace()
        append = trace.append
        write_fraction = self.profile.write_fraction
        rng_random = self._rng.random
        line_bytes = self.line_bytes
        next_line = self._next_line
        next_gap = self._next_gap
        for _ in range(count):
            op_code = (
                OP_WRITE if rng_random() < write_fraction else OP_READ
            )
            address = next_line() * line_bytes
            append(next_gap(), op_code, address)
        return trace


def generate_packed_trace(
    profile: BenchmarkProfile, count: int, line_bytes: int = LINE_BYTES
) -> PackedTrace:
    """A full packed trace for ``profile`` (deterministic)."""
    return ProfileTraceGenerator(profile, line_bytes).packed(count)


# One function, two names: the end-to-end benchmark calls
# ``repro.workloads.generate_trace`` and wraps
# ``repro.sim.parallel.generate_packed_trace`` by name, so both stay.
generate_trace = generate_packed_trace
