"""Tile-grid resource bookkeeping for an FgNVM bank.

A bank subdivided into ``SAGs x CDs`` has two families of shared,
time-multiplexed resources:

* one **wordline engine per SAG** — row decoder + row-address latch.
  Switching rows is exclusive, but once a wordline is up, *several CDs
  may sense that same row concurrently* (the paper: "Other columns may
  access that SAG assuming the same row is being accessed").  A write
  makes its whole SAG unavailable until it completes (Section 4,
  Backgrounded Writes).
* one set of **I/O lines per CD** — local Y-select path to the global
  sense amplifiers; strictly one operation at a time.

:class:`TileGrid` tracks free-at times and operation kinds for every SAG
and CD plus occupancy integrals for utilisation statistics.  It knows
nothing about request semantics — the FgNVM bank model layers the
classification logic on top.

The busy state lives as parallel ``until``/``kind`` lists per resource
family (struct-of-arrays) rather than per-resource occupancy objects:
the grid is interrogated every scheduling decision of every cycle, and
flat list indexing keeps that hot path free of attribute chasing.  Two
small maps beside the CD lists spare the per-issue queries a walk over
every CD, which on a fine grid (32 CDs) is most of their cost: the
CDs whose latest occupancy may still be in flight, and the release of
every CD whose latest occupancy is a write.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Occupancy kinds recorded per resource (for overlap statistics).
KIND_IDLE = ""
KIND_SENSE = "sense"
KIND_WRITE = "write"
#: Background wear-leveling row migration (device maintenance): holds
#: its tile exactly like a write but is issued by the bank itself, not
#: the controller — demand traffic competes with it for the resources.
KIND_MAINT = "maint"


class TileGrid:
    """Free/busy tracking for the SAG and CD resources of one bank."""

    def __init__(self, subarray_groups: int, column_divisions: int):
        if subarray_groups < 1 or column_divisions < 1:
            raise ValueError("grid dimensions must be >= 1")
        self.subarray_groups = subarray_groups
        self.column_divisions = column_divisions
        self._sag_until: List[int] = [0] * subarray_groups
        self._sag_kind: List[str] = [KIND_IDLE] * subarray_groups
        self._cd_until: List[int] = [0] * column_divisions
        self._cd_kind: List[str] = [KIND_IDLE] * column_divisions
        #: CD -> release of its latest occupancy, for every CD that may
        #: still be in flight; :meth:`overlap_counts` drops the released.
        self._in_flight: Dict[int, int] = {}
        #: CD -> release, for every CD whose latest occupancy is a write
        #: (released ones included: the bank's write-cap query is
        #: answered from these, exactly as from a walk over all CDs).
        self.write_releases: Dict[int, int] = {}
        #: Cycle-weighted busy integrals (for utilisation reporting).
        self.sag_busy_cycles = 0
        self.cd_busy_cycles = 0

    # -- queries ---------------------------------------------------------

    def cd_free_at(self, cd: int) -> int:
        return self._cd_until[cd]

    def cd_kind(self, cd: int) -> str:
        """Kind of the CD's *latest* occupancy (valid for any cycle
        before its ``cd_free_at`` release — exactly the window backward
        blame attribution asks about)."""
        return self._cd_kind[cd]

    def sag_free_at(self, sag: int) -> int:
        """When the SAG is fully free (required for row changes/writes)."""
        return self._sag_until[sag]

    def sag_kind(self, sag: int) -> str:
        """Kind of the SAG's latest occupancy (see :meth:`cd_kind`)."""
        return self._sag_kind[sag]

    def sag_write_free_at(self, sag: int) -> int:
        """When any in-progress *write* in the SAG completes.

        Same-row senses only have to respect writes (a write makes the
        SAG unavailable); concurrent same-row senses are fine.
        """
        if self._sag_kind[sag] == KIND_WRITE:
            return self._sag_until[sag]
        return 0

    def is_tile_free(self, tile: Tuple[int, int], now: int) -> bool:
        sag, cd = tile
        return self._sag_until[sag] <= now and self._cd_until[cd] <= now

    def overlap_counts(self, now: int) -> Tuple[int, int]:
        """(senses, writes) holding CDs at ``now`` (overlap stats).

        Every array operation holds at least one CD, so CD occupancy is
        the census of in-flight operations, counted by each CD's latest
        occupancy.  Queries must come at the clock's non-decreasing
        ``now`` (the bank asks once per issue): a CD released by ``now``
        leaves the in-flight map, so only in-flight tiles are visited,
        and an earlier ``now`` asked afterwards would miss it.
        """
        reads = writes = 0
        in_flight = self._in_flight
        for cd, until in list(in_flight.items()):
            if until > now:
                kind = self._cd_kind[cd]
                if kind == KIND_SENSE:
                    reads += 1
                elif kind == KIND_WRITE:
                    writes += 1
            else:
                del in_flight[cd]
        return reads, writes

    # -- updates ---------------------------------------------------------

    def occupy_cd(self, cd: int, start: int, duration: int, kind: str
                  ) -> int:
        """Hold one CD's I/O lines; raises if still held at ``start``.

        Double-booking is a scheduler bug, not a condition to paper over.
        """
        until = self._cd_until[cd]
        if until > start:
            raise ValueError(
                f"CD {cd} busy until {until}, occupy at {start}"
            )
        until = start + duration
        self._cd_until[cd] = until
        self._cd_kind[cd] = kind
        self._in_flight[cd] = until
        if kind == KIND_WRITE:
            self.write_releases[cd] = until
        elif cd in self.write_releases:
            del self.write_releases[cd]
        self.cd_busy_cycles += duration
        return until

    def occupy_sag_exclusive(self, sag: int, start: int, duration: int,
                             kind: str) -> int:
        """Exclusively hold a SAG (row change or write)."""
        until = self._sag_until[sag]
        if until > start:
            raise ValueError(
                f"SAG {sag} busy until {until}, occupy at {start}"
            )
        until = start + duration
        self._sag_until[sag] = until
        self._sag_kind[sag] = kind
        self.sag_busy_cycles += duration
        return until

    def extend_sag(self, sag: int, until: int, kind: str) -> None:
        """Keep a SAG's wordline held at least through ``until``.

        Used by same-row senses joining an already-open wordline; the
        SAG frees only when the longest-running operation does.
        """
        held = self._sag_until[sag]
        if until > held:
            self.sag_busy_cycles += until - max(held, 0)
            self._sag_until[sag] = until
            self._sag_kind[sag] = kind

    # -- event-skipping support ----------------------------------------------

    def next_release(self, now: int) -> Optional[int]:
        """Earliest future release cycle across all resources, if any."""
        best: Optional[int] = None
        for until in self._sag_until:
            if until > now and (best is None or until < best):
                best = until
        for until in self._cd_until:
            if until > now and (best is None or until < best):
                best = until
        return best

    def utilisation(self, elapsed_cycles: int) -> Tuple[float, float]:
        """(SAG, CD) busy fractions over ``elapsed_cycles``."""
        if elapsed_cycles <= 0:
            return (0.0, 0.0)
        return (
            self.sag_busy_cycles / (elapsed_cycles * self.subarray_groups),
            self.cd_busy_cycles / (elapsed_cycles * self.column_divisions),
        )
