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
flat list indexing keeps that hot path free of attribute chasing.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

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

    def overlap_counts(self, now: int, exclude_cds: tuple = ()
                       ) -> Tuple[int, int]:
        """(senses, writes) currently holding CDs (overlap stats).

        Every array operation holds at least one CD, so CD occupancy is
        the census of in-flight operations; ``exclude_cds`` removes the
        caller's own columns from the count.
        """
        reads = writes = 0
        for cd, until in enumerate(self._cd_until):
            if until > now and cd not in exclude_cds:
                kind = self._cd_kind[cd]
                if kind == KIND_SENSE:
                    reads += 1
                elif kind == KIND_WRITE:
                    writes += 1
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
