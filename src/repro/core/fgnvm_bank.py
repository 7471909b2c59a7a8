"""The FgNVM bank model: a 2-D subdivided NVM bank (paper Section 3.2).

State held per bank:

* ``open_row[sag]`` — the row whose wordline each subarray group's local
  decoder + row latch currently holds (SALP-style per-SAG row latches),
  along with when that wordline became stable (``row_ready[sag]``),
* ``buffer_tag[cd]`` — which (sag, row) pair's data each column
  division's slice of the global row buffer currently latches,
* a :class:`~repro.core.tile.TileGrid` tracking when each SAG wordline
  engine and each CD's I/O lines free up.

The three access modes fall out of the resource rules:

* **Partial-Activation** — a sense occupies exactly one (SAG, CD) and
  latches only that CD slice (``sense_bits`` = row/CDs).
* **Multi-Activation** — senses overlap when their CDs differ and
  either their SAGs differ or they target the *same open row* of one
  SAG (one wordline can feed several CDs).  The paper's constraints —
  no two concurrent senses in one CD, no two *rows* live in one SAG —
  are enforced by the CD occupancy and the exclusive SAG row-change
  rule respectively.
* **Backgrounded Writes** — a write occupies its (SAG, CD) for the full
  write pulse and makes its SAG unavailable; reads elsewhere in the
  bank proceed underneath it.

The **baseline** NVM bank of Section 3.1 is exactly the 1x1 instance:
one SAG means one open row per bank, one CD means the whole row is
sensed at first touch and a write blocks everything — see
:class:`repro.memsys.bank_baseline.BaselineNvmBank`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..config.params import TimingCycles
from ..errors import ProtocolError
from ..memsys.request import (
    SERVICE_ROW_HIT,
    SERVICE_ROW_MISS,
    SERVICE_UNDERFETCH,
    SERVICE_WRITE,
    SERVICE_WRITE_MISS,
    MemRequest,
    OpType,
)
from ..memsys.stats import StatsCollector
from ..obs.events import (
    EV_ISSUE,
    EV_MAINT,
    EV_SENSE,
    EV_TILE_RETIRED,
    EV_WRITE_PULSE,
    EV_WRITE_RETRY,
    NULL_PROBE,
    Event,
    Probe,
)
from ..obs.trace import BLAME_MAINT, BLAME_MULTI_ACT, BLAME_RUW, BLAME_TILE
from ..units import BITS_PER_BYTE
from .tile import KIND_MAINT, KIND_SENSE, KIND_WRITE, TileGrid

#: Module-level alias: class attribute access on an Enum is slow.
_OP_WRITE = OpType.WRITE


@dataclass(frozen=True)
class IssueResult:
    """Outcome of issuing one request to a bank.

    ``bus_desired_start`` is when the data transfer would like the data
    bus (the controller may push it later under contention) and
    ``data_ready`` is the completion cycle *before* bus arbitration.
    ``retry_cycles`` is how many of the occupancy's cycles were spent
    re-pulsing a write whose verify failed (0 for reads and for
    first-pulse-clean writes) — the tracer attributes them to the
    ``write_retry`` blame cause.
    """

    kind: str
    bus_desired_start: int
    data_ready: int
    occupies_until: int
    retry_cycles: int = 0


class FgNvmBank:
    """Timing/state model of one FgNVM bank."""

    def __init__(
        self,
        bank_id: int,
        subarray_groups: int,
        column_divisions: int,
        timing: TimingCycles,
        sense_bits: int,
        write_bits: int,
        stats: StatsCollector,
        cd_span: int = 1,
        sense_on_write_activate: bool = False,
        per_sag_buffers: bool = False,
        close_page: bool = False,
        reliability: "object | None" = None,
    ):
        self.bank_id = bank_id
        self.subarray_groups = subarray_groups
        self.column_divisions = column_divisions
        #: Column divisions one cache line spans (>1 when the grid is
        #: finer than a cache line, e.g. 32 CDs over a 16-line row).
        self.cd_span = cd_span
        self.timing = timing
        #: Bits latched by one sense: one CD slice of one row.
        self.sense_bits = sense_bits
        #: Bits driven by one cache-line write (64 write drivers x bursts).
        self.write_bits = write_bits
        #: Every activation senses whatever the CSLs select before the
        #: write drivers take over: the whole row on a baseline-protocol
        #: bank (``sense_on_write_activate``), just the written line's CD
        #: slice(s) on FgNVM (Partial-Activation applies to writes too).
        self.sense_on_write_activate = sense_on_write_activate
        self.stats = stats
        #: MASA-style extension: every SAG keeps its own latched slice
        #: per CD instead of sharing one global row buffer.
        self.per_sag_buffers = per_sag_buffers
        self.grid = TileGrid(subarray_groups, column_divisions)
        self.open_row: List[Optional[int]] = [None] * subarray_groups
        #: Cycle each SAG's current wordline became usable by other CDs.
        self.row_ready: List[int] = [0] * subarray_groups
        self.buffer_tag: List[Optional[Tuple[int, int]]] = (
            [None] * column_divisions
        )
        self._sag_buffer: List[List[Optional[int]]] = [
            [None] * column_divisions for _ in range(subarray_groups)
        ]
        #: Structured event bus (no-op unless a sink is attached) and the
        #: channel its events name; the owning controller sets both.
        self.probe: Probe = NULL_PROBE
        self.channel = 0
        #: Close-page policy: drop the wordline and invalidate the
        #: touched buffer slices after every access.
        self.close_page = close_page
        #: Device fault model (:class:`repro.memsys.reliability
        #: .BankReliability`) or None when disabled.  Guarded with
        #: ``if self.reliability is not None`` on the hot path — the
        #: one-branch guard the probe and its tracer use — so
        #: reliability-off runs execute the identical instruction stream.
        self.reliability = reliability
        #: Last cycle a column command was accepted (tCCD spacing).
        self._last_column = -(10**9)
        #: Scheduling memo: (is_write, row, sag, cd) -> (kind, constraint).
        #: Together with the owning controller's per-bank queue index this
        #: is the row-hit lookup keyed on (flat_bank, row): every request
        #: targeting the same tile coordinates shares one cached
        #: classification and earliest-start constraint.  Plain-int keys
        #: hold :meth:`write_cap_free_at` answers per cap.  Every value
        #: depends only on bank state, and all bank state mutates inside
        #: :meth:`issue` — which drops the memo — so entries can never go
        #: stale.
        self._sched_cache: dict = {}

    # -- row-buffer tags -----------------------------------------------------

    def _buffered(self, sag: int, cd: int, row: int) -> bool:
        """Is (sag, row)'s slice for this CD latched and readable?"""
        if self.per_sag_buffers:
            return self._sag_buffer[sag][cd] == row
        return self.buffer_tag[cd] == (sag, row)

    def _latch(self, sag: int, cd: int, row: int) -> None:
        if self.per_sag_buffers:
            self._sag_buffer[sag][cd] = row
        self.buffer_tag[cd] = (sag, row)

    # -- classification ----------------------------------------------------

    def classify(self, req: MemRequest) -> str:
        """Service kind this request would get if issued now."""
        dec = req.decoded
        sag, cds = self._coords(dec)
        if req.is_write:
            if self.open_row[sag] == dec.row:
                return SERVICE_WRITE
            return SERVICE_WRITE_MISS
        if all(self._buffered(sag, c, dec.row) for c in cds):
            return SERVICE_ROW_HIT
        if self.open_row[sag] == dec.row:
            return SERVICE_UNDERFETCH
        return SERVICE_ROW_MISS

    def is_row_hit(self, req: MemRequest) -> bool:
        """FRFCFS "first-ready" test: can this request skip sensing?"""
        kind = self.classify(req)
        return kind in (SERVICE_ROW_HIT, SERVICE_WRITE)

    # -- scheduling queries --------------------------------------------------

    def earliest_start(self, req: MemRequest, now: int) -> int:
        """Earliest cycle this request's first command could issue.

        Constraint sets per service kind (plus the tCCD column gate for
        every kind):

        * buffered hit — CD I/O free (data comes from the row buffer,
          but the paper prohibits touching a CD that is being driven),
        * same-row sense ("underfetch") — CD free, no write in the SAG,
          and the wordline stable (``row_ready``),
        * row change (miss) and writes — CD free and SAG exclusively
          free: one wordline per SAG, and a write parks the whole SAG.

        Every constraint above is a property of bank state alone, so
        ``earliest_start(req, now) == max(now, constraint)`` for every
        ``now`` — the incremental scheduler relies on this through
        :meth:`kind_and_constraint`.
        """
        constraint = self._constraint(req, self.classify(req))
        return constraint if constraint > now else now

    def _constraint(self, req: MemRequest, kind: str) -> int:
        """Now-independent earliest-start bound for ``req``."""
        sag, cds = self._coords(req.decoded)
        start = self._last_column + self.timing.tccd
        for cd in cds:
            cd_free = self.grid.cd_free_at(cd)
            if cd_free > start:
                start = cd_free
        if kind == SERVICE_ROW_HIT:
            return start
        if kind == SERVICE_UNDERFETCH:
            write_free = self.grid.sag_write_free_at(sag)
            if write_free > start:
                start = write_free
            if self.row_ready[sag] > start:
                start = self.row_ready[sag]
            return start
        sag_free = self.grid.sag_free_at(sag)
        if sag_free > start:
            start = sag_free
        return start

    def stall_blame(self, req: MemRequest) -> Tuple[str, int, str]:
        """(service kind, earliest-start constraint, blame cause).

        Re-walks :meth:`_constraint` but remembers *which* resource set
        the binding bound, mapping it onto the blame taxonomy of
        :mod:`repro.obs.trace`:

        * a CD held by a write (reads only) or a SAG parked by a write
          pulse → ``read_under_write``,
        * a CD serialized behind another in-flight sense →
          ``multi_activation``,
        * a CD or SAG held by a background wear-leveling migration →
          ``maintenance``,
        * everything else (tCCD column gate, exclusive SAG row change,
          wordline still settling) → ``tile_busy``.

        Resource kinds persist after their release cycle, which is
        exactly right here: blame attribution is backward, asking what
        held the request during an interval that has already passed.
        Only called for sampled requests, so it is kept simple rather
        than memoized.
        """
        kind = self.classify(req)
        sag, cds = self._coords(req.decoded)
        start = self._last_column + self.timing.tccd
        cause = BLAME_TILE
        for cd in cds:
            cd_free = self.grid.cd_free_at(cd)
            if cd_free > start:
                start = cd_free
                cd_kind = self.grid.cd_kind(cd)
                if cd_kind == KIND_WRITE and req.is_read:
                    cause = BLAME_RUW
                elif cd_kind == KIND_SENSE:
                    cause = BLAME_MULTI_ACT
                elif cd_kind == KIND_MAINT:
                    cause = BLAME_MAINT
                else:
                    cause = BLAME_TILE
        if kind == SERVICE_ROW_HIT:
            return kind, start, cause
        if kind == SERVICE_UNDERFETCH:
            write_free = self.grid.sag_write_free_at(sag)
            if write_free > start:
                start = write_free
                cause = BLAME_RUW
            if self.row_ready[sag] > start:
                start = self.row_ready[sag]
                cause = BLAME_TILE
            return kind, start, cause
        sag_free = self.grid.sag_free_at(sag)
        if sag_free > start:
            start = sag_free
            sag_kind = self.grid.sag_kind(sag)
            if sag_kind == KIND_WRITE and req.is_read:
                cause = BLAME_RUW
            elif sag_kind == KIND_MAINT:
                cause = BLAME_MAINT
            else:
                cause = BLAME_TILE
        return kind, start, cause

    def kind_and_constraint(self, req: MemRequest) -> Tuple[str, int]:
        """Memoized (service kind, earliest-start constraint) for ``req``.

        The fast-path query behind every fast scheduling policy's
        single-pass scan (:class:`~repro.memsys.scheduler.MinScanPolicy`)
        and the controller's event horizon: ``classify`` and the scheduling
        constraint are pure functions of bank state, which only mutates
        inside :meth:`issue` (where the memo is dropped), so repeated
        queue scans between issues collapse to one dict lookup per
        distinct (op, row, sag, cd) target.  The uncached
        :meth:`classify`/:meth:`earliest_start` pair is kept pristine as
        the reference oracle the differential tests compare against.
        """
        dec = req.decoded
        # Keyed on a bool, not the OpType member: Enum hashing runs in
        # Python and this is the hottest lookup in the simulator.
        key = (req.op is _OP_WRITE, dec.row, dec.sag, dec.cd)
        cached = self._sched_cache.get(key)
        if cached is not None:
            return cached
        kind = self.classify(req)
        entry = (kind, self._constraint(req, kind))
        self._sched_cache[key] = entry
        return entry

    # -- issue ---------------------------------------------------------------

    def issue(self, req: MemRequest, now: int) -> IssueResult:
        """Commit the request at cycle ``now`` and advance bank state.

        Raises :class:`ProtocolError` if the request is not actually
        issuable at ``now`` — the controller must respect
        :meth:`earliest_start`.
        """
        result = self._issue(req, now)
        if self.close_page:
            sag, cds = self._coords(req.decoded)
            self.open_row[sag] = None
            for cd in cds:
                self.buffer_tag[cd] = None
                if self.per_sag_buffers:
                    self._sag_buffer[sag][cd] = None
        # Issuing is the only place bank state changes; the scheduling
        # memo is rebuilt lazily on the next query.
        if self._sched_cache:
            self._sched_cache.clear()
        return result

    def _issue(self, req: MemRequest, now: int) -> IssueResult:
        earliest = self.earliest_start(req, now)
        if earliest > now:
            raise ProtocolError(
                f"bank {self.bank_id}: request {req.req_id} issued at {now} "
                f"but earliest start is {earliest}"
            )
        dec = req.decoded
        sag, cds = self._coords(dec)
        kind = self.classify(req)
        t = self.timing
        self._last_column = now

        overlapping = self.grid.active_cd_kinds(now, exclude_cds=cds)
        overlapping_reads = sum(1 for k in overlapping if k == KIND_SENSE)
        overlapping_writes = sum(1 for k in overlapping if k == KIND_WRITE)

        if kind == SERVICE_ROW_HIT:
            self.stats.count_read_issue(kind)
            if overlapping_writes:
                self.stats.count_read_under_write()
            bus_start = now + t.tcas_hit
            ready = bus_start + t.tburst
            self._note(req, kind, now, ready, sag, cds,
                       overlapping_reads, overlapping_writes)
            return IssueResult(kind, bus_start, ready, now)

        if kind == SERVICE_UNDERFETCH:
            until = now + t.tcas
            for cd in cds:
                self.grid.occupy_cd(cd, now, t.tcas, KIND_SENSE)
                self._latch(sag, cd, dec.row)
            self.grid.extend_sag(sag, until, KIND_SENSE)
            self._note(req, kind, now, until, sag, cds,
                       overlapping_reads, overlapping_writes)
            self.stats.count_read_issue(kind)
            self.stats.count_sense(
                self.sense_bits * len(cds),
                overlapping_reads,
                overlapping_writes,
            )
            self._note_sense(req, kind, now, until, sag, cds[0],
                             self.sense_bits * len(cds),
                             overlapping_reads, overlapping_writes)
            bus_start = now + t.tcas
            return IssueResult(kind, bus_start, bus_start + t.tburst, until)

        if kind == SERVICE_ROW_MISS:
            duration = t.trcd + t.tcas
            until = now + duration
            for cd in cds:
                self.grid.occupy_cd(cd, now, duration, KIND_SENSE)
                self._latch(sag, cd, dec.row)
            self.grid.occupy_sag_exclusive(sag, now, duration, KIND_SENSE)
            self._note(req, kind, now, until, sag, cds,
                       overlapping_reads, overlapping_writes)
            self.open_row[sag] = dec.row
            self.row_ready[sag] = now + t.trcd
            self.stats.count_read_issue(kind)
            self.stats.count_sense(
                self.sense_bits * len(cds),
                overlapping_reads,
                overlapping_writes,
            )
            self._note_sense(req, kind, now, until, sag, cds[0],
                             self.sense_bits * len(cds),
                             overlapping_reads, overlapping_writes)
            bus_start = now + duration
            return IssueResult(kind, bus_start, bus_start + t.tburst, until)

        # Writes: SERVICE_WRITE (wordline already up) or SERVICE_WRITE_MISS.
        rel = self.reliability
        retries = 0
        retry_cycles = 0
        exhausted = False
        if rel is not None:
            # Verify-and-retry: each failed verify re-pulses the cells,
            # extending the tile occupancy by a pulse + recovery (the
            # data is already at the drivers, so no extra tCWD).
            retries, exhausted = rel.draw_retries(sag, cds[0])
            if retries:
                retry_cycles = retries * (t.twp + t.twr)
                self.stats.count_write_retry(retries, exhausted)
        activation = t.trcd if kind == SERVICE_WRITE_MISS else 0
        duration = activation + t.write_occupancy + retry_cycles
        until = now + duration
        for cd in cds:
            self.grid.occupy_cd(cd, now, duration, KIND_WRITE)
            # Write data passes through the S/A block on its way to the
            # cells, so the written line's slice ends up latched
            # (write-allocate into the row buffer).
            self._latch(sag, cd, dec.row)
        self.grid.occupy_sag_exclusive(sag, now, duration, KIND_WRITE)
        self._note(req, kind, now, until, sag, cds,
                   overlapping_reads, overlapping_writes)
        self.open_row[sag] = dec.row
        if kind == SERVICE_WRITE_MISS:
            self.row_ready[sag] = now + t.trcd
            if self.sense_on_write_activate:
                # DRAM-style ACT before the write: the full (unit) row is
                # sensed even though the data is about to be overwritten.
                self.stats.count_sense(
                    self.sense_bits * self.column_divisions, 0, 0
                )
                self._note_sense(req, kind, now, until, sag, cds[0],
                                 self.sense_bits * self.column_divisions,
                                 0, 0)
                for cd in range(self.column_divisions):
                    self._latch(sag, cd, dec.row)
            else:
                # FgNVM: the activation senses only the CD slice(s) the
                # CSL registers select for this write.
                self.stats.count_sense(self.sense_bits * len(cds), 0, 0)
                self._note_sense(req, kind, now, until, sag, cds[0],
                                 self.sense_bits * len(cds), 0, 0)
        # Retry pulses re-drive the full line, so they cost write energy.
        pulsed_bits = self.write_bits * (1 + retries)
        self.stats.count_write_issue(
            pulsed_bits, overlapping_reads + overlapping_writes
        )
        if self.probe.enabled:
            self.probe.emit(Event(
                EV_WRITE_PULSE, now, end=until, req_id=req.req_id,
                op=req.op.value, service=kind, channel=self.channel,
                bank=self.bank_id, sag=sag, cd=cds[0],
                bits=pulsed_bits, overlap_reads=overlapping_reads,
                overlap_writes=overlapping_writes,
            ))
            if retries:
                self.probe.emit(Event(
                    EV_WRITE_RETRY, now, end=until, req_id=req.req_id,
                    op=req.op.value, service=kind, channel=self.channel,
                    bank=self.bank_id, sag=sag, cd=cds[0],
                    bits=self.write_bits * retries, value=retries,
                ))
        if rel is not None:
            self._account_wear(rel.record_write(sag, cds, retries), now)
            worn = max(rel.wear.get((sag, cd), 0) for cd in cds)
            self.stats.note_tile_wear(worn)
            if rel.maintenance_due():
                self._run_maintenance(rel, now)
        bus_start = now + activation + t.tcwd
        return IssueResult(kind, bus_start, until, until, retry_cycles)

    # -- instrumentation -------------------------------------------------------

    def _note(self, req: MemRequest, kind: str, start: int, end: int,
              sag: int, cds: Tuple[int, ...], overlapping_reads: int,
              overlapping_writes: int) -> None:
        """Publish one committed operation on the event bus.

        One ``issue`` event per touched CD; ``value`` carries the CD
        offset within the access so consumers can count multi-CD
        accesses once (offset 0 is the base tile).
        """
        if self.probe.enabled:
            for offset, cd in enumerate(cds):
                self.probe.emit(Event(
                    EV_ISSUE, start, end=end, req_id=req.req_id,
                    op=req.op.value, service=kind, channel=self.channel,
                    bank=self.bank_id, sag=sag, cd=cd,
                    overlap_reads=overlapping_reads,
                    overlap_writes=overlapping_writes, value=offset,
                ))

    def _note_sense(self, req: MemRequest, kind: str, start: int, end: int,
                    sag: int, cd: int, bits: int, overlapping_reads: int,
                    overlapping_writes: int) -> None:
        if self.probe.enabled:
            self.probe.emit(Event(
                EV_SENSE, start, end=end, req_id=req.req_id,
                op=req.op.value, service=kind, channel=self.channel,
                bank=self.bank_id, sag=sag, cd=cd, bits=bits,
                overlap_reads=overlapping_reads,
                overlap_writes=overlapping_writes,
            ))

    # -- device reliability ----------------------------------------------------

    def _account_wear(self, retirements, now: int) -> None:
        """Fold retirement events into stats and the event bus."""
        for sag, cd, spare_used in retirements:
            self.stats.count_retirement(spare_used)
            if self.probe.enabled:
                self.probe.emit(Event(
                    EV_TILE_RETIRED, now, channel=self.channel,
                    bank=self.bank_id, sag=sag, cd=cd,
                    value=1 if spare_used else 0,
                ))

    def _run_maintenance(self, rel, now: int) -> None:
        """Issue one background wear-leveling row migration.

        The start-gap pointer's tile is read out and rewritten
        elsewhere in the array: an activation plus a write pulse that
        holds the tile's CD and SAG exactly like a demand write —
        scheduled at the resources' next free cycle, so it *competes*
        with queued demand traffic rather than preempting it.  The
        migrated row's wordline and buffer slice are invalidated
        (the data moved).  Called only from inside :meth:`issue`, which
        is what keeps the scheduling memo contract intact.
        """
        tile = rel.next_rotation_tile()
        if tile is None:
            return
        m_sag, m_cd = tile
        t = self.timing
        duration = t.trcd + t.twp + t.twr
        start = now
        cd_free = self.grid.cd_free_at(m_cd)
        if cd_free > start:
            start = cd_free
        sag_free = self.grid.sag_free_at(m_sag)
        if sag_free > start:
            start = sag_free
        self.grid.occupy_cd(m_cd, start, duration, KIND_MAINT)
        self.grid.occupy_sag_exclusive(m_sag, start, duration, KIND_MAINT)
        self.open_row[m_sag] = None
        self.buffer_tag[m_cd] = None
        if self.per_sag_buffers:
            self._sag_buffer[m_sag][m_cd] = None
        self.stats.count_maintenance(duration)
        event = rel.record_maintenance(m_sag, m_cd)
        if event is not None:
            self._account_wear([event], now)
        self.stats.note_tile_wear(rel.wear.get((m_sag, m_cd), 0))
        if self.probe.enabled:
            self.probe.emit(Event(
                EV_MAINT, start, end=start + duration, service="migration",
                channel=self.channel, bank=self.bank_id, sag=m_sag,
                cd=m_cd, value=duration,
            ))

    def active_writes(self, now: int) -> int:
        """Writes currently driving cells in this bank (the write-cap
        throttle and PALP's overlap term)."""
        return sum(
            1 for k in self.grid.active_cd_kinds(now) if k == KIND_WRITE
        )

    def write_cap_free_at(self, cap: int) -> int:
        """First cycle at which fewer than ``cap`` writes hold CDs.

        The now-independent form of the controller's write throttle:
        ``active_writes(now) >= cap`` exactly when
        ``now < write_cap_free_at(cap)``.  It is the ``cap``-th latest
        release among the CDs a write holds (0 when fewer than ``cap``
        do), a function of bank state alone, so it shares the
        scheduling memo that :meth:`issue` drops.
        """
        cached = self._sched_cache.get(cap)
        if cached is not None:
            return cached
        grid = self.grid
        releases = sorted(
            (grid.cd_free_at(cd) for cd in range(self.column_divisions)
             if grid.cd_kind(cd) == KIND_WRITE),
            reverse=True,
        )
        free_at = releases[cap - 1] if len(releases) >= cap else 0
        self._sched_cache[cap] = free_at
        return free_at

    # -- event-skipping support ----------------------------------------------

    def next_release(self, now: int) -> Optional[int]:
        """Earliest future cycle at which any bank resource frees."""
        release = self.grid.next_release(now)
        column_gate = self._last_column + self.timing.tccd
        if column_gate > now:
            release = (
                column_gate if release is None else min(release, column_gate)
            )
        return release

    # -- helpers --------------------------------------------------------------

    def _coords(self, dec) -> Tuple[int, Tuple[int, ...]]:
        """(sag, cds) for a decoded address, bounded to this bank's grid.

        ``cds`` is the tuple of column divisions the access touches —
        one for normal grids, ``cd_span`` adjacent ones when the grid is
        finer than a cache line.  For MANY_BANKS units the decoder
        already folded SAG/CD into the flat bank index, and the unit
        itself is 1x1 — modulo keeps the same code path working for
        every architecture.

        When the fault model has retired tiles, the (SAG, base CD) pair
        is remapped onto its surviving target first — the mechanism
        that shrinks effective parallelism gracefully instead of
        crashing on a dead tile.
        """
        sag = dec.sag % self.subarray_groups
        base = dec.cd % self.column_divisions
        rel = self.reliability
        if rel is not None and rel.remap:
            sag, base = rel.resolve(sag, base)
        cds = tuple(
            (base + offset) % self.column_divisions
            for offset in range(self.cd_span)
        )
        return (sag, cds)

    def open_rows(self) -> List[Optional[int]]:
        """Snapshot of per-SAG open rows (tests and debugging)."""
        return list(self.open_row)


def make_fgnvm_bank(
    bank_id: int,
    org,
    timing: TimingCycles,
    stats: StatsCollector,
    reliability: "object | None" = None,
) -> FgNvmBank:
    """Build an FgNVM bank from an :class:`~repro.config.OrgParams`.

    ``reliability`` is the system's
    :class:`~repro.config.params.ReliabilityParams` (or None); each
    bank gets its own :class:`~repro.memsys.reliability.BankReliability`
    state when the model is enabled.
    """
    from ..memsys.reliability import make_bank_reliability

    sense_bits = org.bytes_per_cd * BITS_PER_BYTE
    write_bits = org.cacheline_bytes * BITS_PER_BYTE
    return FgNvmBank(
        bank_id=bank_id,
        subarray_groups=org.subarray_groups,
        column_divisions=org.column_divisions,
        timing=timing,
        sense_bits=sense_bits,
        write_bits=write_bits,
        stats=stats,
        cd_span=org.cd_span,
        per_sag_buffers=org.per_sag_row_buffers,
        reliability=make_bank_reliability(
            reliability, bank_id, org.subarray_groups,
            org.column_divisions,
        ),
    )
