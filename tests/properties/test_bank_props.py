"""Property tests: the FgNVM bank keeps its invariants under random use.

A random, legally-scheduled stream of reads/writes must never violate:

* issue-at-earliest-start always succeeds (no ProtocolError),
* every sense/write holds disjoint CD resources (the grid enforces it
  by raising on double-booking),
* row hits never re-sense (sense count only grows on miss/underfetch),
* the buffer tag always names the SAG's open row lineage.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import fgnvm, with_reliability
from repro.config.params import ReliabilityParams
from repro.core.fgnvm_bank import FgNvmBank, make_fgnvm_bank
from repro.core.tile import KIND_MAINT, KIND_SENSE, KIND_WRITE
from repro.memsys.reliability import make_bank_reliability
from repro.memsys.address import AddressMapper
from repro.memsys.request import (
    SERVICE_ROW_HIT,
    SERVICE_ROW_MISS,
    SERVICE_UNDERFETCH,
    SERVICE_WRITE,
    SERVICE_WRITE_MISS,
    MemRequest,
    OpType,
)
from repro.memsys.stats import StatsCollector
from repro.obs.trace import BLAME_MAINT, BLAME_MULTI_ACT, BLAME_RUW, BLAME_TILE


def build_bank(sags=4, cds=4):
    cfg = fgnvm(sags, cds)
    cfg.org.rows_per_bank = 64
    stats = StatsCollector()
    bank = make_fgnvm_bank(0, cfg.org, cfg.timing.cycles(), stats)
    return bank, AddressMapper(cfg.org), stats


operations = st.lists(
    st.tuples(
        st.booleans(),          # is_write
        st.integers(0, 63),     # row
        st.integers(0, 15),     # col
    ),
    min_size=1,
    max_size=40,
)


@given(ops=operations)
@settings(max_examples=100, deadline=None)
def test_random_streams_keep_invariants(ops):
    bank, mapper, stats = build_bank()
    now = 0
    hits_before = 0
    for is_write, row, col in ops:
        op = OpType.WRITE if is_write else OpType.READ
        req = MemRequest(op, mapper.encode(row=row, col=col))
        req.decoded = mapper.decode(req.address)
        kind_before = bank.classify(req)
        start = bank.earliest_start(req, now)
        assert start >= now
        senses_before = stats.senses
        result = bank.issue(req, start)  # must not raise
        assert result.kind == kind_before
        if kind_before == SERVICE_ROW_HIT and not is_write:
            assert stats.senses == senses_before  # hits never sense
            assert stats.row_hits > hits_before
        hits_before = stats.row_hits
        assert result.data_ready >= start
        assert result.bus_desired_start >= start
        now = start  # time never goes backwards


@given(ops=operations)
@settings(max_examples=60, deadline=None)
def test_buffer_tags_point_at_plausible_rows(ops):
    bank, mapper, stats = build_bank()
    now = 0
    touched_rows = set()
    for is_write, row, col in ops:
        op = OpType.WRITE if is_write else OpType.READ
        req = MemRequest(op, mapper.encode(row=row, col=col))
        req.decoded = mapper.decode(req.address)
        touched_rows.add(req.decoded.row)
        start = bank.earliest_start(req, now)
        bank.issue(req, start)
        now = start
    for cd, tag in enumerate(bank.buffer_tag):
        if tag is not None:
            sag, tag_row = tag
            assert tag_row in touched_rows
            assert 0 <= sag < bank.subarray_groups


@given(ops=operations)
@settings(max_examples=60, deadline=None)
def test_read_count_conservation(ops):
    bank, mapper, stats = build_bank()
    now = 0
    reads = writes = 0
    for is_write, row, col in ops:
        op = OpType.WRITE if is_write else OpType.READ
        req = MemRequest(op, mapper.encode(row=row, col=col))
        req.decoded = mapper.decode(req.address)
        start = bank.earliest_start(req, now)
        bank.issue(req, start)
        now = start
        if is_write:
            writes += 1
        else:
            reads += 1
    assert stats.reads == reads
    assert stats.writes == writes
    assert stats.row_hits + stats.row_misses + stats.underfetches == reads


@given(
    ops=operations,
    dims=st.sampled_from([(1, 1), (8, 2), (2, 8), (8, 8)]),
)
@settings(max_examples=60, deadline=None)
def test_invariants_hold_across_grids(ops, dims):
    sags, cds = dims
    bank, mapper, stats = build_bank(sags, cds)
    now = 0
    for is_write, row, col in ops:
        op = OpType.WRITE if is_write else OpType.READ
        req = MemRequest(op, mapper.encode(row=row, col=col))
        req.decoded = mapper.decode(req.address)
        start = bank.earliest_start(req, now)
        bank.issue(req, start)
        now = start
    # Sense energy is always a whole number of CD slices.
    assert stats.sense_bits % bank.sense_bits == 0


@given(
    ops=st.lists(
        st.tuples(
            st.booleans(),          # is_write
            st.integers(0, 63),     # row
            st.integers(0, 15),     # col
            st.integers(0, 60),     # idle cycles before the next request
        ),
        min_size=1,
        max_size=30,
    ),
    dims=st.sampled_from([(1, 1), (4, 4), (8, 2), (8, 32), (4, 64)]),
    cap=st.integers(1, 3),
    faults=st.one_of(
        st.none(),
        st.tuples(
            st.floats(0.0, 0.6),                   # verify failure prob
            st.sampled_from([None, 2, 5]),         # wear_rotate_every
            st.sampled_from([None, 4]),            # endurance_writes
            st.integers(0, 2**16),                 # seed
        ),
    ),
)
@settings(max_examples=80, deadline=None)
def test_write_cap_free_at_matches_active_writes(ops, dims, cap, faults):
    """``active_writes(now) >= cap`` iff ``now < write_cap_free_at(cap)``.

    Checked at every cycle from each issue until every resource is
    free again, across grids where a line spans several CDs and with
    verify retries, wear-leveling migrations and tile retirement
    reshaping occupancy.  The query is warmed before every issue, so a
    memo that survived an issue would answer for stale bank state.
    """
    sags, cds = dims
    cfg = fgnvm(sags, cds)
    cfg.org.rows_per_bank = 64
    if faults is not None:
        prob, rotate, endurance, seed = faults
        cfg = with_reliability(
            cfg, write_fail_prob=prob, max_write_retries=3,
            wear_rotate_every=rotate, endurance_writes=endurance,
            seed=seed,
        )
    bank = make_fgnvm_bank(0, cfg.org, cfg.timing.cycles(),
                           StatsCollector(), reliability=cfg.reliability)
    mapper = AddressMapper(cfg.org)
    now = 0
    for is_write, row, col, idle in ops:
        op = OpType.WRITE if is_write else OpType.READ
        req = MemRequest(op, mapper.encode(row=row, col=col))
        req.decoded = mapper.decode(req.address)
        bank.write_cap_free_at(cap)
        start = bank.earliest_start(req, now + idle)
        bank.issue(req, start)
        free_at = bank.write_cap_free_at(cap)
        assert bank.sched_memo[cap] == free_at
        horizon = max(bank.grid.cd_free_at(cd) for cd in range(cds))
        for t in range(start, max(horizon, free_at) + 2):
            assert (bank.active_writes(t) >= cap) == (t < free_at), t
        now = start


@st.composite
def occupied_banks(draw):
    """A bank of any grid from 1x1 to 8x8, a line spanning one or two
    CDs, with or without retired tiles remapped, and random occupancy."""
    sags = draw(st.integers(1, 8))
    cds = draw(st.integers(1, 8))
    rel = None
    if draw(st.booleans()):
        rel = make_bank_reliability(
            ReliabilityParams(enabled=True), 0, sags, cds)
        tiles = st.tuples(st.integers(0, sags - 1), st.integers(0, cds - 1))
        rel.remap.update(draw(st.dictionaries(tiles, tiles, max_size=6)))
    bank = FgNvmBank(0, sags, cds, fgnvm().timing.cycles(), 1, 1,
                     StatsCollector(), cd_span=draw(st.sampled_from([1, 2])),
                     reliability=rel)
    for cd in range(cds):
        if draw(st.booleans()):
            kind = draw(st.sampled_from([KIND_SENSE, KIND_WRITE, KIND_MAINT]))
            bank.grid.occupy_cd(cd, draw(st.integers(0, 40)),
                                draw(st.integers(1, 80)), kind)
    return bank


def probe_request(sag, cd, row=0, is_write=False):
    """The request fields :meth:`FgNvmBank._assess` and its callers read."""
    return SimpleNamespace(
        decoded=SimpleNamespace(sag=sag, cd=cd, row=row),
        is_write=is_write, is_read=not is_write, sched_key=None)


@given(bank=occupied_banks(), now=st.integers(0, 130))
@settings(max_examples=200, deadline=None)
def test_tile_tables_match_direct_formulas(bank, now):
    """The per-base-CD table and the counting census answer exactly
    what the generator-built tuple and the kind-list census did."""
    sags, cds, span = bank.subarray_groups, bank.column_divisions, bank.cd_span
    for sag in range(2 * sags):
        for cd in range(2 * cds):
            base_sag, base = sag % sags, cd % cds
            rel = bank.reliability
            if rel is not None and rel.remap:
                base_sag, base = rel.resolve(base_sag, base)
            expected = (base_sag,
                        tuple((base + o) % cds for o in range(span)))
            assert bank._assess(probe_request(sag, cd))[:2] == expected
    grid = bank.grid
    active = [grid.cd_kind(cd) for cd in range(cds)
              if grid.cd_free_at(cd) > now]
    assert grid.overlap_counts(now) == (
        sum(1 for k in active if k == KIND_SENSE),
        sum(1 for k in active if k == KIND_WRITE),
    )
    assert bank.active_writes(now) == sum(
        1 for cd in range(cds)
        if grid.cd_free_at(cd) > now and grid.cd_kind(cd) == KIND_WRITE)


census_steps = st.lists(
    st.tuples(
        st.integers(0, 7),      # CD (modulo the grid's)
        st.sampled_from([KIND_SENSE, KIND_WRITE, KIND_MAINT]),
        st.integers(0, 30),     # clock advance before the step
        st.integers(0, 20),     # a migration's extra start delay
        st.integers(1, 80),     # duration
    ),
    min_size=1,
    max_size=60,
)


def census_walk(grid, now):
    """(senses, writes) by a walk over every CD: the reference."""
    active = [grid.cd_kind(cd) for cd in range(grid.column_divisions)
              if grid.cd_free_at(cd) > now]
    return active.count(KIND_SENSE), active.count(KIND_WRITE)


def write_cap_walk(grid, cap):
    """The ``cap``-th latest release among the CDs whose latest
    occupancy is a write (0 with fewer), by a walk over every CD."""
    releases = sorted((grid.cd_free_at(cd)
                       for cd in range(grid.column_divisions)
                       if grid.cd_kind(cd) == KIND_WRITE), reverse=True)
    return releases[cap - 1] if len(releases) >= cap else 0


@given(cds=st.integers(1, 8), steps=census_steps)
@settings(max_examples=300, deadline=None)
def test_census_matches_per_cd_walk(cds, steps):
    """The in-flight census and the write-cap release answer what a
    walk over every CD does, with queries at a non-decreasing clock.

    Senses and writes start at the clock on a free CD, as an issue
    does; a wear-leveling migration starts when its CD frees, or later,
    so it can re-occupy a CD that is still in flight at the clock.
    """
    bank = FgNvmBank(0, 1, cds, fgnvm().timing.cycles(), 1, 1,
                     StatsCollector())
    grid = bank.grid
    now = 0
    for cd, kind, advance, delay, duration in steps:
        now += advance
        cd %= cds
        free_at = grid.cd_free_at(cd)
        if kind == KIND_MAINT:
            grid.occupy_cd(cd, max(now, free_at) + delay, duration, kind)
        elif free_at <= now:
            grid.occupy_cd(cd, now, duration, kind)
        # Occupancy changed outside ``issue``, which owns the memo.
        bank.sched_memo.clear()
        assert grid.overlap_counts(now) == census_walk(grid, now)
        assert bank.active_writes(now) == census_walk(grid, now)[1]
        for cap in range(1, 5):
            assert bank.write_cap_free_at(cap) == write_cap_walk(grid, cap)


def reference_assessment(bank, req):
    """(sag, cds, kind, constraint) derived in three separate steps —
    resolve the tile, classify the access, bound its first command —
    through the bank's public state and the grid's query methods."""
    dec = req.decoded
    sag = dec.sag % bank.subarray_groups
    base = dec.cd % bank.column_divisions
    rel = bank.reliability
    if rel is not None and rel.remap:
        sag, base = rel.resolve(sag, base)
    cds = tuple((base + offset) % bank.column_divisions
                for offset in range(bank.cd_span))

    row = dec.row
    if req.is_write:
        kind = (SERVICE_WRITE if bank.open_row[sag] == row
                else SERVICE_WRITE_MISS)
    elif all(bank._buffered(sag, cd, row) for cd in cds):
        kind = SERVICE_ROW_HIT
    elif bank.open_row[sag] == row:
        kind = SERVICE_UNDERFETCH
    else:
        kind = SERVICE_ROW_MISS

    grid = bank.grid
    start = bank._last_column + bank.timing.tccd
    for cd in cds:
        start = max(start, grid.cd_free_at(cd))
    if kind == SERVICE_UNDERFETCH:
        start = max(start, grid.sag_write_free_at(sag), bank.row_ready[sag])
    elif kind != SERVICE_ROW_HIT:
        start = max(start, grid.sag_free_at(sag))
    return sag, cds, kind, start


def reference_blame(bank, req, kind):
    """The blame cause by a walk over the constraint's bounds in order,
    raising the bound only on a strictly later release (so the tCCD
    gate wins ties), remembering which resource raised it last."""
    sag, cds, _, _ = reference_assessment(bank, req)
    grid = bank.grid
    start = bank._last_column + bank.timing.tccd
    cause = BLAME_TILE
    for cd in cds:
        if grid.cd_free_at(cd) > start:
            start = grid.cd_free_at(cd)
            held = grid.cd_kind(cd)
            cause = (BLAME_RUW if held == KIND_WRITE and not req.is_write
                     else BLAME_MULTI_ACT if held == KIND_SENSE
                     else BLAME_MAINT if held == KIND_MAINT
                     else BLAME_TILE)
    if kind == SERVICE_ROW_HIT:
        return cause
    if kind == SERVICE_UNDERFETCH:
        if grid.sag_write_free_at(sag) > start:
            start = grid.sag_write_free_at(sag)
            cause = BLAME_RUW
        if bank.row_ready[sag] > start:
            cause = BLAME_TILE
        return cause
    if grid.sag_free_at(sag) > start:
        held = grid.sag_kind(sag)
        cause = (BLAME_RUW if held == KIND_WRITE and not req.is_write
                 else BLAME_MAINT if held == KIND_MAINT else BLAME_TILE)
    return cause


@st.composite
def bank_states(draw):
    """A bank of any grid from 1x1 to 8x8 with a line spanning any
    number of its CDs, shared or per-SAG buffers, retired tiles
    remapped or not, and random wordlines, buffer tags, column gate
    and SAG/CD occupancy."""
    sags = draw(st.integers(1, 8))
    cds = draw(st.integers(1, 8))
    rel = None
    if draw(st.booleans()):
        rel = make_bank_reliability(
            ReliabilityParams(enabled=True), 0, sags, cds)
        tiles = st.tuples(st.integers(0, sags - 1), st.integers(0, cds - 1))
        rel.remap.update(draw(st.dictionaries(tiles, tiles, max_size=6)))
    bank = FgNvmBank(0, sags, cds, fgnvm().timing.cycles(), 1, 1,
                     StatsCollector(), cd_span=draw(st.integers(1, cds)),
                     per_sag_buffers=draw(st.booleans()), reliability=rel)
    kinds = st.sampled_from([KIND_SENSE, KIND_WRITE, KIND_MAINT])
    rows = st.one_of(st.none(), st.integers(0, 3))
    for cd in range(cds):
        if draw(st.booleans()):
            bank.grid.occupy_cd(cd, draw(st.integers(0, 40)),
                                draw(st.integers(1, 80)), draw(kinds))
        tag = draw(st.one_of(st.none(), st.tuples(
            st.integers(0, sags - 1), st.integers(0, 3))))
        bank.buffer_tag[cd] = tag
        for sag in range(sags):
            bank._sag_buffer[sag][cd] = draw(rows)
    for sag in range(sags):
        if draw(st.booleans()):
            bank.grid.occupy_sag_exclusive(sag, draw(st.integers(0, 40)),
                                           draw(st.integers(1, 80)),
                                           draw(kinds))
        bank.open_row[sag] = draw(rows)
        bank.row_ready[sag] = draw(st.integers(0, 100))
    bank._last_column = draw(st.integers(-(10**9), 100))
    return bank


@given(bank=bank_states(), now=st.integers(0, 130), data=st.data())
@settings(max_examples=300, deadline=None)
def test_assessment_matches_three_step_derivation(bank, now, data):
    """One ``_assess`` call answers what resolving, classifying and
    bounding separately do, and every caller reads that one answer:
    the memo, ``classify``, ``earliest_start`` and ``stall_blame``,
    whose cause is the one the walk over the bounds names."""
    req = probe_request(
        data.draw(st.integers(0, 2 * bank.subarray_groups)),
        data.draw(st.integers(0, 2 * bank.column_divisions)),
        row=data.draw(st.integers(0, 3)), is_write=data.draw(st.booleans()))
    expected = reference_assessment(bank, req)
    assert bank._assess(req) == expected
    _, _, kind, constraint = expected
    assert bank.kind_and_constraint(req) == (kind, constraint)
    assert bank.classify(req) == kind
    assert bank.earliest_start(req, now) == max(now, constraint)
    assert bank.stall_blame(req) == (kind, constraint,
                                     reference_blame(bank, req, kind))
