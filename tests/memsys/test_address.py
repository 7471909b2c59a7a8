"""Address mapping: decode/encode, SAG/CD extraction, bank folding."""

import pytest

from repro.config import fgnvm, many_banks
from repro.errors import AddressError
from repro.memsys.address import AddressMapper


@pytest.fixture
def mapper():
    return AddressMapper(fgnvm(4, 4).org)


class TestRoundTrip:
    def test_encode_decode_identity(self, mapper):
        addr = mapper.encode(bank=5, row=123, col=7)
        dec = mapper.decode(addr)
        assert (dec.bank, dec.row, dec.col) == (5, 123, 7)

    def test_offset_bits_ignored(self, mapper):
        base = mapper.encode(bank=2, row=9, col=3)
        for offset in (0, 1, 63):
            dec = mapper.decode(base + offset)
            assert (dec.bank, dec.row, dec.col) == (2, 9, 3)

    def test_consecutive_lines_walk_columns_then_banks(self, mapper):
        decs = [mapper.decode(i * 64) for i in range(17)]
        assert [d.col for d in decs[:16]] == list(range(16))
        assert all(d.bank == 0 for d in decs[:16])
        # Crossing the row boundary moves to the next channel/bank bits.
        assert decs[16].col == 0
        assert (decs[16].bank, decs[16].row) != (0, 0) or decs[16].rank != 0

    def test_addresses_wrap_at_capacity(self, mapper):
        addr = mapper.encode(bank=1, row=2, col=3)
        wrapped = mapper.decode(addr + mapper.capacity_bytes)
        assert (wrapped.bank, wrapped.row, wrapped.col) == (1, 2, 3)

    def test_negative_address_rejected(self, mapper):
        with pytest.raises(AddressError):
            mapper.decode(-1)

    def test_encode_rejects_out_of_range(self, mapper):
        with pytest.raises(AddressError):
            mapper.encode(bank=8)  # only 8 banks: 0..7


class TestSagCdExtraction:
    def test_sag_tracks_high_row_bits(self, mapper):
        org = fgnvm(4, 4).org
        rows_per_sag = org.rows_per_sag
        for sag in range(4):
            dec = mapper.decode(mapper.encode(row=sag * rows_per_sag))
            assert dec.sag == sag

    def test_cd_tracks_high_column_bits(self, mapper):
        # 16 columns over 4 CDs: columns 0-3 -> CD 0, 4-7 -> CD 1, ...
        for col in range(16):
            dec = mapper.decode(mapper.encode(col=col))
            assert dec.cd == col // 4

    def test_cd_span_indexing(self):
        org = fgnvm(8, 32).org
        mapper = AddressMapper(org)
        # 16 columns over 32 CDs: each line owns two CDs starting at 2*col.
        for col in range(16):
            dec = mapper.decode(mapper.encode(col=col))
            assert dec.cd == col * 2


class TestManyBanksFolding:
    def test_units_are_distinct_per_sag_cd(self):
        org = many_banks(4, 4).org
        org.rows_per_bank = 256
        mapper = AddressMapper(org)
        seen = set()
        rows_per_sag = org.rows_per_sag
        for bank in range(2):
            for sag in range(4):
                for cd in range(4):
                    dec = mapper.decode(mapper.encode(
                        bank=bank, row=sag * rows_per_sag, col=cd * 4
                    ))
                    seen.add(dec.flat_bank)
        assert len(seen) == 2 * 4 * 4

    def test_flat_bank_count(self):
        org = many_banks(8, 2).org
        mapper = AddressMapper(org)
        assert mapper.independent_banks() == 128

    def test_plain_fgnvm_keeps_physical_banks(self, mapper):
        assert mapper.independent_banks() == 8

    def test_local_coordinates(self):
        org = many_banks(4, 4).org
        org.rows_per_bank = 256
        mapper = AddressMapper(org)
        dec = mapper.decode(mapper.encode(row=70, col=6))
        assert mapper.local_row(dec) == 70 % org.rows_per_sag
        assert mapper.local_col(dec) == 6 % org.columns_per_cd


class TestDecodeState:
    """``decode`` is pure arithmetic: it keeps nothing between calls."""

    def test_mapper_state_does_not_grow_with_the_trace(self):
        from repro.sim.simulator import Simulator
        from repro.workloads import generate_packed_trace, get_profile

        def sizes(requests):
            cfg = fgnvm(4, 4)
            cfg.org.channels = 2
            cfg.org.rows_per_bank = 256
            sim = Simulator(cfg, generate_packed_trace(get_profile("mcf"),
                                                       requests))
            sim.run()
            return {name: len(value) for name, value
                    in vars(sim.controller.mapper).items()
                    if isinstance(value, (dict, list, set, tuple))}

        assert sizes(100) == sizes(1000)
