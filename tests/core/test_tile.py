"""TileGrid resource semantics: exclusivity, extension, accounting."""

import pytest

from repro.core.tile import KIND_SENSE, KIND_WRITE, TileGrid


@pytest.fixture
def grid():
    return TileGrid(4, 4)


class TestCdOccupancy:
    def test_occupy_and_release(self, grid):
        until = grid.occupy_cd(0, start=10, duration=38, kind=KIND_SENSE)
        assert until == 48
        assert grid.cd_free_at(0) == 48
        assert grid.cd_free_at(1) == 0

    def test_double_booking_raises(self, grid):
        grid.occupy_cd(0, 0, 38, KIND_SENSE)
        with pytest.raises(ValueError):
            grid.occupy_cd(0, 10, 38, KIND_SENSE)

    def test_sequential_reuse(self, grid):
        grid.occupy_cd(0, 0, 38, KIND_SENSE)
        grid.occupy_cd(0, 48, 38, KIND_SENSE)
        assert grid.cd_free_at(0) == 86


class TestSagSemantics:
    def test_exclusive_occupancy(self, grid):
        grid.occupy_sag_exclusive(1, 0, 48, KIND_SENSE)
        assert grid.sag_free_at(1) == 48
        with pytest.raises(ValueError):
            grid.occupy_sag_exclusive(1, 20, 10, KIND_SENSE)

    def test_extend_prolongs_hold(self, grid):
        grid.occupy_sag_exclusive(0, 0, 48, KIND_SENSE)
        grid.extend_sag(0, 80, KIND_SENSE)
        assert grid.sag_free_at(0) == 80

    def test_extend_never_shortens(self, grid):
        grid.occupy_sag_exclusive(0, 0, 48, KIND_SENSE)
        grid.extend_sag(0, 30, KIND_SENSE)
        assert grid.sag_free_at(0) == 48

    def test_write_free_at_only_for_writes(self, grid):
        grid.occupy_sag_exclusive(0, 0, 48, KIND_SENSE)
        grid.occupy_sag_exclusive(1, 0, 66, KIND_WRITE)
        assert grid.sag_write_free_at(0) == 0
        assert grid.sag_write_free_at(1) == 66


class TestQueries:
    def test_tile_free(self, grid):
        grid.occupy_cd(2, 0, 38, KIND_SENSE)
        grid.occupy_sag_exclusive(1, 0, 48, KIND_SENSE)
        assert grid.is_tile_free((0, 0), 5)
        assert not grid.is_tile_free((1, 0), 5)   # SAG busy
        assert not grid.is_tile_free((0, 2), 5)   # CD busy
        assert grid.is_tile_free((1, 0), 48)

    def test_overlap_counts_follow_each_cds_latest_occupancy(self, grid):
        grid.occupy_cd(0, 0, 66, KIND_WRITE)
        grid.occupy_cd(1, 0, 38, KIND_SENSE)
        assert grid.overlap_counts(5) == (1, 1)
        assert grid.overlap_counts(50) == (0, 1)
        # The released sense's CD is re-occupied by a write.
        grid.occupy_cd(1, 50, 66, KIND_WRITE)
        assert grid.overlap_counts(60) == (0, 2)
        assert grid.write_releases == {0: 66, 1: 116}
        grid.occupy_cd(0, 70, 10, KIND_SENSE)
        assert grid.overlap_counts(70) == (1, 1)
        assert grid.write_releases == {1: 116}

    def test_overlap_counts_writes(self, grid):
        assert grid.overlap_counts(0)[1] == 0
        grid.occupy_cd(3, 0, 66, KIND_WRITE)
        assert grid.overlap_counts(10)[1] == 1
        assert grid.overlap_counts(66)[1] == 0

class TestAccounting:
    def test_utilisation_integrals(self, grid):
        grid.occupy_cd(0, 0, 40, KIND_SENSE)
        grid.occupy_sag_exclusive(0, 0, 40, KIND_SENSE)
        sag_util, cd_util = grid.utilisation(40)
        assert sag_util == pytest.approx(0.25)  # 1 of 4 SAGs busy
        assert cd_util == pytest.approx(0.25)

    def test_utilisation_zero_elapsed(self, grid):
        assert grid.utilisation(0) == (0.0, 0.0)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            TileGrid(0, 4)
        with pytest.raises(ValueError):
            TileGrid(4, 0)
