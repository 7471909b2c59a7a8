"""Command-slot and data-lane bus models."""

import pytest

from repro.memsys.bus import CommandBus, DataBus


class TestCommandBus:
    def test_single_slot_per_cycle(self):
        bus = CommandBus(1)
        assert bus.acquire(10)
        assert not bus.acquire(10)
        assert bus.acquire(11)

    def test_multi_issue_width(self):
        bus = CommandBus(4)
        taken = [bus.acquire(5) for _ in range(5)]
        assert taken == [True] * 4 + [False]
        assert bus.slots_free(5) == 0
        assert bus.slots_free(6) == 4

    def test_counts_commands(self):
        bus = CommandBus(2)
        for cycle in range(3):
            bus.acquire(cycle)
        assert bus.commands_issued == 3

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            CommandBus(0)


class TestDataBus:
    def test_uncontended_transfer_starts_on_time(self):
        bus = DataBus(width=1, tburst=4)
        assert bus.reserve(100) == 100

    def test_contention_pushes_start_back(self):
        bus = DataBus(width=1, tburst=4)
        bus.reserve(100)
        assert bus.reserve(101) == 104
        assert bus.conflict_cycles == 3

    def test_wide_bus_carries_parallel_bursts(self):
        bus = DataBus(width=2, tburst=4)
        assert bus.reserve(100) == 100
        assert bus.reserve(100) == 100
        assert bus.reserve(100) == 104

    def test_earliest_start_is_monotone(self):
        bus = DataBus(width=1, tburst=4)
        bus.reserve(10)
        assert bus.earliest_start(0) == 14
        assert bus.earliest_start(20) == 20

    def test_utilisation(self):
        bus = DataBus(width=1, tburst=4)
        bus.reserve(0)
        bus.reserve(4)
        assert bus.utilisation(16) == pytest.approx(0.5)
        assert bus.utilisation(0) == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DataBus(0, 4)
        with pytest.raises(ValueError):
            DataBus(1, 0)
