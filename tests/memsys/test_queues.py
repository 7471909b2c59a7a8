"""Transaction and write queues: capacity, watermarks, forwarding."""

import copy

import pytest

from repro.errors import QueueFullError
from repro.memsys.queues import TransactionQueue, WriteQueue, oldest_first
from repro.memsys.request import MemRequest, OpType


def req(address=0, op=OpType.READ):
    return MemRequest(op, address)


class TestTransactionQueue:
    def test_push_and_capacity(self):
        queue = TransactionQueue(2)
        queue.push(req(0x40), cycle=1)
        queue.push(req(0x80), cycle=2)
        assert queue.is_full
        with pytest.raises(QueueFullError):
            queue.push(req(0xc0), cycle=3)

    def test_push_records_arrival(self):
        queue = TransactionQueue(4)
        request = req()
        queue.push(request, cycle=42)
        assert request.arrival_cycle == 42

    def test_remove_arbitrary_entry(self):
        queue = TransactionQueue(4)
        first, second = req(0x40), req(0x80)
        queue.push(first, 0)
        queue.push(second, 1)
        queue.remove(first)
        assert list(queue) == [second]
        assert queue.space() == 3

    def test_oldest(self):
        queue = TransactionQueue(4)
        assert queue.oldest() is None
        first = req(0x40)
        queue.push(first, 0)
        queue.push(req(0x80), 1)
        assert queue.oldest() is first

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            TransactionQueue(0)


class TestWriteQueueWatermarks:
    def make(self):
        return WriteQueue(capacity=8, high_watermark=6, low_watermark=2)

    def test_drain_hysteresis(self):
        queue = self.make()
        writes = [req(i * 64, OpType.WRITE) for i in range(8)]
        for w in writes[:5]:
            queue.push(w, 0)
        assert not queue.draining
        queue.push(writes[5], 0)
        assert queue.draining  # reached high watermark
        for w in writes[:3]:
            queue.remove(w)
        assert queue.draining  # 3 left, still >= low watermark
        queue.remove(writes[3])
        assert queue.draining  # exactly at low watermark: keep draining
        queue.remove(writes[4])
        assert not queue.draining  # 1 left, strictly below low

    def test_drain_stops_strictly_below_low(self):
        queue = self.make()
        writes = [req(i * 64, OpType.WRITE) for i in range(6)]
        for w in writes:
            queue.push(w, 0)
        assert queue.draining
        for w in writes[:4]:
            queue.remove(w)
        # Exactly at the low watermark: still draining.
        assert len(queue) == 2
        assert queue.draining

    def test_force_drain(self):
        queue = self.make()
        queue.push(req(0, OpType.WRITE), 0)
        assert not queue.draining
        queue.force_drain()
        assert queue.draining

    def test_bad_watermarks_rejected(self):
        with pytest.raises(ValueError):
            WriteQueue(8, high_watermark=9, low_watermark=2)
        with pytest.raises(ValueError):
            WriteQueue(8, high_watermark=4, low_watermark=4)


class TestForwarding:
    def test_forwards_matching_address(self):
        queue = WriteQueue(8, 6, 2)
        write = req(0x1240, OpType.WRITE)
        queue.push(write, 0)
        assert queue.forwards(0x1240)
        assert not queue.forwards(0x1280)
        queue.remove(write)
        assert not queue.forwards(0x1240)

    def test_last_write_wins(self):
        queue = WriteQueue(8, 6, 2)
        first = req(0x40, OpType.WRITE)
        second = req(0x40, OpType.WRITE)
        queue.push(first, 0)
        queue.push(second, 1)
        queue.remove(first)
        # The newer write still covers the address.
        assert queue.forwards(0x40)

    def test_older_write_covers_after_newer_leaves(self):
        queue = WriteQueue(8, 6, 2)
        first = req(0x40, OpType.WRITE)
        second = req(0x40, OpType.WRITE)
        queue.push(first, 0)
        queue.push(second, 1)
        queue.remove(second)
        assert queue.forwards(0x40)
        queue.remove(first)
        assert not queue.forwards(0x40)


@pytest.mark.parametrize("make_queue", [
    lambda: TransactionQueue(4),
    lambda: WriteQueue(4, 3, 1),
], ids=["transaction", "write"])
def test_remove_matches_identity_not_equal_fields(make_queue):
    """A request's copy has the same ``req_id`` and fields, yet removing
    the copy must leave the original queued in every index."""
    queue = make_queue()
    original = req(0x40, OpType.WRITE)
    queue.push(original, 0)
    twin = copy.copy(original)
    queue.push(twin, 0)
    assert twin.req_id == original.req_id
    queue.remove(twin)
    assert len(queue) == 1 and queue.oldest() is original
    [group] = queue.by_bank().values()
    assert len(group) == 1 and group[0] is original
    if isinstance(queue, WriteQueue):
        assert queue.forwards(0x40)
        queue.remove(original)
        assert not queue.forwards(0x40)


def test_oldest_first_sorts_by_arrival_then_id():
    a, b, c = req(0x40), req(0x80), req(0xc0)
    a.arrival_cycle, b.arrival_cycle, c.arrival_cycle = 5, 3, 5
    assert oldest_first([a, b, c]) == [b, a, c]
