"""Reorder-buffer fill and in-order retirement."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.rob import ReorderBuffer
from repro.memsys.request import MemRequest, OpType


def pending_load():
    return MemRequest(OpType.READ, 0x40)


def done_load():
    req = pending_load()
    req.completed = True
    return req


def head_load(rob):
    """The head's request when the head is a load, else None."""
    if rob.loads and rob.loads[0][0] == rob.retired:
        return rob.loads[0][1]
    return None


class TestFill:
    def test_instruction_chunks_merge(self):
        rob = ReorderBuffer(100)
        assert rob.push_instructions(30) == 30
        assert rob.push_instructions(20) == 20
        assert rob.occupancy == 50

    def test_capacity_clips_fill(self):
        rob = ReorderBuffer(10)
        assert rob.push_instructions(25) == 10
        assert rob.push_instructions(5) == 0
        assert rob.free_slots == 0

    def test_load_occupies_one_slot(self):
        rob = ReorderBuffer(2)
        assert rob.push_load(pending_load())
        assert rob.push_load(pending_load())
        assert not rob.push_load(pending_load())

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ReorderBuffer(0)


class TestRetire:
    def test_retires_up_to_budget(self):
        rob = ReorderBuffer(100)
        rob.push_instructions(50)
        assert rob.retire(20) == 20
        assert rob.occupancy == 30

    def test_pending_load_blocks_head(self):
        rob = ReorderBuffer(100)
        rob.push_instructions(5)
        rob.push_load(pending_load())
        rob.push_instructions(5)
        assert rob.retire(100) == 5
        assert not head_load(rob).completed
        assert rob.occupancy == 6

    def test_completed_load_retires(self):
        rob = ReorderBuffer(100)
        load = done_load()
        rob.push_load(load)
        rob.push_instructions(3)
        assert rob.retire(100) == 4
        assert rob.is_empty

    def test_load_completion_unblocks(self):
        rob = ReorderBuffer(100)
        load = pending_load()
        rob.push_load(load)
        assert rob.retire(10) == 0
        load.completed = True
        assert rob.retire(10) == 1

    def test_in_order_across_mixed_entries(self):
        rob = ReorderBuffer(100)
        rob.push_instructions(2)
        first = done_load()
        rob.push_load(first)
        blocked = pending_load()
        rob.push_load(blocked)
        rob.push_instructions(4)
        # 2 instructions + completed load retire; blocked load stops us.
        assert rob.retire(100) == 3
        assert head_load(rob) is blocked

    def test_retires_past_several_completed_loads_in_one_budget(self):
        rob = ReorderBuffer(100)
        for _ in range(3):
            rob.push_instructions(2)
            rob.push_load(done_load())
        blocked = pending_load()
        rob.push_load(blocked)
        rob.push_instructions(5)
        assert rob.retire(7) == 7  # 2 + load + 2 + load + 2 + ...
        assert rob.retire(100) == 2  # ... the third load, then blocked
        assert head_load(rob) is blocked
        assert rob.occupancy == 6


class TestQueries:
    def test_empty_rob(self):
        rob = ReorderBuffer(10)
        assert rob.is_empty
        assert head_load(rob) is None
        assert rob.retire(10) == 0


class ChunkDequeRob:
    """The FIFO of instruction chunks and load markers this ROB replaced
    (oracle for the two-counter representation)."""

    def __init__(self, entries):
        self.capacity = entries
        self.fifo = deque()  # [count] chunks and (request,) markers
        self.occupancy = 0

    def push_instructions(self, count):
        free = self.capacity - self.occupancy
        accepted = count if count < free else free
        if accepted <= 0:
            return 0
        if self.fifo and isinstance(self.fifo[-1], list):
            self.fifo[-1][0] += accepted
        else:
            self.fifo.append([accepted])
        self.occupancy += accepted
        return accepted

    def push_load(self, request):
        if self.occupancy >= self.capacity:
            return False
        self.fifo.append((request,))
        self.occupancy += 1
        return True

    def retire(self, budget):
        retired = 0
        while budget > 0 and self.fifo:
            head = self.fifo[0]
            if isinstance(head, list):
                take = min(budget, head[0])
                head[0] -= take
                retired += take
                budget -= take
                if not head[0]:
                    self.fifo.popleft()
            else:
                if not head[0].completed:
                    break
                self.fifo.popleft()
                retired += 1
                budget -= 1
        self.occupancy -= retired
        return retired

    def head_request(self):
        if self.fifo and isinstance(self.fifo[0], tuple):
            return self.fifo[0][0]
        return None


def complete(request):
    request.completed = True


class TestAgainstChunkDeque:
    @given(
        capacity=st.integers(1, 48),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("insts"), st.integers(0, 40)),
                st.tuples(st.just("load"), st.booleans()),
                st.tuples(st.just("retire"), st.integers(0, 60)),
                st.tuples(st.just("complete"), st.integers(0, 10)),
            ),
            max_size=80,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_chunk_deque_rob(self, capacity, ops):
        rob = ReorderBuffer(capacity)
        oracle = ChunkDequeRob(capacity)
        loads = []
        for kind, value in ops:
            if kind == "insts":
                assert rob.push_instructions(value) == \
                    oracle.push_instructions(value)
            elif kind == "load":
                request = MemRequest(OpType.READ, 0x40)
                if value:
                    complete(request)
                loads.append(request)
                assert rob.push_load(request) == oracle.push_load(request)
            elif kind == "retire":
                assert rob.retire(value) == oracle.retire(value)
            else:
                # Data returns out of order: complete the value-th
                # still-pending load.
                pending = [r for r in loads if not r.completed]
                if pending:
                    complete(pending[value % len(pending)])
            assert rob.occupancy == oracle.occupancy
            assert rob.is_empty == (oracle.occupancy == 0)
            assert head_load(rob) is oracle.head_request()
