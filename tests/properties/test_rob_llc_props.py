"""Property tests: ROB occupancy accounting and LLC set-theory bounds."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.llc import LastLevelCache
from repro.cpu.rob import ReorderBuffer
from repro.memsys.request import MemRequest, OpType


class TestRobProperties:
    @given(
        capacity=st.integers(1, 64),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("insts"), st.integers(1, 20)),
                st.tuples(st.just("load"), st.booleans()),
                st.tuples(st.just("retire"), st.integers(1, 30)),
            ),
            max_size=60,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_occupancy_is_exact(self, capacity, ops):
        rob = ReorderBuffer(capacity)
        expected = 0
        for kind, value in ops:
            if kind == "insts":
                expected += rob.push_instructions(value)
            elif kind == "load":
                req = MemRequest(OpType.READ, 0x40)
                if value:  # completed load
                    req.completed = True
                if rob.push_load(req):
                    expected += 1
            else:
                expected -= rob.retire(value)
            assert rob.occupancy == expected
            assert 0 <= rob.occupancy <= capacity
            assert rob.free_slots == capacity - rob.occupancy

    @given(count=st.integers(0, 100), budget=st.integers(1, 300))
    @settings(max_examples=100, deadline=None)
    def test_plain_instructions_always_drain(self, count, budget):
        rob = ReorderBuffer(128)
        accepted = rob.push_instructions(count)
        retired = 0
        while True:
            step = rob.retire(budget)
            if step == 0:
                break
            retired += step
        assert retired == accepted
        assert rob.is_empty


class TestLlcProperties:
    @given(
        blocks=st.lists(
            st.tuples(st.integers(0, 255), st.booleans()), max_size=300
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_set_theory_bounds(self, blocks):
        cache = LastLevelCache(size_bytes=8 * 1024, ways=4)  # 128 lines
        touched = set()
        for line, is_write in blocks:
            cache.access(line * 64, is_write)
            touched.add(line)
        stats = cache.stats
        assert stats.accesses == len(blocks)
        # Every distinct block misses at least once (cold).
        assert stats.misses >= len(touched)
        assert stats.writebacks <= stats.misses
        assert cache.resident_lines() <= min(128, len(touched))
        assert stats.misses + (stats.accesses - stats.misses) == (
            stats.accesses
        )

    @given(
        lines=st.lists(st.integers(0, 3), min_size=1, max_size=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_small_working_set_never_remisses(self, lines):
        # 4 distinct lines into a 4-way single-set cache: after the cold
        # miss, every access hits.
        cache = LastLevelCache(size_bytes=4 * 64, ways=4)
        for line in lines:
            cache.access(line * 64, False)
        assert cache.stats.misses == len(set(lines))
